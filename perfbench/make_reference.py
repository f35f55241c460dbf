#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the benchmark's reference digests.

    python3 perfbench/make_reference.py

Runs every workload input once against an empty reference and records
the report digest perfbench computed. Only rerun it when a change is
meant to alter simulated results, and say so in that change.
"""

import json
import os
import re
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SUITE_SCALES = ("0.1", "0.01")  # benchmark, self-test
CORPUS_INPUTS = [("0.1", v) for v in range(16)] + [("0.005", 0)]
DIGEST = re.compile(r"report digest ([0-9a-f]+) for (\S+) != reference")


def digest_of(binary, workload, seed, extra):
    empty = os.path.join(run.ROOT, ".bench_work", "empty-reference.json")
    os.makedirs(os.path.dirname(empty), exist_ok=True)
    with open(empty, "w") as handle:
        handle.write('{"digests": {}}\n')
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", "0.001", "--trace", "0",
               "--work", ".bench_work/reference", "--out", ".bench_out",
               "--reference", os.path.relpath(empty, run.ROOT), *extra]
    result = subprocess.run(command, cwd=run.ROOT, capture_output=True,
                            text=True, timeout=run.RUN_TIMEOUT_S)
    found = {m.group(2): m.group(1) for m in DIGEST.finditer(result.stderr)}
    if len(found) != 1:
        sys.exit(f"make_reference: no single digest from {command}:\n"
                 + result.stderr)
    return found.popitem()


def main():
    binary = run.build()
    digests = {}
    for scale in SUITE_SCALES:
        for workload in ("suite-cond", "suite-ind"):
            key, value = digest_of(binary, workload, 0,
                                   ["--suite-scale", scale])
            digests[key] = value
    for scale, variant in CORPUS_INPUTS:
        key, value = digest_of(binary, "corpus-cold", variant,
                               ["--corpus-scale", scale])
        digests[key] = value
    shutil.rmtree(os.path.join(run.ROOT, ".bench_work", "reference"),
                  ignore_errors=True)
    path = os.path.join(run.BENCH_DIR, "reference.json")
    with open(path, "w") as handle:
        json.dump({"digests": dict(sorted(digests.items()))}, handle,
                  indent=2)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(path, run.ROOT)}")


if __name__ == "__main__":
    main()
