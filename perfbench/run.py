#!/usr/bin/env python3
"""Build and run the vlpsim benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a vlpsim source tree. The first run configures and
builds `perfbench` (an optimised build of ../src plus the harness) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs only rebuild what changed. The last line of stdout is
the harness's JSON result; build output and diagnostics go to stderr.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("suite-cond", "suite-ind", "corpus-cold", "serve-warm")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def source_version():
    """`git describe` of the tree, or a digest of src/ outside git."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, capture_output=True, text=True, timeout=30)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (when needed) and build the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no vlpsim sources under {ROOT}/src")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    version = source_version()
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
         f"-DVLPSIM_GIT_VERSION={version}"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "perfbench")


def run(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (exit code, stdout text)."""
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work", os.path.relpath(work, ROOT),
               "--out", ".bench_out",
               "--reference", os.path.relpath(
                   os.path.join(BENCH_DIR, "reference.json"), ROOT),
               *extra]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S)
        return result.returncode, result.stdout
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except RuntimeError as error:
        log(str(error))
        return 2
    code, stdout = run(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    if code != 0:
        log(f"{args.workload} failed with exit code {code}")
        return code
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
