/**
 * @file
 * Execution and output flags shared by the bench driver and the
 * vlpsim subcommands.
 *
 * RunOptions covers how an experiment executes: `--jobs` worker
 * count and the artifact-cache flags (`--cache-dir`,
 * `--cache-max-bytes`, `--no-cache`, with the VLPSIM_CACHE_DIR
 * environment default). OutputOptions covers where the resulting
 * Report goes: `--format ascii|csv|json` and `--out FILE`. Both
 * register their flags on a util::ArgParser so every binary
 * documents the same spelling in `--help`.
 */

#ifndef VLPSIM_SIM_RUN_OPTIONS_H
#define VLPSIM_SIM_RUN_OPTIONS_H

#include <cstdint>
#include <memory>
#include <string>

#include "sim/report.h"

namespace vlp {
namespace util {
class ArgParser;
} // namespace util

namespace store {
class ArtifactStore;
} // namespace store

namespace sim {

class ParallelRunner;

/** Worker-count and artifact-cache configuration. */
struct RunOptions
{
    /** Worker count; 0 means one per hardware thread. */
    std::uint64_t jobs = 0;
    /** Cache directory; empty disables caching. Defaults to
     *  VLPSIM_CACHE_DIR from the environment. */
    std::string cacheDirectory;
    /** LRU bound in bytes; 0 = unbounded. */
    std::uint64_t cacheMaxBytes = 0;
    /** --no-cache: ignore the directory even when set. */
    bool cacheDisabled = false;

    /** Seed cacheDirectory from VLPSIM_CACHE_DIR. */
    RunOptions();

    bool cacheEnabled() const
    {
        return !cacheDisabled && !cacheDirectory.empty();
    }

    /** Register --jobs and the cache flags on @p parser. */
    void registerFlags(util::ArgParser &parser);

    /** Register only the cache flags (for commands whose worker
     *  count is managed elsewhere, e.g. `vlpsim serve --workers`). */
    void registerCacheFlags(util::ArgParser &parser);

    /** Open the configured store; null when caching is off. */
    std::shared_ptr<store::ArtifactStore> openStore() const;

    /**
     * Open the configured store and attach it to every worker
     * context of @p runner. Returns the store (null when off) so the
     * caller can keep it alive and report counters.
     */
    std::shared_ptr<store::ArtifactStore>
    attachStore(ParallelRunner &runner) const;
};

/**
 * One-line cache activity report on stderr (stdout stays
 * byte-identical between cold and warm runs). No-op for null stores.
 */
void reportCacheCounters(const store::ArtifactStore *store);

/** Report destination: format and optional output file. */
struct OutputOptions
{
    ReportFormat format = ReportFormat::Ascii;
    /** Output path; empty writes to stdout. */
    std::string path;

    /** Register --format and --out on @p parser. */
    void registerFlags(util::ArgParser &parser);

    /**
     * Render @p report in the selected format to the selected
     * destination.
     * @throws std::runtime_error when the output file cannot be
     *         opened
     */
    void write(const Report &report) const;
};

} // namespace sim
} // namespace vlp

#endif // VLPSIM_SIM_RUN_OPTIONS_H
