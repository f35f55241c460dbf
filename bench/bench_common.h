/**
 * @file
 * Shared driver for the bench binaries that regenerate the paper's
 * tables and figures.
 *
 * Every binary is now "declare columns, fill rows": it constructs a
 * bench::Driver with its banner text and hands run() a body that
 * fills a sim::Report from a sim::ParallelRunner. The driver owns
 * everything the binaries used to copy-paste — argument parsing
 * (--jobs, the cache flags, --format, --out, --help), artifact-store
 * attachment, banner and run-summary emission, and report rendering
 * through the selected sim::ReportSink. With the default
 * `--format ascii` the stdout is byte-identical to the pre-driver
 * binaries at any --jobs value (tests/golden locks this for
 * bench_table2 and bench_fig5_6).
 */

#ifndef VLPSIM_BENCH_BENCH_COMMON_H
#define VLPSIM_BENCH_BENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "sim/experiment.h"
#include "sim/parallel.h"
#include "sim/report.h"
#include "sim/run_options.h"
#include "util/args.h"
#include "util/stats.h"

namespace bench {

/** Format a misprediction rate like the paper ("4.3" percent). */
inline std::string
rate(double value)
{
    return vlp::util::formatDouble(value, 2);
}

/**
 * Signed percentage reduction in mispredictions of @p better relative
 * to @p base.
 *
 * Convention: positive means @p better mispredicts less than the
 * baseline; negative means a regression (better > base), reported at
 * its true magnitude rather than clamped. When the baseline itself
 * has zero mispredictions no finite percentage describes a nonzero
 * comparison, so the edge cases are explicit: 0 vs 0 is 0.0 (no
 * change), and any nonzero count against a zero baseline returns
 * -infinity (rendered "-inf" by util::formatDouble).
 */
inline double
reduction(const vlp::sim::RateEntry &base,
          const vlp::sim::RateEntry &better)
{
    if (base.mispredictions == 0) {
        if (better.mispredictions == 0)
            return 0.0;
        return -std::numeric_limits<double>::infinity();
    }
    return 100.0
        * (static_cast<double>(base.mispredictions)
           - static_cast<double>(better.mispredictions))
        / static_cast<double>(base.mispredictions);
}

/**
 * Wall-clock run summary with a branches-per-second throughput line.
 *
 * Printed to stderr so that a binary's table output on stdout stays
 * byte-identical no matter the --jobs value (the golden checks diff
 * stdout).
 */
class RunSummary
{
  public:
    RunSummary() : start_(std::chrono::steady_clock::now()) {}

    /** Report @p predictions dynamic predictions from @p jobs
     *  workers. */
    void print(std::uint64_t predictions, unsigned jobs) const;

    /** Convenience over a runner's built-in prediction counter. */
    void print(const vlp::sim::ParallelRunner &runner) const
    {
        print(runner.predictions(), runner.jobs());
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * The shared main() of every bench binary.
 *
 * Owns the command line (common flags plus whatever the binary adds
 * through parser() before run()), the parallel runner and its
 * artifact store, the report skeleton (banner text, scale, jobs and
 * cache metadata), and the output sink. The body callback only fills
 * sections.
 */
class Driver
{
  public:
    /**
     * @param program        binary name for usage text
     * @param title          banner headline / report title
     * @param configuration  banner configuration line
     */
    Driver(std::string program, std::string title,
           std::string configuration);

    /** The argument parser, for binaries that add extra flags. */
    vlp::util::ArgParser &parser() { return parser_; }

    /** The execution options (jobs, cache) after parsing. */
    vlp::sim::RunOptions &options() { return options_; }

    /** The output options (--format, --out) after parsing. */
    vlp::sim::OutputOptions &output() { return output_; }

    /**
     * Parse the command line, run @p body to fill the report, render
     * it, and emit the stderr run summary and cache counters.
     * @return process exit code
     */
    int run(int argc, char **argv,
            const std::function<void(vlp::sim::ParallelRunner &,
                                     vlp::sim::Report &)> &body);

  private:
    std::string title_;
    std::string configuration_;
    vlp::util::ArgParser parser_;
    vlp::sim::RunOptions options_;
    vlp::sim::OutputOptions output_;
};

} // namespace bench

#endif // VLPSIM_BENCH_BENCH_COMMON_H
