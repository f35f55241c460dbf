/**
 * @file
 * Bring-your-own-trace: shows the .vbt trace file workflow for users
 * who want to evaluate the predictors on branch streams extracted from
 * their own tools (e.g. a ChampSim-style instruction trace reduced to
 * its control-transfer records).
 *
 *  1. If no input file is given, synthesize a demo trace and write it
 *     to /tmp/vlpsim_demo.vbt — the code doubles as a format example.
 *  2. Stream the file back (constant memory) to print Table-1-style
 *     statistics.
 *  3. Load it fully and evaluate gshare vs a fixed length path
 *     predictor on the conditional branches.
 *
 * Usage: custom_trace [trace.vbt]
 */

#include <iostream>

#include "core/path_predictor.h"
#include "predictors/gshare.h"
#include "sim/simulator.h"
#include "trace/streaming.h"
#include "trace/trace_io.h"
#include "trace/trace_stats.h"
#include "util/stats.h"
#include "workload/benchmarks.h"

namespace {

/** Write a small demo trace (a scaled-down li run) to @p path. */
void
writeDemoTrace(const std::string &path)
{
    using namespace vlp;
    auto source = workload::generateTrace(
        workload::findBenchmark("li"), workload::InputKind::Test, 0.05);
    trace::TraceWriter writer(path);
    trace::BranchRecord record;
    while (source.next(record))
        writer.write(record);
    writer.close();
    std::cout << "wrote demo trace: " << path << " ("
              << util::formatScaled(writer.count()) << " records)\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace vlp;

    std::string path;
    if (argc > 1) {
        path = argv[1];
    } else {
        path = "/tmp/vlpsim_demo.vbt";
        writeDemoTrace(path);
    }

    // Streaming statistics: the reader never holds the whole trace.
    {
        trace::StreamingTraceReader reader(path);
        trace::TraceStats stats;
        stats.observeAll(reader);
        std::cout << "\ntrace statistics for " << path << ":\n"
                  << stats.summary() << "\n";
    }

    // Evaluation: load into memory (profiling-style passes need
    // resets) and race two conditional predictors.
    trace::VectorTraceSource source = trace::loadTrace(path);

    pred::GsharePredictor gshare(14);
    core::PathConditionalPredictor flp(14, 6);

    sim::Simulator simulator;
    simulator.addConditional(&gshare);
    simulator.addConditional(&flp);
    simulator.run(source);

    std::cout << "\npredictors at 4K bytes:\n";
    for (const auto &result : simulator.conditionalResults()) {
        std::cout << "  " << result.name << ": "
                  << util::formatDouble(result.rate(), 2) << "% over "
                  << util::formatScaled(result.branches)
                  << " conditional branches\n";
    }
    const auto ras = simulator.rasResult();
    std::cout << "  " << ras.name << ": "
              << util::formatDouble(ras.rate(), 2) << "% over "
              << util::formatScaled(ras.branches) << " returns\n";
    return 0;
}
