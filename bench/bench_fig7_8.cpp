/**
 * @file
 * Regenerates Figures 7 and 8: indirect branch misprediction rates
 * with a 2K byte predictor — the Chang-Hao-Patt path and pattern
 * target caches vs fixed and variable length path — for the SPEC
 * (Fig. 7) and non-SPEC (Fig. 8) benchmarks. The paper marks the 8
 * benchmarks with the highest indirect branch frequencies in bold; we
 * mark them with '*'.
 */

#include "bench_common.h"

#include "workload/benchmarks.h"

int
main(int argc, char **argv)
{
    using namespace vlp;

    bench::Driver driver(
        "bench_fig7_8", "Figures 7 & 8: Indirect Misprediction Rates",
        "2K byte predictor, test inputs; '*' marks the 8 "
        "indirect-heavy benchmarks of Table 3");
    return driver.run(argc, argv, [](sim::ParallelRunner &runner,
                                     sim::Report &report) {
        constexpr std::size_t bytes = 2048;
        const unsigned global_length =
            runner.globalIndirectLength(bytes);
        report.addText("global-length",
                       "global fixed path length: "
                           + std::to_string(global_length) + "\n");
        report.setMeta("globalIndirectLength",
                       std::uint64_t{global_length});

        const auto &suite = workload::benchmarkSuite();
        const auto rows =
            runner.compareSuite(suite, bytes, global_length, true);

        for (const bool spec_group : {true, false}) {
            sim::Section &section = report.addSection(
                spec_group ? "figure7" : "figure8");
            section.caption = spec_group ? "\nFigure 7 (SPECint95)\n"
                                         : "\nFigure 8 (non-SPEC)\n";
            section.columns = {{"Benchmark"},
                               {"path CHP (%)"},
                               {"pattern CHP (%)"},
                               {"fixed length path (%)"},
                               {"variable length path (%)"},
                               {"ind branches"}};
            for (std::size_t i = 0; i < suite.size(); ++i) {
                const auto &spec = suite[i];
                if (spec.isSpec != spec_group)
                    continue;
                const auto &row = rows[i];
                section.addRow(
                    spec.name,
                    {
                        sim::Cell::text(
                            spec.name
                            + (spec.indirectHeavy ? " *" : "")),
                        sim::Cell::percent(
                            row.entry(sim::names::chpPath).rate),
                        sim::Cell::percent(
                            row.entry(sim::names::chpPattern).rate),
                        sim::Cell::percent(
                            row.entry(sim::names::flp).rate),
                        sim::Cell::percent(
                            row.entry(sim::names::vlp).rate),
                        sim::Cell::scaled(
                            row.entry(sim::names::vlp).branches),
                    });
            }
        }
    });
}
