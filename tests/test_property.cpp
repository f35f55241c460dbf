/**
 * @file
 * Property and fuzz tests across module boundaries: randomized
 * program generation obeys engine invariants, the variable length
 * path predictor degenerates exactly to the fixed length one under a
 * constant assignment, and simulators accumulate across runs.
 */

#include <gtest/gtest.h>

#include "core/path_predictor.h"
#include "predictors/gshare.h"
#include "sim/simulator.h"
#include "trace/trace_stats.h"
#include "util/rng.h"
#include "workload/benchmarks.h"
#include "workload/engine.h"
#include "workload/generator.h"

namespace {

using namespace vlp;
using namespace vlp::workload;

/** Draw a random-but-sane StructureParams from a fuzz seed. */
StructureParams
fuzzParams(std::uint64_t seed)
{
    util::Rng rng(seed);
    StructureParams params;
    params.structureSeed = rng.next();
    params.targetStaticCond =
        static_cast<unsigned>(rng.nextInRange(60, 2000));
    params.targetStaticInd =
        static_cast<unsigned>(rng.nextInRange(1, 60));
    params.loopWeight = 0.1 + rng.nextDouble() * 0.5;
    params.pathWeight = 0.05 + rng.nextDouble() * 0.4;
    params.patternWeight = 0.05 + rng.nextDouble() * 0.3;
    params.biasedWeight = 0.05 + rng.nextDouble() * 0.5;
    params.condNoise = rng.nextDouble() * 0.1;
    params.tripMin = static_cast<unsigned>(rng.nextInRange(1, 8));
    params.tripMax = params.tripMin
        + static_cast<unsigned>(rng.nextInRange(0, 60));
    params.dispatchLoops =
        static_cast<unsigned>(rng.nextInRange(0, 4));
    params.dispatchFanMin =
        static_cast<unsigned>(rng.nextInRange(2, 16));
    params.dispatchFanMax = params.dispatchFanMin
        + static_cast<unsigned>(rng.nextInRange(0, 32));
    params.indCallSites =
        static_cast<unsigned>(rng.nextInRange(0, 8));
    params.utilFunctions =
        static_cast<unsigned>(rng.nextInRange(1, 20));
    params.phaseFunctions =
        static_cast<unsigned>(rng.nextInRange(1, 12));
    params.phaseCallsMin = 2;
    params.phaseCallsMax =
        static_cast<unsigned>(rng.nextInRange(2, 24));
    return params;
}

class GeneratorFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GeneratorFuzz, GeneratedProgramsRunCleanly)
{
    const StructureParams params = fuzzParams(GetParam());
    Program program = generateProgram(params);

    // Structural invariants beyond what finalize() validated.
    ASSERT_FALSE(program.blocks().empty());
    EXPECT_GE(program.staticIndirects(), 1u);
    EXPECT_LE(program.staticIndirects(), params.targetStaticInd);

    // Execute and check trace invariants.
    ExecutionEngine engine(program, InputSet{GetParam() * 7 + 1});
    RunLimits limits;
    limits.conditionalBudget = 30'000;
    const std::uint64_t first_addr = program.blocks().front().addr;
    const std::uint64_t last_addr = program.blocks().back().addr;

    trace::TraceStats stats;
    std::int64_t call_depth = 0;
    engine.run(limits, [&](const trace::BranchRecord &record) {
        stats.observe(record);
        // Every pc and destination stays inside the text segment.
        ASSERT_GE(record.pc, first_addr);
        ASSERT_LE(record.pc, last_addr);
        ASSERT_GE(record.nextPc, first_addr);
        ASSERT_LE(record.nextPc, last_addr);
        // Non-conditional records are always "taken".
        if (!record.isConditional()) {
            ASSERT_TRUE(record.taken);
        }
        // Returns never outnumber calls.
        if (record.isCall())
            ++call_depth;
        if (record.isReturn()) {
            --call_depth;
            ASSERT_GE(call_depth, 0);
        }
    });

    EXPECT_GE(stats.dynamicConditional() + 8,
              limits.conditionalBudget);
    // Every branch kind count is consistent with the static program.
    EXPECT_LE(stats.staticConditional(),
              program.staticConditionals());
    EXPECT_LE(stats.staticIndirect(), program.staticIndirects());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(VlpFlpEquivalence, ConstantAssignmentMatchesFixedLength)
{
    // A VLP predictor whose every branch is assigned length L must
    // behave *identically* to the FLP predictor with fixed length L.
    StructureParams params = fuzzParams(99);
    Program program = generateProgram(params);
    ExecutionEngine engine(program, InputSet{3});
    RunLimits limits;
    limits.conditionalBudget = 40'000;
    auto trace = engine.runToTrace(limits);

    for (const unsigned length : {1u, 4u, 11u, 32u}) {
        core::PathConditionalPredictor flp(12, length);
        core::HashAssignment assignment(length); // default only
        core::PathConditionalPredictor vlp(12, assignment);

        sim::Simulator simulator;
        simulator.addConditional(&flp);
        simulator.addConditional(&vlp);
        trace.reset();
        simulator.run(trace);

        const auto results = simulator.conditionalResults();
        EXPECT_EQ(results[0].mispredictions, results[1].mispredictions)
            << "length " << length;
    }
}

TEST(VlpFlpEquivalence, IndirectConstantAssignmentMatches)
{
    StructureParams params = fuzzParams(123);
    params.dispatchLoops = 2;
    Program program = generateProgram(params);
    ExecutionEngine engine(program, InputSet{5});
    RunLimits limits;
    limits.conditionalBudget = 40'000;
    auto trace = engine.runToTrace(limits);

    core::PathIndirectPredictor flp(9, 7);
    core::PathIndirectPredictor vlp(9, core::HashAssignment(7));
    sim::Simulator simulator;
    simulator.addIndirect(&flp);
    simulator.addIndirect(&vlp);
    simulator.run(trace);
    const auto results = simulator.indirectResults();
    ASSERT_GT(results[0].branches, 0u);
    EXPECT_EQ(results[0].mispredictions, results[1].mispredictions);
}

TEST(VlpFlpEquivalence, ExplicitAssignmentMatchesFixedLength)
{
    // Explicit per-branch entries, not the default, carry length L
    // here: the default is a different length, so any pc the lookup
    // missed would show up as a divergence from FLP(L).
    constexpr unsigned k = 10;
    for (const char *name : {"gcc", "perl", "li"}) {
        auto test_trace =
            generateTrace(findBenchmark(name), InputKind::Test, 0.05);
        for (const unsigned length : {1u, 5u, 17u, 32u}) {
            core::HashAssignment assignment(length == 1 ? 2 : 1);
            trace::BranchRecord record;
            test_trace.reset();
            while (test_trace.next(record))
                assignment.assign(record.pc, length);

            core::PathConditionalPredictor flp_cond(k, length);
            core::PathConditionalPredictor vlp_cond(k, assignment);
            core::PathIndirectPredictor flp_ind(k, length);
            core::PathIndirectPredictor vlp_ind(k, assignment);
            sim::Simulator simulator;
            simulator.addConditional(&flp_cond);
            simulator.addConditional(&vlp_cond);
            simulator.addIndirect(&flp_ind);
            simulator.addIndirect(&vlp_ind);
            test_trace.reset();
            simulator.run(test_trace);
            for (const auto &results : {simulator.conditionalResults(),
                                        simulator.indirectResults()}) {
                ASSERT_GT(results[0].branches, 0u) << name;
                EXPECT_EQ(results[0].branches, results[1].branches)
                    << name << " L=" << length;
                EXPECT_EQ(results[0].mispredictions,
                          results[1].mispredictions)
                    << name << " L=" << length;
            }
        }
    }
}

TEST(SimulatorAccumulation, MultipleRunsAddUp)
{
    StructureParams params = fuzzParams(7);
    Program program = generateProgram(params);
    RunLimits limits;
    limits.conditionalBudget = 10'000;

    ExecutionEngine engine_a(program, InputSet{11});
    auto trace_a = engine_a.runToTrace(limits);
    ExecutionEngine engine_b(program, InputSet{12});
    auto trace_b = engine_b.runToTrace(limits);

    pred::GsharePredictor continuous(12);
    sim::Simulator accumulated;
    accumulated.addConditional(&continuous);
    accumulated.run(trace_a);
    const auto after_first = accumulated.conditionalResults()[0];
    accumulated.run(trace_b);
    const auto after_both = accumulated.conditionalResults()[0];

    EXPECT_GT(after_first.branches, 0u);
    EXPECT_EQ(after_both.branches, after_first.branches * 2);
    EXPECT_GE(after_both.mispredictions, after_first.mispredictions);
}

TEST(EngineDeterminism, IdenticalAcrossEngineInstances)
{
    // Fuzzed configurations stay deterministic: two engines over two
    // independently generated (but identical-parameter) programs give
    // byte-identical traces.
    const StructureParams params = fuzzParams(31);
    Program first = generateProgram(params);
    Program second = generateProgram(params);
    RunLimits limits;
    limits.conditionalBudget = 20'000;
    auto trace_a =
        ExecutionEngine(first, InputSet{77}).runToTrace(limits);
    auto trace_b =
        ExecutionEngine(second, InputSet{77}).runToTrace(limits);
    EXPECT_EQ(trace_a.records(), trace_b.records());
}

} // anonymous namespace
