/**
 * @file
 * Experiment harness implementation.
 */

#include "sim/experiment.h"

#include <functional>
#include <memory>
#include <optional>

#include "core/path_predictor.h"
#include "predictors/budget.h"
#include "predictors/gshare.h"
#include "sim/report.h"
#include "predictors/target_cache.h"
#include "store/artifact_store.h"
#include "store/cache_key.h"
#include "store/serialize.h"
#include "util/logging.h"

namespace vlp {
namespace sim {

namespace {

/**
 * Cache-key prefix identifying a synthetic workload: benchmark name,
 * trace generator version, and the global VLPSIM_SCALE (traces are a
 * pure function of these).
 */
store::KeyBuilder
workloadKey(const std::string &kind,
            const workload::BenchmarkSpec &spec)
{
    store::KeyBuilder builder(kind);
    builder.field("workload", spec.name)
        .field("generator",
               std::uint64_t{workload::generatorVersion})
        .field("scale", util::workloadScale());
    return builder;
}

/**
 * Cache-key prefix identifying an external trace: its content hash
 * alone. Generator version and scale are irrelevant to bytes read
 * from disk, and the hash survives renames while invalidating on any
 * content change.
 */
store::KeyBuilder
externalKey(const std::string &kind, const ExternalTrace &trace)
{
    store::KeyBuilder builder(kind);
    builder.field("trace", trace.contentHash);
    return builder;
}

void
addProfileFields(store::KeyBuilder &builder,
                 const core::ProfileOptions &options, bool indirect)
{
    builder.field("class", std::string(indirect ? "ind" : "cond"))
        .field("indexBits", std::uint64_t{options.indexBits})
        .field("minLength", std::uint64_t{options.minLength})
        .field("maxLength", std::uint64_t{options.maxLength})
        .field("rotate", options.history.rotateTargets)
        .field("returns", options.history.includeReturns)
        .field("stack", options.history.historyStack)
        .field("stackDepth",
               std::uint64_t{options.history.historyStackDepth});
}

/** Step-1 profile key fields (independent of step-2 parameters). */
store::CacheKey
profileKey(store::KeyBuilder builder,
           const core::ProfileOptions &options, bool indirect)
{
    addProfileFields(builder, options, indirect);
    return builder.build();
}

/** Step-2 assignment key fields (depend on all profile options). */
store::CacheKey
assignmentKey(store::KeyBuilder builder,
              const core::ProfileOptions &options, bool indirect)
{
    addProfileFields(builder, options, indirect);
    builder.field("candidates", std::uint64_t{options.candidates})
        .field("iterations", std::uint64_t{options.iterations});
    return builder.build();
}

void
addComparisonFields(store::KeyBuilder &builder, bool indirect,
                    std::size_t bytes, unsigned global_length,
                    bool include_tuned)
{
    builder.field("class", std::string(indirect ? "ind" : "cond"))
        .field("bytes", std::uint64_t{bytes})
        .field("globalLength", std::uint64_t{global_length})
        .field("tuned", include_tuned)
        // Comparison rows feed the structured report pipeline; the
        // schema stamp guarantees a sink/layout change can never be
        // served from a stale cached row.
        .field("reportSchema", std::uint64_t{reportSchemaVersion});
}

/** Key for a full predictor-comparison row (synthetic workload). */
store::CacheKey
comparisonKey(const workload::BenchmarkSpec &spec, bool indirect,
              std::size_t bytes, unsigned global_length,
              bool include_tuned)
{
    store::KeyBuilder builder = workloadKey("comparison", spec);
    addComparisonFields(builder, indirect, bytes, global_length,
                        include_tuned);
    return builder.build();
}

/**
 * Key for a full predictor-comparison row (external trace pair). Both
 * content hashes participate: the row depends on the profile trace
 * (assignment, tuned length) *and* the evaluation trace, so a cached
 * row can never leak across pairings. Self-evaluation is simply the
 * profile == test degenerate case and keys consistently.
 */
store::CacheKey
externalComparisonKey(const ExternalTrace &profile,
                      const ExternalTrace &test, bool indirect,
                      std::size_t bytes, unsigned global_length,
                      bool include_tuned)
{
    store::KeyBuilder builder = externalKey("comparison", profile);
    builder.field("test", test.contentHash);
    addComparisonFields(builder, indirect, bytes, global_length,
                        include_tuned);
    return builder.build();
}

} // anonymous namespace

const RateEntry &
ComparisonRow::entry(const std::string &predictor) const
{
    for (const auto &candidate : entries) {
        if (candidate.predictor == predictor)
            return candidate;
    }
    util::fatal("no such predictor in comparison: " + predictor);
}

std::shared_ptr<trace::VectorTraceSource>
ExperimentContext::trace(const workload::BenchmarkSpec &spec,
                         workload::InputKind kind)
{
    const std::string key = spec.name
        + (kind == workload::InputKind::Profile ? "/profile" : "/test");
    for (auto it = traces_.begin(); it != traces_.end(); ++it) {
        if (it->key == key) {
            traces_.splice(traces_.begin(), traces_, it);
            return traces_.front().source;
        }
    }
    TraceEntry entry;
    entry.key = key;
    entry.source = std::make_shared<trace::VectorTraceSource>(
        workload::generateTrace(spec, kind));
    traces_.push_front(std::move(entry));
    while (traces_.size() > traceCacheCapacity)
        traces_.pop_back();
    return traces_.front().source;
}

std::shared_ptr<trace::TraceSource>
ExperimentContext::openExternal(const ExternalTrace &trace) const
{
    if (trace.session) {
        trace.session->reset();
        return trace.session;
    }
    std::unique_ptr<trace::ByteFile> file = trace.opener
        ? trace.opener(trace.path)
        : trace::openByteFile(trace.path);
    return std::make_shared<trace::StreamingTraceReader>(
        std::move(file), trace.chunkRecords);
}

/** What the profiling cache needs to know about a profile input. */
struct ExperimentContext::ProfileInput
{
    /** In-process cache key stem; unique across inputs. */
    std::string name;
    /** Store key prefix for an artifact kind ("profile", ...). */
    std::function<store::KeyBuilder(const std::string &kind)> key;
    /** Produces the profile trace, ready to replay. */
    std::function<std::shared_ptr<trace::TraceSource>()> trace;
};

ExperimentContext::ProfileInput
ExperimentContext::syntheticInput(const workload::BenchmarkSpec &spec)
{
    return {spec.name,
            [&spec](const std::string &kind) {
                return workloadKey(kind, spec);
            },
            [this, &spec]() -> std::shared_ptr<trace::TraceSource> {
                return trace(spec, workload::InputKind::Profile);
            }};
}

ExperimentContext::ProfileInput
ExperimentContext::externalInput(const ExternalTrace &ext) const
{
    // "ext:" + hash cannot collide with a benchmark name, so external
    // profilers share the in-process map with synthetic ones.
    return {"ext:" + ext.contentHash,
            [&ext](const std::string &kind) {
                return externalKey(kind, ext);
            },
            [this, &ext] { return openExternal(ext); }};
}

ExperimentContext::ProfilerEntry &
ExperimentContext::profilerEntry(const ProfileInput &input,
                                 unsigned index_bits, bool indirect,
                                 core::PathHistoryOptions history)
{
    const std::string key = input.name + "/"
        + std::to_string(index_bits) + (indirect ? "/i" : "/c")
        + (history.rotateTargets ? "/r1" : "/r0")
        + (history.includeReturns ? "/ret1" : "/ret0")
        + (history.historyStack ? "/hs1" : "/hs0") + "/d"
        + std::to_string(history.depth);
    auto it = profilers_.find(key);
    if (it == profilers_.end()) {
        core::ProfileOptions options;
        options.indexBits = index_bits;
        options.history = history;
        it = profilers_
                 .emplace(key,
                          ProfilerEntry{core::Profiler(options, indirect),
                                        false, std::nullopt})
                 .first;
    }
    return it->second;
}

void
ExperimentContext::ensureStep1(ProfilerEntry &entry,
                               const ProfileInput &input)
{
    if (entry.step1Done)
        return;
    throwIfCancelled();

    core::Profiler &profiler = entry.profiler;
    std::optional<store::CacheKey> key;
    if (store_) {
        key = profileKey(input.key("profile"), profiler.options(),
                         profiler.indirect());
        if (const auto payload = store_->fetch(*key)) {
            try {
                core::FixedLengthSweep sweep;
                std::unordered_map<std::uint64_t, core::BranchProfile>
                    profiles;
                store::decodeStep1Profile(*payload, sweep, profiles);
                profiler.restoreStep1(std::move(sweep),
                                      std::move(profiles));
                entry.step1Done = true;
                return;
            } catch (const std::exception &error) {
                util::warn(std::string("discarding unusable cached "
                                       "profile: ")
                           + error.what());
            }
        }
    }

    profiler.runStep1(*input.trace());
    entry.step1Done = true;

    if (key) {
        store_->insert(*key,
                       store::encodeStep1Profile(profiler.step1Sweep(),
                                                 profiler.branchProfiles()));
    }
}

const core::HashAssignment &
ExperimentContext::ensureAssignment(ProfilerEntry &entry,
                                    const ProfileInput &input)
{
    if (entry.assignment)
        return *entry.assignment;
    throwIfCancelled();

    // A cached assignment short-circuits both profiling steps; only
    // probe step 1 (and possibly recompute it) on a miss.
    core::Profiler &profiler = entry.profiler;
    std::optional<store::CacheKey> key;
    if (store_) {
        key = assignmentKey(input.key("assignment"), profiler.options(),
                            profiler.indirect());
        if (const auto payload = store_->fetch(*key)) {
            try {
                entry.assignment = store::decodeAssignment(*payload);
                return *entry.assignment;
            } catch (const std::exception &error) {
                util::warn(std::string("discarding unusable cached "
                                       "assignment: ")
                           + error.what());
            }
        }
    }

    ensureStep1(entry, input);
    entry.assignment = profiler.runStep2(*input.trace());
    if (key)
        store_->insert(*key, store::encodeAssignment(*entry.assignment));
    return *entry.assignment;
}

const core::FixedLengthSweep &
ExperimentContext::sweep(const workload::BenchmarkSpec &spec,
                         unsigned index_bits, bool indirect,
                         core::PathHistoryOptions history)
{
    const ProfileInput input = syntheticInput(spec);
    ProfilerEntry &entry =
        profilerEntry(input, index_bits, indirect, history);
    ensureStep1(entry, input);
    return entry.profiler.step1Sweep();
}

const core::HashAssignment &
ExperimentContext::assignment(const workload::BenchmarkSpec &spec,
                              unsigned index_bits, bool indirect,
                              core::PathHistoryOptions history)
{
    const ProfileInput input = syntheticInput(spec);
    return ensureAssignment(
        profilerEntry(input, index_bits, indirect, history), input);
}

const core::FixedLengthSweep &
ExperimentContext::externalSweep(const ExternalTrace &ext,
                                 unsigned index_bits, bool indirect)
{
    const ProfileInput input = externalInput(ext);
    ProfilerEntry &entry = profilerEntry(input, index_bits, indirect, {});
    ensureStep1(entry, input);
    return entry.profiler.step1Sweep();
}

const core::HashAssignment &
ExperimentContext::externalAssignment(const ExternalTrace &ext,
                                      unsigned index_bits,
                                      bool indirect)
{
    const ProfileInput input = externalInput(ext);
    return ensureAssignment(profilerEntry(input, index_bits, indirect, {}),
                            input);
}

namespace {

RateEntry
toRateEntry(const PredictorResult &result)
{
    RateEntry entry;
    entry.predictor = result.name;
    entry.branches = result.branches;
    entry.mispredictions = result.mispredictions;
    entry.rate = result.rate();
    return entry;
}

/** Fetch a cached comparison row, or nullopt on miss/corruption. */
std::optional<ComparisonRow>
fetchComparisonRow(store::ArtifactStore *store,
                   const store::CacheKey &key)
{
    if (!store)
        return std::nullopt;
    const auto payload = store->fetch(key);
    if (!payload)
        return std::nullopt;
    try {
        return store::decodeComparisonRow(*payload);
    } catch (const std::exception &error) {
        util::warn(std::string("discarding unusable cached comparison "
                               "row: ")
                   + error.what());
        return std::nullopt;
    }
}

/** Table index width for a budget of @p bytes in one branch class. */
unsigned
indexBits(std::size_t bytes, bool indirect)
{
    return indirect ? pred::indirectIndexBits(bytes)
                    : pred::conditionalIndexBits(bytes);
}

/**
 * Append the path predictors every comparison ends with: fixed length
 * at the global and (optionally) tuned lengths, then variable length.
 */
template <typename PathPredictor, typename Base>
void
addPathPredictors(std::vector<std::unique_ptr<Base>> &set,
                  unsigned index_bits, unsigned global_length,
                  unsigned tuned_length,
                  const core::HashAssignment &assignment,
                  bool include_tuned)
{
    set.push_back(
        std::make_unique<PathPredictor>(index_bits, global_length));
    if (include_tuned) {
        set.push_back(
            std::make_unique<PathPredictor>(index_bits, tuned_length));
    }
    set.push_back(std::make_unique<PathPredictor>(index_bits, assignment));
}

/**
 * Build one branch class's predictor set, replay the evaluation trace,
 * and assemble the row.
 */
ComparisonRow
runComparison(const std::string &name, trace::TraceSource &eval_trace,
              bool indirect, unsigned index_bits, unsigned global_length,
              unsigned tuned_length,
              const core::HashAssignment &assignment, bool include_tuned)
{
    std::vector<std::unique_ptr<pred::ConditionalPredictor>> conditional;
    std::vector<std::unique_ptr<pred::IndirectPredictor>> indirects;
    if (indirect) {
        indirects.push_back(
            std::make_unique<pred::PathTargetCache>(index_bits));
        indirects.push_back(
            std::make_unique<pred::PatternTargetCache>(index_bits));
        addPathPredictors<core::PathIndirectPredictor>(
            indirects, index_bits, global_length, tuned_length,
            assignment, include_tuned);
    } else {
        conditional.push_back(
            std::make_unique<pred::GsharePredictor>(index_bits));
        addPathPredictors<core::PathConditionalPredictor>(
            conditional, index_bits, global_length, tuned_length,
            assignment, include_tuned);
    }
    Simulator simulator;
    for (const auto &predictor : conditional)
        simulator.addConditional(predictor.get());
    for (const auto &predictor : indirects)
        simulator.addIndirect(predictor.get());

    simulator.run(eval_trace);

    ComparisonRow row;
    row.benchmark = name;
    for (const auto &result : indirect ? simulator.indirectResults()
                                       : simulator.conditionalResults())
        row.entries.push_back(toRateEntry(result));
    if (include_tuned)
        row.entries[row.entries.size() - 2].predictor = names::flpTuned;
    return row;
}

} // anonymous namespace

ComparisonRow
compare(ExperimentContext &context, const workload::BenchmarkSpec &spec,
        std::size_t bytes, unsigned global_length, bool indirect,
        bool include_tuned)
{
    context.throwIfCancelled();
    const store::CacheKey key = comparisonKey(spec, indirect, bytes,
                                              global_length, include_tuned);
    if (auto cached = fetchComparisonRow(context.store(), key))
        return *cached;

    const unsigned index_bits = indexBits(bytes, indirect);
    const unsigned tuned_length =
        context.sweep(spec, index_bits, indirect).bestLength();
    const core::HashAssignment &assignment =
        context.assignment(spec, index_bits, indirect);

    const auto test_trace =
        context.trace(spec, workload::InputKind::Test);
    ComparisonRow row = runComparison(
        spec.name, *test_trace, indirect, index_bits, global_length,
        tuned_length, assignment, include_tuned);
    if (auto *store = context.store())
        store->insert(key, store::encodeComparisonRow(row));
    return row;
}

ComparisonRow
compareExternal(ExperimentContext &context, const ExternalTrace &profile,
                const ExternalTrace &test, std::size_t bytes,
                unsigned global_length, bool indirect)
{
    context.throwIfCancelled();
    const store::CacheKey key = externalComparisonKey(
        profile, test, indirect, bytes, global_length, true);
    if (auto cached = fetchComparisonRow(context.store(), key))
        return *cached;

    // Everything learned comes from the profile trace (and is cached
    // under its content hash); only the replay below touches the test
    // trace.
    const unsigned index_bits = indexBits(bytes, indirect);
    const unsigned tuned_length =
        context.externalSweep(profile, index_bits, indirect).bestLength();
    const core::HashAssignment &assignment =
        context.externalAssignment(profile, index_bits, indirect);

    const auto eval_trace = context.openExternal(test);
    ComparisonRow row = runComparison(
        test.name, *eval_trace, indirect, index_bits, global_length,
        tuned_length, assignment, true);
    if (auto *store = context.store())
        store->insert(key, store::encodeComparisonRow(row));
    return row;
}

} // namespace sim
} // namespace vlp
