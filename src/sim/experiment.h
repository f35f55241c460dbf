/**
 * @file
 * High-level experiment harness: everything the bench binaries need to
 * regenerate the paper's tables and figures.
 *
 * ExperimentContext caches, within one process, the expensive
 * artifacts: generated traces (a few at a time) and profiling results
 * (step-1 sweeps and step-2 assignments per benchmark/size), so a
 * bench that needs the global fixed length *and* per-benchmark VLP
 * assignments profiles each benchmark exactly once.
 */

#ifndef VLPSIM_SIM_EXPERIMENT_H
#define VLPSIM_SIM_EXPERIMENT_H

#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/path_history.h"
#include "core/profiler.h"
#include "sim/simulator.h"
#include "trace/streaming.h"
#include "util/cancel.h"
#include "workload/benchmarks.h"

namespace vlp {
namespace store {
class ArtifactStore;
class CacheKey;
} // namespace store

namespace sim {

/** One predictor's accuracy in a comparison. */
struct RateEntry
{
    std::string predictor;
    std::uint64_t branches = 0;
    std::uint64_t mispredictions = 0;
    /** Misprediction rate in percent. */
    double rate = 0.0;
};

/** All predictors' accuracies on one benchmark. */
struct ComparisonRow
{
    std::string benchmark;
    std::vector<RateEntry> entries;

    /**
     * Entry by predictor name.
     * @throws std::runtime_error if absent
     */
    const RateEntry &entry(const std::string &predictor) const;
};

/**
 * An external on-disk .vbt trace as consumed by the experiment layer.
 *
 * Identity for caching is the file's *content hash* (see
 * trace::hashTraceFile), not the synthetic generator version or
 * VLPSIM_SCALE: artifacts survive renames and moves of the trace
 * file, and a changed file can never be served stale artifacts.
 * External traces are replayed through a streaming reader. A parked
 * session decodes a trace within its resident budget once, on its
 * first replay, and serves every later replay (step 1, the step-2
 * iterations, the comparison rows) from that buffer; resetting
 * @ref session releases it. A trace over the budget streams in
 * bounded-memory chunks on every replay.
 */
struct ExternalTrace
{
    /** Display name (usually the file's basename). */
    std::string name;
    /** Path to the .vbt file. */
    std::string path;
    /** 32-hex content hash of the file (trace::hashTraceFile). */
    std::string contentHash;
    /** Records buffered per streaming chunk. */
    std::size_t chunkRecords =
        trace::StreamingTraceReader::defaultChunkRecords;
    /** How to open the file; empty = plain stdio (tests inject
     *  fault-wrapped openers here). */
    trace::FileOpener opener;
    /** Optional persistent open: a reader kept alive across replays
     *  (the suite runner's single-pass ingestion parks the open it
     *  validated and hashed here), owning the trace's replay buffer.
     *  When set, openExternal() rewinds and returns this session
     *  instead of reopening the path. */
    std::shared_ptr<trace::StreamingTraceReader> session;
};

/**
 * Process-level cache of traces and profiling artifacts.
 *
 * With an attached ArtifactStore (setStore()), profiling results are
 * additionally persisted on disk: step-1 sweeps, step-2 assignments,
 * and full comparison rows are fetched from the store when present and
 * written back after being computed, so a warm rerun skips the
 * fixed-length sweeps entirely while producing bit-identical results
 * (the serialized artifacts carry the exact integer counters).
 */
class ExperimentContext
{
  public:
    ExperimentContext() = default;

    ExperimentContext(const ExperimentContext &) = delete;
    ExperimentContext &operator=(const ExperimentContext &) = delete;

    /**
     * Attach an on-disk artifact store (shared freely across contexts
     * and threads; pass nullptr to detach).
     */
    void setStore(std::shared_ptr<store::ArtifactStore> store)
    {
        store_ = std::move(store);
    }

    /** The attached artifact store, or nullptr. */
    store::ArtifactStore *store() const { return store_.get(); }

    /**
     * Attach a cooperative cancellation token (pass nullptr to
     * detach). Expensive operations — profiling steps, comparison
     * replays — check it at their entry, so a cancelled request
     * unwinds with util::CancelledError at the next step boundary
     * without tearing caches or stored artifacts.
     */
    void setCancelToken(std::shared_ptr<const util::CancelToken> token)
    {
        cancel_ = std::move(token);
    }

    /** @throws util::CancelledError once the attached token fires */
    void throwIfCancelled() const
    {
        if (cancel_)
            cancel_->throwIfCancelled();
    }

    /**
     * The benchmark's trace on the given input, generated on first
     * use. A small LRU keeps the working set bounded; the returned
     * shared_ptr pins the trace, so it stays valid even after later
     * trace() calls evict it from the cache (callers holding a trace
     * across a nested profiling call used to read freed memory).
     */
    std::shared_ptr<trace::VectorTraceSource>
    trace(const workload::BenchmarkSpec &spec, workload::InputKind kind);

    /**
     * Step-1 sweep over the profile input of @p spec for one branch
     * class at @p index_bits, cached in this context and (with a
     * store attached) on disk.
     */
    const core::FixedLengthSweep &
    sweep(const workload::BenchmarkSpec &spec, unsigned index_bits,
          bool indirect, core::PathHistoryOptions history = {});

    /** Full two-step profiling result for one branch class, cached
     *  like sweep(). */
    const core::HashAssignment &
    assignment(const workload::BenchmarkSpec &spec, unsigned index_bits,
               bool indirect, core::PathHistoryOptions history = {});

    const core::FixedLengthSweep &
    conditionalSweep(const workload::BenchmarkSpec &spec,
                     unsigned index_bits,
                     core::PathHistoryOptions history = {})
    {
        return sweep(spec, index_bits, false, history);
    }

    const core::FixedLengthSweep &
    indirectSweep(const workload::BenchmarkSpec &spec,
                  unsigned index_bits,
                  core::PathHistoryOptions history = {})
    {
        return sweep(spec, index_bits, true, history);
    }

    const core::HashAssignment &
    conditionalAssignment(const workload::BenchmarkSpec &spec,
                          unsigned index_bits,
                          core::PathHistoryOptions history = {})
    {
        return assignment(spec, index_bits, false, history);
    }

    const core::HashAssignment &
    indirectAssignment(const workload::BenchmarkSpec &spec,
                       unsigned index_bits,
                       core::PathHistoryOptions history = {})
    {
        return assignment(spec, index_bits, true, history);
    }

    /**
     * Open an external trace for replay: the parked session rewound
     * when the trace carries one (its replay buffer, once built, is
     * reused), else a fresh reader. External traces are deliberately
     * excluded from the in-memory trace LRU. Replays of a shared
     * session must not overlap (the suite runner serializes per
     * trace by sharding).
     * @throws util::TransientError / std::runtime_error from the
     *         underlying file
     */
    std::shared_ptr<trace::TraceSource>
    openExternal(const ExternalTrace &trace) const;

    /**
     * Step-1 sweep over an external trace, cached in this context and
     * (with a store attached) on disk under the trace's content hash.
     */
    const core::FixedLengthSweep &
    externalSweep(const ExternalTrace &trace, unsigned index_bits,
                  bool indirect);

    /** Full two-step profiling result for an external trace, cached
     *  like externalSweep(). */
    const core::HashAssignment &
    externalAssignment(const ExternalTrace &trace, unsigned index_bits,
                       bool indirect);

  private:
    struct ProfilerEntry
    {
        core::Profiler profiler;
        bool step1Done = false;
        std::optional<core::HashAssignment> assignment;
    };

    /** A profile input: synthetic benchmark or external trace (defined
     *  in experiment.cc). */
    struct ProfileInput;

    ProfileInput syntheticInput(const workload::BenchmarkSpec &spec);
    ProfileInput externalInput(const ExternalTrace &trace) const;

    ProfilerEntry &profilerEntry(const ProfileInput &input,
                                 unsigned index_bits, bool indirect,
                                 core::PathHistoryOptions history);

    /**
     * Ensure step 1 has run for @p entry: restore it from the store
     * when possible, otherwise replay @p input's trace (and persist
     * the result).
     */
    void ensureStep1(ProfilerEntry &entry, const ProfileInput &input);

    /** ensureStep1() then step 2, with the same store round trip. */
    const core::HashAssignment &
    ensureAssignment(ProfilerEntry &entry, const ProfileInput &input);

    static constexpr std::size_t traceCacheCapacity = 4;

    struct TraceEntry
    {
        std::string key;
        std::shared_ptr<trace::VectorTraceSource> source;
    };

    std::list<TraceEntry> traces_;
    std::shared_ptr<const util::CancelToken> cancel_;
    std::map<std::string, ProfilerEntry> profilers_;
    std::shared_ptr<store::ArtifactStore> store_;
};

/**
 * Compare the paper's predictors for one branch class on one
 * benchmark, all with tables of @p bytes, evaluated on the test
 * input. Conditional: gshare, fixed length path (at @p
 * global_length), optionally "fixed length path (tuned)"
 * (per-benchmark best profiled length), and the variable length path
 * predictor. Indirect: the Chang-Hao-Patt path and pattern target
 * caches, then the same three path predictors.
 */
ComparisonRow compare(ExperimentContext &context,
                      const workload::BenchmarkSpec &spec,
                      std::size_t bytes, unsigned global_length,
                      bool indirect, bool include_tuned = false);

inline ComparisonRow
compareConditional(ExperimentContext &context,
                   const workload::BenchmarkSpec &spec, std::size_t bytes,
                   unsigned global_length, bool include_tuned = false)
{
    return compare(context, spec, bytes, global_length, false,
                   include_tuned);
}

inline ComparisonRow
compareIndirect(ExperimentContext &context,
                const workload::BenchmarkSpec &spec, std::size_t bytes,
                unsigned global_length, bool include_tuned = false)
{
    return compare(context, spec, bytes, global_length, true,
                   include_tuned);
}

/**
 * compare() for an external trace pair — the paper's §3
 * methodology: profile on one input, evaluate on another. All
 * profiling artifacts (step-1 sweep, tuned length, step-2 assignment)
 * come from @p profile and are cached under *its* content hash, so
 * swapping the evaluation trace reuses them; the predictors (tuned
 * one included) are then replayed over @p test. The row's cache key
 * carries both content hashes — a row evaluated on one test trace can
 * never be served for another. Self-evaluation is profile == test.
 */
ComparisonRow compareExternal(ExperimentContext &context,
                              const ExternalTrace &profile,
                              const ExternalTrace &test,
                              std::size_t bytes, unsigned global_length,
                              bool indirect);

inline ComparisonRow
compareExternalConditional(ExperimentContext &context,
                           const ExternalTrace &profile,
                           const ExternalTrace &test, std::size_t bytes,
                           unsigned global_length)
{
    return compareExternal(context, profile, test, bytes, global_length,
                           false);
}

inline ComparisonRow
compareExternalIndirect(ExperimentContext &context,
                        const ExternalTrace &profile,
                        const ExternalTrace &test, std::size_t bytes,
                        unsigned global_length)
{
    return compareExternal(context, profile, test, bytes, global_length,
                           true);
}

/** Canonical predictor display names used in comparison rows. */
namespace names {
inline constexpr const char *gshare = "gshare";
inline constexpr const char *flp = "fixed length path";
inline constexpr const char *flpTuned = "fixed length path (tuned)";
inline constexpr const char *vlp = "variable length path";
inline constexpr const char *chpPath = "path (Chang, Hao, and Patt)";
inline constexpr const char *chpPattern = "pattern (Chang, Hao, and Patt)";
} // namespace names

} // namespace sim
} // namespace vlp

#endif // VLPSIM_SIM_EXPERIMENT_H
