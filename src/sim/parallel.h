/**
 * @file
 * Parallel experiment engine.
 *
 * The paper's methodology — profile every benchmark, then evaluate a
 * grid of benchmark x predictor x table-budget points — is
 * embarrassingly parallel across benchmarks. ParallelRunner shards
 * that grid at benchmark granularity over a fixed thread pool
 * (util::ThreadPool), gives every worker its own private
 * ExperimentContext (so the trace and profiler caches need no locks),
 * and merges results in deterministic benchmark order.
 *
 * Determinism contract: trace generation, profiling, and simulation
 * are all pure functions of the benchmark spec (the xoshiro RNG is
 * seeded per benchmark, never from global state), and reductions
 * accumulate in suite order on the controlling thread. Output is
 * therefore bit-identical for any --jobs value; --jobs 1 additionally
 * bypasses the pool and runs the exact serial code path.
 */

#ifndef VLPSIM_SIM_PARALLEL_H
#define VLPSIM_SIM_PARALLEL_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/experiment.h"
#include "util/thread_pool.h"
#include "workload/benchmarks.h"

namespace vlp {
namespace sim {

/**
 * Shards experiment work across worker threads, each owning a private
 * ExperimentContext, and reduces results in deterministic order.
 *
 * Sharding is static: item i of a map() always runs in worker
 * i % jobs(), and each worker processes its items in increasing index
 * order on its own context. Repeating a map over the same item list
 * therefore hits the same worker's caches (step-1 profiles computed
 * for the suite-average sweep are reused by the per-benchmark
 * comparisons), and results never depend on thread scheduling.
 */
class ParallelRunner
{
  public:
    /**
     * @param jobs worker count; 0 means "one per hardware thread".
     *             jobs == 1 runs everything inline on the calling
     *             thread with no pool — the exact serial path.
     */
    explicit ParallelRunner(unsigned jobs = 0);

    ParallelRunner(const ParallelRunner &) = delete;
    ParallelRunner &operator=(const ParallelRunner &) = delete;

    /** Effective worker count (never 0). */
    unsigned jobs() const { return jobs_; }

    /**
     * Worker 0's context, for callers that mix parallel sweeps with
     * ad-hoc serial queries (e.g. a per-benchmark tuned length).
     */
    ExperimentContext &context() { return *contexts_.front(); }

    /**
     * Attach one artifact store to every worker context (the store is
     * internally synchronized; pass nullptr to detach). Call before
     * submitting work.
     */
    void setStore(std::shared_ptr<store::ArtifactStore> store)
    {
        for (auto &context : contexts_)
            context->setStore(store);
    }

    /**
     * Attach a cooperative cancellation token to every worker context
     * (pass nullptr to detach). Once the token fires, each worker
     * unwinds with util::CancelledError at its next step boundary and
     * the map()/compare call rethrows it on the controlling thread.
     */
    void setCancelToken(std::shared_ptr<const util::CancelToken> token)
    {
        for (auto &context : contexts_)
            context->setCancelToken(token);
    }

    /**
     * Run fn(context, i) for i in [0, count): item i runs in worker
     * i % jobs(). fn must only touch the context it is handed plus
     * its own locals (and item i's slot of any shared output);
     * exceptions thrown by fn are rethrown (first one wins) on the
     * calling thread after all workers finish. Must not be called
     * from inside fn — a nested call would wait on its own pool.
     */
    void forEach(std::size_t count,
                 const std::function<void(ExperimentContext &,
                                          std::size_t)> &fn);

    /** forEach() collecting fn's results in index order. */
    template <typename T>
    std::vector<T> map(std::size_t count,
                       const std::function<T(ExperimentContext &,
                                             std::size_t)> &fn)
    {
        std::vector<T> results(count);
        forEach(count, [&](ExperimentContext &context,
                           std::size_t index) {
            results[index] = fn(context, index);
        });
        return results;
    }

    /**
     * compare() for each of @p specs (suite order in, suite order
     * out), sharded across workers.
     */
    std::vector<ComparisonRow>
    compareSuite(const std::vector<workload::BenchmarkSpec> &specs,
                 std::size_t bytes, unsigned global_length, bool indirect,
                 bool include_tuned = false);

    /**
     * Average step-1 misprediction rate per path length over the whole
     * suite at a table of @p bytes (profile inputs) — the curve whose
     * minimum defines the paper's global fixed length (Table 2; see
     * core::averageSweeps()). The per-benchmark sweeps run in
     * parallel; the accumulation runs in suite order on the calling
     * thread, so the result is bit-identical for any jobs value.
     * @return rates[L-1] in percent for L = 1..32
     */
    std::vector<double> averageSweep(std::size_t bytes, bool indirect)
    {
        return suiteAverage(bytes, indirect).rates;
    }

    /** The global fixed path length for conditional predictors. */
    unsigned globalConditionalLength(std::size_t bytes)
    {
        return suiteAverage(bytes, false).length;
    }

    /** The global fixed path length for indirect predictors (0 when
     *  no benchmark runs enough indirect branches). */
    unsigned globalIndirectLength(std::size_t bytes)
    {
        return suiteAverage(bytes, true).length;
    }

    /**
     * Dynamic predictions issued through this runner so far (one per
     * predictor per branch), for throughput reporting. map() callers
     * can contribute their own counts with addPredictions().
     */
    std::uint64_t predictions() const
    {
        return predictions_.load(std::memory_order_relaxed);
    }

    /** Thread-safe: add @p count predictions to the running total. */
    void addPredictions(std::uint64_t count)
    {
        predictions_.fetch_add(count, std::memory_order_relaxed);
    }

  private:
    /** The suite average at @p bytes, computed once. */
    const core::SuiteAverage &suiteAverage(std::size_t bytes,
                                           bool indirect);

    unsigned jobs_;
    std::unique_ptr<util::ThreadPool> pool_; // null when jobs_ == 1
    std::vector<std::unique_ptr<ExperimentContext>> contexts_;
    std::map<std::pair<std::size_t, bool>, core::SuiteAverage> averages_;
    std::atomic<std::uint64_t> predictions_{0};
};

} // namespace sim
} // namespace vlp

#endif // VLPSIM_SIM_PARALLEL_H
