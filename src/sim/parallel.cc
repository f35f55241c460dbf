/**
 * @file
 * Parallel experiment engine implementation.
 */

#include "sim/parallel.h"

#include <algorithm>
#include <exception>
#include <mutex>

#include "core/profiler.h"
#include "predictors/budget.h"

namespace vlp {
namespace sim {

ParallelRunner::ParallelRunner(unsigned jobs)
{
    jobs_ = jobs == 0 ? util::ThreadPool::defaultThreadCount() : jobs;
    contexts_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        contexts_.push_back(std::make_unique<ExperimentContext>());
    if (jobs_ > 1)
        pool_ = std::make_unique<util::ThreadPool>(jobs_);
}

void
ParallelRunner::forEach(std::size_t count,
                        const std::function<void(ExperimentContext &,
                                                 std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (jobs_ == 1 || count == 1) {
        // Exact serial path: no pool, no cross-thread hand-off.
        for (std::size_t index = 0; index < count; ++index)
            fn(*contexts_.front(), index);
        return;
    }

    std::exception_ptr failure;
    std::mutex failure_mutex;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, count));
    for (unsigned worker = 0; worker < workers; ++worker) {
        pool_->submit([&, worker] {
            try {
                // Static sharding: worker w owns items w, w + jobs,
                // ... so a repeated map over the same list reuses this
                // worker's context caches, and the work split never
                // depends on scheduling.
                for (std::size_t index = worker; index < count;
                     index += jobs_) {
                    fn(*contexts_[worker], index);
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(failure_mutex);
                if (!failure)
                    failure = std::current_exception();
            }
        });
    }
    pool_->wait();
    if (failure)
        std::rethrow_exception(failure);
}

std::vector<ComparisonRow>
ParallelRunner::compareSuite(
        const std::vector<workload::BenchmarkSpec> &specs,
        std::size_t bytes, unsigned global_length, bool indirect,
        bool include_tuned)
{
    auto rows = map<ComparisonRow>(
        specs.size(), [&](ExperimentContext &context, std::size_t i) {
            return compare(context, specs[i], bytes, global_length,
                           indirect, include_tuned);
        });
    for (const ComparisonRow &row : rows) {
        for (const RateEntry &entry : row.entries)
            addPredictions(entry.branches);
    }
    return rows;
}

const core::SuiteAverage &
ParallelRunner::suiteAverage(std::size_t bytes, bool indirect)
{
    const auto key = std::make_pair(bytes, indirect);
    auto it = averages_.find(key);
    if (it != averages_.end())
        return it->second;

    const unsigned index_bits = indirect
        ? pred::indirectIndexBits(bytes)
        : pred::conditionalIndexBits(bytes);
    const auto &suite = workload::benchmarkSuite();
    const auto sweeps = map<core::FixedLengthSweep>(
        suite.size(), [&](ExperimentContext &context, std::size_t i) {
            return context.sweep(suite[i], index_bits, indirect);
        });
    // Step 1 drives all maxPathLength fixed-length predictors at once.
    for (const core::FixedLengthSweep &sweep : sweeps)
        addPredictions(sweep.branches * core::maxPathLength);
    return averages_.emplace(key, core::averageSweeps(sweeps, indirect))
        .first->second;
}

} // namespace sim
} // namespace vlp
