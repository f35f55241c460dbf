/**
 * @file
 * Abstract branch-trace sources and the in-memory trace.
 *
 * Simulators and profilers consume traces through the TraceSource
 * interface so that a synthetic workload, an in-memory vector, or a
 * trace file on disk are interchangeable.
 */

#ifndef VLPSIM_TRACE_TRACE_SOURCE_H
#define VLPSIM_TRACE_TRACE_SOURCE_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "trace/branch_record.h"

namespace vlp {
namespace trace {

/**
 * A resettable, forward-only stream of branch records.
 *
 * The profiling pipeline replays the same trace many times (once per
 * candidate fixed-length predictor, then once per selection iteration),
 * so every source must support reset().
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Fetch the next record.
     * @param record filled in on success
     * @retval true a record was produced
     * @retval false the trace is exhausted
     */
    virtual bool next(BranchRecord &record) = 0;

    /** Rewind to the beginning of the trace. */
    virtual void reset() = 0;

    /**
     * The whole trace as one contiguous span of records, when the
     * source holds it in memory or can build such a copy (a
     * StreamingTraceReader decodes its file once to do so); nullopt
     * means the trace is replayed through next().
     */
    virtual std::optional<std::span<const BranchRecord>>
    resident()
    {
        return std::nullopt;
    }
};

/**
 * A trace held entirely in memory. This is the workhorse source: the
 * workload engine materializes its branch stream into one of these,
 * which is then replayed across all predictors and profiling passes.
 */
class VectorTraceSource : public TraceSource
{
  public:
    VectorTraceSource() = default;

    /** Construct over an existing record vector (takes ownership). */
    explicit VectorTraceSource(std::vector<BranchRecord> records)
        : records_(std::move(records))
    {}

    bool
    next(BranchRecord &record) override
    {
        if (position_ >= records_.size())
            return false;
        record = records_[position_++];
        return true;
    }

    void reset() override { position_ = 0; }

    std::optional<std::span<const BranchRecord>>
    resident() override
    {
        return std::span<const BranchRecord>(records_);
    }

    /** Append a record (used while building a trace). */
    void append(const BranchRecord &record) { records_.push_back(record); }

    /** Number of records in the trace. */
    std::size_t size() const { return records_.size(); }

    /** Direct access to the underlying records. */
    const std::vector<BranchRecord> &records() const { return records_; }

    /** Mutable access (used by trace filters and tests). */
    std::vector<BranchRecord> &records() { return records_; }

  private:
    std::vector<BranchRecord> records_;
    std::size_t position_ = 0;
};

/**
 * Replay every record of @p source, first to last, through @p body:
 * straight over the resident span when the source has one, else
 * through next() after a reset(). Step 1, step 2 and the simulator
 * all replay traces this way.
 */
template <typename Body>
void
forEachRecord(TraceSource &source, Body &&body)
{
    if (const auto records = source.resident()) {
        for (const BranchRecord &record : *records)
            body(record);
        return;
    }
    source.reset();
    BranchRecord record;
    while (source.next(record))
        body(record);
}

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_TRACE_SOURCE_H
