/**
 * @file
 * The paper's predictors: fixed length path (FLP) and variable length
 * path (VLP), for conditional and for indirect branches.
 *
 * Both share the same machinery — a PathIndexBank producing indices
 * I_1..I_N and one predictor table — and differ only in how the hash
 * function number is chosen per branch: a single global number for FLP
 * (the "default value" of Section 3.4), a profiled per-branch number
 * (a HashAssignment) for VLP.
 *
 * The two branch classes differ only in the table entry (Section 3.1
 * and the footnote in 5.2.2): a 2-bit counter for conditional
 * branches, a 32-bit target register for indirect ones. That part is
 * written once per class as a table policy (DirectionTable,
 * TargetTable) with exactly four parts — which records it predicts,
 * predict an entry, train an entry, and whether a prediction is a hit
 * — and everything else is built once over the policy: PathPredictor
 * here, DynamicPathPredictor (core/dynamic_path.h), and the step-1
 * tables and step-2 loop of the profiler (core/profiler.cc).
 */

#ifndef VLPSIM_CORE_PATH_PREDICTOR_H
#define VLPSIM_CORE_PATH_PREDICTOR_H

#include <memory>
#include <string>
#include <vector>

#include "core/hash_assignment.h"
#include "core/path_history.h"
#include "predictors/predictor.h"
#include "util/logging.h"
#include "util/packed_counter_table.h"

namespace vlp {
namespace core {

/** Conditional table policy: 2-bit saturating up/down counters. */
class DirectionTable
{
  public:
    using Interface = pred::ConditionalPredictor;
    using Prediction = bool;

    explicit DirectionTable(std::size_t entries) : counters_(entries, 2) {}

    /** The records this table predicts. */
    static bool
    covers(const trace::BranchRecord &record)
    {
        return record.isConditional();
    }

    Prediction
    predict(std::size_t entry, const trace::BranchRecord &) const
    {
        return counters_.predictTaken(entry);
    }

    void
    train(std::size_t entry, const trace::BranchRecord &record)
    {
        counters_.update(entry, record.taken);
    }

    static bool
    hit(Prediction prediction, const trace::BranchRecord &record)
    {
        return prediction == record.taken;
    }

    std::size_t size() const { return counters_.size(); }

    std::size_t sizeBytes() const { return counters_.sizeBytes(); }

    /** The packed counters (for the vectorized step-1 kernel). */
    util::PackedCounterTable &counters() { return counters_; }

  private:
    util::PackedCounterTable counters_;
};

/**
 * Indirect table policy: target registers holding the 32 low-order
 * bits of the last target written; the upper bits come from the
 * fetch address (pred::widenTarget()).
 */
class TargetTable
{
  public:
    using Interface = pred::IndirectPredictor;
    using Prediction = std::uint64_t;

    explicit TargetTable(std::size_t entries) : targets_(entries, 0) {}

    /** The records this table predicts (returns excluded). */
    static bool
    covers(const trace::BranchRecord &record)
    {
        return record.isIndirect();
    }

    Prediction
    predict(std::size_t entry, const trace::BranchRecord &record) const
    {
        return pred::widenTarget(targets_[entry], record.pc);
    }

    void
    train(std::size_t entry, const trace::BranchRecord &record)
    {
        targets_[entry] = static_cast<std::uint32_t>(record.nextPc);
    }

    static bool
    hit(Prediction prediction, const trace::BranchRecord &record)
    {
        return prediction == record.nextPc;
    }

    std::size_t size() const { return targets_.size(); }

    std::size_t
    sizeBytes() const
    {
        return targets_.size() * sizeof(std::uint32_t);
    }

  private:
    std::vector<std::uint32_t> targets_;
};

/** Path predictor history snapshot: the first-level history only. */
struct PathCheckpoint final : pred::Checkpoint
{
    PathIndexBank::HistoryCheckpoint history;
};

/**
 * Path-based predictor over table policy @p Table: the selected hash
 * index addresses one table of @p Table entries.
 */
template <typename Table>
class PathPredictor final : public Table::Interface
{
  public:
    using Prediction = typename Table::Prediction;

    /**
     * Fixed length path predictor: every branch uses @p fixed_length.
     */
    PathPredictor(unsigned index_bits, unsigned fixed_length,
                  PathHistoryOptions options = {})
        : PathPredictor(index_bits, HashAssignment(fixed_length),
                        options, false)
    {
    }

    /**
     * Variable length path predictor: per-branch lengths from
     * @p assignment (profiled), default for unassigned branches.
     */
    PathPredictor(unsigned index_bits, HashAssignment assignment,
                  PathHistoryOptions options = {})
        : PathPredictor(index_bits, std::move(assignment), options, true)
    {
    }

    Prediction
    predict(const trace::BranchRecord &branch) override
    {
        return table_.predict(tableIndex(branch.pc), branch);
    }

    void
    update(const trace::BranchRecord &branch) override
    {
        table_.train(tableIndex(branch.pc), branch);
    }

    void
    observe(const trace::BranchRecord &record) override
    {
        bank_.observe(record);
    }

    /** Snapshot of the first-level history (THB + sum rings); the
     *  table is retirement state and is never captured. */
    pred::CheckpointPtr
    checkpoint() const override
    {
        auto snapshot = std::make_unique<PathCheckpoint>();
        snapshot->history = bank_.checkpoint();
        return snapshot;
    }

    /** Rewind the first-level history. */
    void
    restore(const pred::Checkpoint &checkpoint) override
    {
        bank_.restore(
            dynamic_cast<const PathCheckpoint &>(checkpoint).history);
    }

    /**
     * Model the table as @p banks independent single-ported banks
     * (bank = low table-index bits) for the fetch-bundle front end.
     * Power of two between 1 and the table size; 0 restores the
     * unbanked (ideally multiported) default.
     */
    void
    setBanks(unsigned banks)
    {
        if (banks != 0
            && ((banks & (banks - 1)) != 0 || banks > table_.size()))
            util::fatal("predictor bank count must be 0 or a power of "
                        "two no larger than the table size");
        banks_ = banks;
    }

    unsigned bankCount() const override { return banks_; }

    unsigned
    bankOf(const trace::BranchRecord &record) const override
    {
        return banks_ == 0
            ? 0
            : static_cast<unsigned>(tableIndex(record.pc)) & (banks_ - 1);
    }

    std::string
    name() const override
    {
        return variable_ ? "variable length path" : "fixed length path";
    }

    std::size_t sizeBytes() const override { return table_.sizeBytes(); }

    /** The hash-number assignment in force. */
    const HashAssignment &assignment() const { return assignment_; }

    /** The shared first-level history (exposed for tests/profiling). */
    const PathIndexBank &bank() const { return bank_; }

    /** First-level history hardware cost (reported separately). */
    std::size_t historyBytes() const { return bank_.historyBytes(); }

  private:
    PathPredictor(unsigned index_bits, HashAssignment assignment,
                  PathHistoryOptions options, bool variable)
        : bank_(index_bits, options),
          assignment_(std::move(assignment)),
          variable_(variable),
          table_(std::size_t{1} << index_bits)
    {
    }

    std::size_t
    tableIndex(std::uint64_t pc) const
    {
        unsigned length = assignment_.lookup(pc);
        if (length > bank_.depth())
            length = bank_.depth();
        return static_cast<std::size_t>(bank_.index(length));
    }

    PathIndexBank bank_;
    HashAssignment assignment_;
    bool variable_;
    Table table_;
    unsigned banks_ = 0;
};

/** FLP/VLP for conditional branches (2-bit counter table). */
using PathConditionalPredictor = PathPredictor<DirectionTable>;

/** FLP/VLP for indirect branches (target register table). */
using PathIndirectPredictor = PathPredictor<TargetTable>;

} // namespace core
} // namespace vlp

#endif // VLPSIM_CORE_PATH_PREDICTOR_H
