/**
 * @file
 * Hardware-selected variable length path prediction — the paper's
 * Section 3.4 alternative to profiling: "storage structures are added
 * to the branch predictor that record how accurately the hash
 * functions have predicted each past branch... the hardware uses the
 * information to dynamically select the hash function that has
 * provided the highest accuracy in the past."
 *
 * The paper only evaluates the profiled selector; this implementation
 * lets the repository measure the trade the paper describes
 * qualitatively: dynamic selection needs no ISA or profiling support
 * but spends die area on score tables and trains more slowly.
 *
 * Organization: a per-branch-set score table (indexed by low PC bits)
 * holds one 4-bit saturating score per candidate hash function.
 * Predictions use the candidate with the highest score; at update,
 * every candidate's would-be prediction is scored against the outcome
 * and every candidate's predictor-table entry is trained. The table
 * entry itself is the PathPredictor's policy (core/path_predictor.h),
 * so one implementation serves both branch classes.
 */

#ifndef VLPSIM_CORE_DYNAMIC_PATH_H
#define VLPSIM_CORE_DYNAMIC_PATH_H

#include <type_traits>
#include <vector>

#include "core/path_history.h"
#include "core/path_predictor.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/packed_counter_table.h"

namespace vlp {
namespace core {

/** VLP with hardware (score-table) length selection over @p Table. */
template <typename Table>
class DynamicPathPredictor final : public Table::Interface
{
  public:
    using Prediction = typename Table::Prediction;

    /** Score-table index width when none is given: 10 bits for
     *  conditional branches, 8 for the far fewer indirect ones. */
    static constexpr unsigned defaultScoreIndexBits =
        std::is_same_v<Table, DirectionTable> ? 10 : 8;

    /**
     * @param index_bits       log2 of the predictor-table size
     * @param candidates       hash function numbers the hardware
     *        implements and scores (default {1,2,4,8,16,32}, the
     *        subset Section 3.1 suggests)
     * @param score_index_bits log2 of the score-table size
     */
    explicit DynamicPathPredictor(
        unsigned index_bits,
        std::vector<unsigned> candidates = {1, 2, 4, 8, 16, 32},
        unsigned score_index_bits = defaultScoreIndexBits)
        : bank_(index_bits),
          candidates_(std::move(candidates)),
          scoreIndexBits_(score_index_bits),
          table_(std::size_t{1} << index_bits),
          scores_((std::size_t{1} << score_index_bits)
                      * candidates_.size(),
                  scoreBits)
    {
        if (candidates_.empty())
            util::fatal("dynamic path predictor needs candidates");
        for (unsigned length : candidates_) {
            if (length < 1 || length > bank_.depth())
                util::fatal("candidate hash number out of range");
        }
    }

    Prediction
    predict(const trace::BranchRecord &branch) override
    {
        const unsigned length =
            candidates_[selectedCandidate(branch.pc)];
        return table_.predict(bank_.index(length), branch);
    }

    void
    update(const trace::BranchRecord &branch) override
    {
        const std::size_t base = scoreIndex(branch.pc);
        const std::size_t selected = selectedCandidate(branch.pc);
        const bool selected_correct = Table::hit(
            table_.predict(bank_.index(candidates_[selected]), branch),
            branch);

        // Tournament scoring (the §3.4 accuracy-recording
        // structures): a challenger's score moves only when its
        // correctness *differs* from the selected candidate's, so
        // branches every length handles don't saturate all scores
        // into indistinguishable ties. Every candidate's table entry
        // keeps training — otherwise its score could never reveal it.
        // This is the hardware trade the paper describes: no
        // profiling or ISA support, but extra table pressure and
        // score storage.
        for (std::size_t c = 0; c < candidates_.size(); ++c) {
            const std::size_t entry = bank_.index(candidates_[c]);
            const bool correct =
                Table::hit(table_.predict(entry, branch), branch);
            if (correct != selected_correct)
                scores_.update(base + c, correct);
            table_.train(entry, branch);
        }
    }

    void
    observe(const trace::BranchRecord &record) override
    {
        bank_.observe(record);
    }

    std::string
    name() const override
    {
        return "dynamic variable length path";
    }

    /** The predictor table plus the score storage, so comparisons
     *  against profiled VLP at equal table budgets stay honest. */
    std::size_t
    sizeBytes() const override
    {
        return table_.sizeBytes() + scores_.sizeBytes();
    }

    /** Selected candidate index for @p pc (for tests). */
    std::size_t
    selectedCandidate(std::uint64_t pc) const
    {
        const std::size_t base = scoreIndex(pc);
        std::size_t best = 0;
        for (std::size_t c = 1; c < candidates_.size(); ++c) {
            if (scores_.value(base + c) > scores_.value(base + best))
                best = c;
        }
        return best;
    }

    /** Candidate hash function numbers. */
    const std::vector<unsigned> &candidates() const
    {
        return candidates_;
    }

  private:
    /** Width of each candidate's accuracy score. */
    static constexpr unsigned scoreBits = 4;

    std::size_t
    scoreIndex(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(
                   util::truncate(pc >> 2, scoreIndexBits_))
             * candidates_.size();
    }

    PathIndexBank bank_;
    std::vector<unsigned> candidates_;
    unsigned scoreIndexBits_;
    Table table_;
    /** scores_[slot * candidates + c]: accuracy score of candidate
     *  c for branch set slot. */
    util::PackedCounterTable scores_;
};

/** Conditional VLP with hardware length selection. */
using DynamicPathConditionalPredictor =
    DynamicPathPredictor<DirectionTable>;

/** Indirect VLP with hardware length selection. */
using DynamicPathIndirectPredictor = DynamicPathPredictor<TargetTable>;

} // namespace core
} // namespace vlp

#endif // VLPSIM_CORE_DYNAMIC_PATH_H
