/**
 * @file
 * Simulator implementation.
 */

#include "sim/simulator.h"

#include <cassert>

#include "util/stats.h"

namespace vlp {
namespace sim {

double
PredictorResult::rate() const
{
    return util::percent(mispredictions, branches);
}

namespace {

/**
 * Predict, count and train @p record on every predictor of one branch
 * class; a prediction other than @p actual (the direction or the
 * target) is a miss.
 */
template <typename Predictor, typename Slot, typename Outcome>
void
predictAll(const std::vector<Predictor *> &predictors,
           std::vector<Slot> &slots, const trace::BranchRecord &record,
           Outcome actual, bool track_per_branch)
{
    for (std::size_t i = 0; i < predictors.size(); ++i) {
        Slot &slot = slots[i];
        const bool miss = predictors[i]->predict(record) != actual;
        ++slot.branches;
        slot.mispredictions += miss ? 1 : 0;
        if (track_per_branch) {
            BranchAccuracy &accuracy = slot.perBranch[record.pc];
            ++accuracy.executions;
            accuracy.mispredictions += miss ? 1 : 0;
        }
        predictors[i]->update(record);
    }
}

/** One branch class's results, in registration order. */
template <typename Predictor, typename Slot>
std::vector<PredictorResult>
resultsOf(const std::vector<Predictor *> &predictors,
          const std::vector<Slot> &slots)
{
    std::vector<PredictorResult> results;
    for (std::size_t i = 0; i < predictors.size(); ++i) {
        PredictorResult result;
        result.name = predictors[i]->name();
        result.sizeBytes = predictors[i]->sizeBytes();
        result.branches = slots[i].branches;
        result.mispredictions = slots[i].mispredictions;
        results.push_back(std::move(result));
    }
    return results;
}

} // anonymous namespace

void
Simulator::addConditional(pred::ConditionalPredictor *predictor)
{
    assert(predictor != nullptr);
    conditional_.push_back(predictor);
    conditionalSlots_.emplace_back();
}

void
Simulator::addIndirect(pred::IndirectPredictor *predictor)
{
    assert(predictor != nullptr);
    indirect_.push_back(predictor);
    indirectSlots_.emplace_back();
}

void
Simulator::run(trace::TraceSource &source)
{
    trace::forEachRecord(source, [this](const trace::BranchRecord &record) {
        if (record.isConditional()) {
            predictAll(conditional_, conditionalSlots_, record,
                       record.taken, trackPerBranch_);
        } else if (record.isIndirect()) {
            predictAll(indirect_, indirectSlots_, record, record.nextPc,
                       trackPerBranch_);
        } else if (record.isReturn()) {
            ++returns_;
            if (ras_.predictAndPop() != record.nextPc)
                ++returnMisses_;
        }

        if (record.isCall())
            ras_.push(record.pc + trace::instructionBytes);

        for (pred::ConditionalPredictor *predictor : conditional_)
            predictor->observe(record);
        for (pred::IndirectPredictor *predictor : indirect_)
            predictor->observe(record);
    });
}

std::vector<PredictorResult>
Simulator::conditionalResults() const
{
    return resultsOf(conditional_, conditionalSlots_);
}

std::vector<PredictorResult>
Simulator::indirectResults() const
{
    return resultsOf(indirect_, indirectSlots_);
}

PredictorResult
Simulator::rasResult() const
{
    PredictorResult result;
    result.name = "return address stack";
    result.sizeBytes = ras_.sizeBytes();
    result.branches = returns_;
    result.mispredictions = returnMisses_;
    return result;
}

const std::unordered_map<std::uint64_t, BranchAccuracy> &
Simulator::conditionalPerBranch(std::size_t index) const
{
    assert(index < conditionalSlots_.size());
    return conditionalSlots_[index].perBranch;
}

} // namespace sim
} // namespace vlp
