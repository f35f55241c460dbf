/**
 * @file
 * Densely packed n-bit saturating-counter tables.
 *
 * The paper's conditional predictor tables are arrays of 2-bit
 * saturating counters, but simulating one counter per
 * util::SaturatingCounter object costs ~12 bytes of randomly-accessed
 * state per entry — a 14-bit table balloons from its architectural
 * 4 KiB to ~192 KiB, and the 32 private step-1 tables to ~6 MB, far
 * past L2. PackedCounterTable stores the counters at (near) their
 * hardware density inside std::uint64_t words, so the same 14-bit
 * 2-bit-counter table occupies exactly 4 KiB and the whole step-1 bank
 * fits in 128 KiB.
 *
 * Semantics are bit-identical to util::SaturatingCounter: counters
 * saturate at 0 and 2^bits - 1, predict taken at or above the midpoint
 * 2^(bits - 1), and initialize to the weakly not-taken state unless an
 * explicit initial value is given (test_util property-checks the two
 * against each other across widths).
 *
 * Layout: each counter lives in a slot of bits rounded up to the next
 * power of two (1, 2, 4, or 8 bits), so a slot never straddles a word
 * and indexing is shift/mask only. For the 2-bit counters used
 * throughout the paper the slots are exactly dense. sizeBytes()
 * reports the architectural footprint (size * bits / 8) — the number
 * the paper's hardware budgets are accounted in — independent of any
 * slot padding.
 */

#ifndef VLPSIM_UTIL_PACKED_COUNTER_TABLE_H
#define VLPSIM_UTIL_PACKED_COUNTER_TABLE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vlp {
namespace util {

/** A fixed-size table of n-bit saturating up/down counters. */
class PackedCounterTable
{
  public:
    /**
     * @param size    number of counters
     * @param bits    counter width in bits (1..8)
     * @param initial initial value of every counter; defaults to the
     *                weakly not-taken state (midpoint - 1)
     */
    explicit PackedCounterTable(std::size_t size, unsigned bits = 2,
                                int initial = -1);

    /** Number of counters. */
    std::size_t size() const { return size_; }

    /** Counter width in bits. */
    unsigned bits() const { return bits_; }

    /** Maximum (saturated) counter value, 2^bits - 1. */
    unsigned maxValue() const { return static_cast<unsigned>(maxValue_); }

    /** Taken threshold (the midpoint 2^(bits - 1)). */
    unsigned threshold() const { return static_cast<unsigned>(threshold_); }

    /**
     * Architectural table footprint in bytes: size * bits / 8 (rounded
     * up). This is the hardware budget the paper's tables are costed
     * in, not the (possibly slot-padded) simulation footprint.
     */
    std::size_t sizeBytes() const { return (size_ * bits_ + 7) / 8; }

    /** Raw value of counter @p index. */
    unsigned
    value(std::size_t index) const
    {
        assert(index < size_);
        return static_cast<unsigned>(
            (words_[index >> slotsPerWordLog_] >> shiftFor(index))
            & maxValue_);
    }

    /** Predicted direction of counter @p index: value >= midpoint. */
    bool
    predictTaken(std::size_t index) const
    {
        return (words_[index >> slotsPerWordLog_]
                >> (shiftFor(index) + bits_ - 1))
             & 1;
    }

    /**
     * Confidence of counter @p index: distance from the decision
     * boundary (0 = weak), as SaturatingCounter::confidence().
     */
    unsigned
    confidence(std::size_t index) const
    {
        const std::uint64_t field = value(index);
        return static_cast<unsigned>(field >= threshold_
                                         ? field - threshold_
                                         : threshold_ - 1 - field);
    }

    /** Update counter @p index toward @p taken, saturating. */
    void
    update(std::size_t index, bool taken)
    {
        assert(index < size_);
        std::uint64_t &word = words_[index >> slotsPerWordLog_];
        const unsigned shift = shiftFor(index);
        const std::uint64_t field = (word >> shift) & maxValue_;
        const std::uint64_t next = taken
            ? field + (field < maxValue_ ? 1 : 0)
            : field - (field > 0 ? 1 : 0);
        word ^= (field ^ next) << shift;
    }

    /** Increment counter @p index, saturating at the maximum. */
    void increment(std::size_t index) { update(index, true); }

    /** Decrement counter @p index, saturating at zero. */
    void decrement(std::size_t index) { update(index, false); }

    /** Force the raw value of counter @p index. */
    void
    set(std::size_t index, unsigned value)
    {
        assert(index < size_);
        assert(value <= maxValue_);
        std::uint64_t &word = words_[index >> slotsPerWordLog_];
        const unsigned shift = shiftFor(index);
        word = (word & ~(maxValue_ << shift))
             | (static_cast<std::uint64_t>(value) << shift);
    }

    /** Reset every counter to @p value. */
    void fill(unsigned value);

    /**
     * Raw word storage, laid out as the class comment describes
     * (power-of-two slots, low slot first). Exposed for vectorized
     * kernels that gather/scatter whole words; they must preserve the
     * same per-slot arithmetic as update().
     */
    std::uint64_t *wordData() { return words_.data(); }

  private:
    /** Bit position of slot @p index within its word. */
    unsigned
    shiftFor(std::size_t index) const
    {
        return static_cast<unsigned>(index & slotIndexMask_)
            << slotBitsLog_;
    }

    std::size_t size_;
    unsigned bits_;
    /** log2 of the (power-of-two) slot width. */
    unsigned slotBitsLog_;
    /** log2 of the slots per 64-bit word. */
    unsigned slotsPerWordLog_;
    /** Mask selecting the slot number within a word. */
    std::size_t slotIndexMask_;
    std::uint64_t maxValue_;
    std::uint64_t threshold_;
    std::vector<std::uint64_t> words_;
};

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_PACKED_COUNTER_TABLE_H
