/**
 * @file
 * An open-addressed map keyed by branch address, for the per-record
 * lookups of the path predictors and the profiler's step 2.
 *
 * A std::unordered_map lookup costs a 64-bit modulo by a prime and a
 * node chase; this table is one multiplicative hash and a linear probe
 * over a flat slot array. The capacity is a power of two and the load
 * stays at or below one half, so a probe always reaches an empty slot
 * and growth depends on the number of keys alone. Every pc, 0
 * included, is a legal key: each slot carries its own occupancy flag.
 */

#ifndef VLPSIM_UTIL_FLAT_PC_MAP_H
#define VLPSIM_UTIL_FLAT_PC_MAP_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vlp {
namespace util {

/** Map from a 64-bit pc to @p Value; no erase. */
template <typename Value>
class FlatPcMap
{
  public:
    /** The stored value for @p pc, or nullptr when absent. */
    const Value *
    find(std::uint64_t pc) const
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(pc);; i = (i + 1) & mask_) {
            const Slot &slot = slots_[i];
            if (!slot.used)
                return nullptr;
            if (slot.pc == pc)
                return &slot.value;
        }
    }

    /** The stored value for @p pc, or @p fallback when absent. */
    Value
    get(std::uint64_t pc, Value fallback) const
    {
        const Value *value = find(pc);
        return value == nullptr ? fallback : *value;
    }

    /** Store @p value under @p pc, replacing any earlier value. */
    void
    assign(std::uint64_t pc, Value value)
    {
        if (2 * (size_ + 1) > slots_.size())
            grow();
        std::size_t i = home(pc);
        while (slots_[i].used && slots_[i].pc != pc)
            i = (i + 1) & mask_;
        Slot &slot = slots_[i];
        size_ += !slot.used;
        slot = {pc, value, true};
    }

    /** Number of keys. */
    std::size_t size() const { return size_; }

    /** Every (pc, value) pair, ascending by pc. */
    std::vector<std::pair<std::uint64_t, Value>>
    entries() const
    {
        std::vector<std::pair<std::uint64_t, Value>> out;
        out.reserve(size_);
        for (const Slot &slot : slots_) {
            if (slot.used)
                out.emplace_back(slot.pc, slot.value);
        }
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    struct Slot
    {
        std::uint64_t pc = 0;
        Value value{};
        bool used = false;
    };

    /** Fibonacci hashing: the top log2(capacity) bits of pc * 2^64/phi
     *  (aligned pcs' zero low bits do not cluster). */
    std::size_t
    home(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(
            (pc * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    /** Double the capacity (16 slots at first) and reinsert. */
    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t capacity = old.empty() ? 16 : 2 * old.size();
        slots_.assign(capacity, Slot{});
        mask_ = capacity - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
        for (const Slot &slot : old) {
            if (!slot.used)
                continue;
            std::size_t i = home(slot.pc);
            while (slots_[i].used)
                i = (i + 1) & mask_;
            slots_[i] = slot;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    /** 64 - log2(capacity), so home() keeps the top bits. */
    unsigned shift_ = 64;
};

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_FLAT_PC_MAP_H
