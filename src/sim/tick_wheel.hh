/**
 * @file
 * TickWheel: a hashed timing wheel (Varghese & Lauck, SOSP 1987) over
 * a power-of-two span of ticks, with one FIFO list per tick.  Tick t
 * lives in list t & (span - 1); the wheel stores no ticks, so its user
 * keeps every pending tick within one span.  All lists share one slot
 * pool, so the wheel's memory is its peak number of pending entries,
 * and a bitmap of occupied lists finds the next tick a word at a time.
 * Used by sim::EventQueue's near tier and the cycle kernel's agenda.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "sim/types.hh"

namespace rmb {
namespace sim {

template <typename T>
class TickWheel
{
  public:
    static constexpr Tick kNone = kMaxTick;  //!< first(): none in range

    /** @p span: a power of two, at least 64 (one bitmap word). */
    explicit TickWheel(Tick span)
        : mask_(span - 1), lists_(span), bits_(span / 64)
    {
        rmb_assert(span >= 64 && std::has_single_bit(span),
                   "tick wheel span ", span, " is not a power of two >= 64");
    }

    Tick span() const { return mask_ + 1; }
    std::uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** @return true if tick @p t has entries. */
    bool has(Tick t) const { return bits_[word(t)] & bit(t); }

    /** Append @p value to tick @p t's list. */
    void
    push(Tick t, T value)
    {
        std::uint32_t s = free_;
        if (s == kNoSlot) {
            rmb_assert(values_.size() < kNoSlot, "tick wheel pool full");
            s = static_cast<std::uint32_t>(values_.size());
            values_.push_back(std::move(value));
            next_.push_back(kNoSlot);
        } else {
            free_ = next_[s];
            values_[s] = std::move(value);
        }
        List &l = lists_[t & mask_];
        std::uint64_t &w = bits_[word(t)];
        (w & bit(t) ? next_[l.tail] : l.head) = s;
        w |= bit(t);
        l.tail = s;
        ++size_;
    }

    /** Remove and return the front of tick @p t's non-empty list. */
    T
    pop(Tick t)
    {
        List &l = lists_[t & mask_];
        const std::uint32_t s = l.head;
        if (s == l.tail)
            bits_[word(t)] &= ~bit(t);
        else
            l.head = next_[s];
        next_[s] = free_;
        free_ = s;
        --size_;
        return std::move(values_[s]);
    }

    /** Earliest occupied tick in [@p from, @p last], looking at most
     *  one span ahead of @p from; kNone when there is none. */
    Tick
    first(Tick from, Tick last) const
    {
        if (last < from)
            return kNone;
        // Offsets from @p from, so no tick near kMaxTick overflows.
        const Tick end = std::min(last - from, mask_);
        if (mask_ < 64) {
            // One word, rotated so bit 0 is @p from: the whole span.
            const std::uint64_t w =
                std::rotr(bits_[0], static_cast<int>(from & 63));
            const Tick d = static_cast<Tick>(std::countr_zero(w));
            return d <= end ? from + d : kNone;
        }
        for (Tick d = 0; d <= end;) {
            const Tick i = (from + d) & mask_;
            if (const std::uint64_t w = bits_[i >> 6] >> (i & 63)) {
                d += static_cast<Tick>(std::countr_zero(w));
                return d <= end ? from + d : kNone;
            }
            d += 64 - (i & 63);
        }
        return kNone;
    }

  private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    std::size_t word(Tick t) const { return (t & mask_) >> 6; }
    static std::uint64_t bit(Tick t) { return std::uint64_t{1} << (t & 63); }

    /** One tick's list; meaningful only while its bit is set. */
    struct List
    {
        std::uint32_t head = 0;
        std::uint32_t tail = 0;
    };

    Tick mask_;
    std::vector<List> lists_;
    std::vector<std::uint64_t> bits_;  //!< bit i: lists_[i] non-empty
    std::vector<T> values_;            //!< the shared slot pool
    std::vector<std::uint32_t> next_;  //!< next slot in its list
    std::uint32_t free_ = kNoSlot;     //!< list of unused slots
    std::uint64_t size_ = 0;
};

} // namespace sim
} // namespace rmb
