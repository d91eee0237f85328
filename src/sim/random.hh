/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * We implement xoshiro256** (Blackman & Vigna) rather than relying on
 * std::mt19937 so simulation results are bit-identical across standard
 * library implementations.  Seeding uses SplitMix64 as recommended by
 * the xoshiro authors.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace rmb {
namespace sim {

/**
 * xoshiro256** generator with convenience distributions.  All
 * simulations in this repository draw exclusively from this class, so
 * a (seed, config) pair fully determines a run.
 */
class Random
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Raw 64 random bits. */
    std::uint64_t next();

    /** Uniform integer in [0, bound); @p bound must be non-zero. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** Bernoulli trial with success probability @p p. */
    bool bernoulli(double p);

    /**
     * Geometric inter-arrival gap (number of failures before the first
     * success) for per-tick injection probability @p p; the discrete
     * analogue of an exponential inter-arrival time.
     */
    std::uint64_t geometric(double p);

    /** Fisher-Yates shuffle of @p v. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniformInt(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for per-INC clocks). */
    Random fork();

    /**
     * Derive the @p streamId-th child generator without advancing
     * this one.  The child seed is produced by running the parent
     * state and the stream id through SplitMix64, so children for
     * distinct ids are decorrelated even when the ids are small
     * consecutive integers - use this instead of ad-hoc `seed + i`
     * offsets, which hand correlated state expansions to xoshiro.
     *
     * split() is a pure function of (parent state, streamId):
     * calling it repeatedly with the same id yields the same child,
     * and reordering split() calls cannot change any child stream.
     * That is the property the experiment engine relies on to make
     * sweep results independent of worker scheduling; fork() by
     * contrast consumes parent state and therefore depends on call
     * order.
     */
    Random split(std::uint64_t streamId) const;

  private:
    std::array<std::uint64_t, 4> s_;
};

/**
 * The jittered exponential retry backoff every retrying network
 * draws: a uniform draw from [@p min, @p max] from @p rng, shifted
 * left by @p attempts (at most 16).  A shifted value at or past
 * @p cap is redrawn from [cap / 2, cap] rather than clamped: a
 * deterministic capped backoff phase-locks colliding senders into
 * permanent livelock.
 */
Tick retryBackoff(Random &rng, std::uint32_t attempts, Tick min, Tick max,
                  Tick cap);

} // namespace sim
} // namespace rmb
