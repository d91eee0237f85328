#include "sim/random.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace rmb {
namespace sim {

namespace {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Random::Random(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

std::uint64_t
Random::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Random::uniformInt(std::uint64_t bound)
{
    rmb_assert(bound != 0, "uniformInt(0)");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % bound;
}

std::uint64_t
Random::uniformRange(std::uint64_t lo, std::uint64_t hi)
{
    rmb_assert(lo <= hi, "uniformRange(", lo, ",", hi, ")");
    return lo + uniformInt(hi - lo + 1);
}

double
Random::uniformReal()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Random::bernoulli(double p)
{
    return uniformReal() < p;
}

std::uint64_t
Random::geometric(double p)
{
    rmb_assert(p > 0.0 && p <= 1.0, "geometric(p=", p, ")");
    if (p >= 1.0)
        return 0;
    double u = uniformReal();
    // Avoid log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return static_cast<std::uint64_t>(
        std::floor(std::log(u) / std::log1p(-p)));
}

Random
Random::fork()
{
    return Random(next());
}

Random
Random::split(std::uint64_t streamId) const
{
    // Fold the full parent state into one word (rotations keep the
    // four lanes from cancelling), offset by the stream id scaled
    // with the golden-ratio constant, then scramble twice with
    // SplitMix64.  The child constructor expands the result again,
    // so even adjacent ids land in unrelated xoshiro states.
    std::uint64_t sm = s_[0] ^ rotl(s_[1], 17) ^ rotl(s_[2], 31) ^
                       rotl(s_[3], 47);
    sm += (streamId + 1) * 0x9e3779b97f4a7c15ull;
    const std::uint64_t a = splitMix64(sm);
    const std::uint64_t b = splitMix64(sm);
    return Random(a ^ rotl(b, 32));
}

Tick
retryBackoff(Random &rng, std::uint32_t attempts, Tick min, Tick max,
             Tick cap)
{
    const Tick backoff = rng.uniformRange(min, max);
    const std::uint32_t shift = std::min(attempts, 16u);
    if ((backoff << shift) < cap)
        return backoff << shift;
    return rng.uniformRange(cap / 2, cap);
}

} // namespace sim
} // namespace rmb
