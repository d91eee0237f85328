/**
 * @file
 * Retry-backoff tests: exponential doubling, retryBackoffCap
 * saturation with jitter, and determinism of the backoff draws
 * across sim::Random::split substreams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/trace.hh"
#include "rmb/network.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace rmb {
namespace core {
namespace {

/** Collects Backoff trace events so a test can read the schedule. */
class BackoffLog : public obs::TraceSink
{
  public:
    void
    onEvent(const obs::TraceEvent &event) override
    {
        if (event.kind == obs::EventKind::Backoff)
            events_.push_back(event);
    }

    /** Backoff delays (the event `a` payload) for @p id, in order. */
    std::vector<sim::Tick>
    delaysFor(net::MessageId id) const
    {
        std::vector<sim::Tick> out;
        for (const obs::TraceEvent &e : events_)
            if (e.message == id)
                out.push_back(e.a);
        return out;
    }

  private:
    std::vector<obs::TraceEvent> events_;
};

RmbConfig
cfg(std::uint32_t n, std::uint32_t k, std::uint64_t seed = 1)
{
    RmbConfig c;
    c.numNodes = n;
    c.numBuses = k;
    c.seed = seed;
    c.verify = VerifyLevel::Full;
    return c;
}

void
runToQuiescence(sim::Simulator &s, net::Network &net,
                sim::Tick limit = 2'000'000)
{
    while (!net.quiescent() && s.now() < limit)
        s.run(256);
}

/**
 * Pin a victim against a busy destination: a long-lived blocker holds
 * the single receive port of node 5, and the one-hop victim 4 -> 5
 * collects dest-busy Nacks until the blocker drains.  Every retry of
 * the victim emits one Backoff event.
 */
TEST(Backoff, ExponentialDoublingSaturatesAtJitteredCap)
{
    sim::Simulator s;
    RmbConfig c = cfg(8, 2, 5);
    c.retryBackoffMin = 4; // degenerate range: no jitter below cap
    c.retryBackoffMax = 4;
    c.retryBackoffCap = 64;
    RmbNetwork net(s, c);
    BackoffLog log;
    net.setTraceSink(&log);

    net.send(1, 5, 20'000); // blocker: holds dst 5's receive port
    s.runFor(200);          // let it establish and start streaming
    const auto victim = net.send(4, 5, 16);
    runToQuiescence(s, net, 500'000);
    ASSERT_EQ(net.message(victim).state, net::MessageState::Delivered);

    const std::vector<sim::Tick> delays = log.delaysFor(victim);
    // retries 0..3 double deterministically: 4, 8, 16, 32.  From
    // retry 4 on, 4 << 4 = 64 hits the cap and every further draw is
    // jittered uniform in [cap/2, cap] to avoid phase-locking.
    ASSERT_GE(delays.size(), 8u);
    EXPECT_EQ(delays[0], 4u);
    EXPECT_EQ(delays[1], 8u);
    EXPECT_EQ(delays[2], 16u);
    EXPECT_EQ(delays[3], 32u);
    for (std::size_t i = 4; i < delays.size(); ++i) {
        EXPECT_GE(delays[i], 32u) << "delay " << i;
        EXPECT_LE(delays[i], 64u) << "delay " << i;
    }
    net.auditInvariants();
}

/** One pinned-victim run; returns the victim's backoff schedule. */
std::vector<sim::Tick>
backoffScheduleForSeed(std::uint64_t seed)
{
    sim::Simulator s;
    RmbConfig c = cfg(8, 2, seed);
    c.retryBackoffMin = 2; // jittered draws: the schedule depends
    c.retryBackoffMax = 32; // on the RNG stream, not just the cap
    c.retryBackoffCap = 256;
    RmbNetwork net(s, c);
    BackoffLog log;
    net.setTraceSink(&log);
    net.send(1, 5, 20'000);
    s.runFor(200);
    const auto victim = net.send(4, 5, 16);
    runToQuiescence(s, net, 500'000);
    EXPECT_EQ(net.message(victim).state, net::MessageState::Delivered);
    std::vector<sim::Tick> delays = log.delaysFor(victim);
    EXPECT_GE(delays.size(), 4u);
    return delays;
}

TEST(Backoff, ScheduleIsDeterministicPerSplitStream)
{
    // Seeds drawn through sim::Random::split are pure functions of
    // (parent, streamId): the same stream must reproduce the same
    // backoff schedule exactly, and sibling streams must diverge.
    const std::uint64_t seed_a = sim::Random(7).split(3).next();
    const std::uint64_t seed_b = sim::Random(7).split(4).next();
    ASSERT_NE(seed_a, seed_b);
    const auto run1 = backoffScheduleForSeed(seed_a);
    const auto run2 = backoffScheduleForSeed(seed_a);
    const auto other = backoffScheduleForSeed(seed_b);
    EXPECT_EQ(run1, run2);
    EXPECT_NE(run1, other);
}

TEST(Backoff, OneLawForEveryNetwork)
{
    // The draw: uniform in [min, max], doubled per attempt, and past
    // the cap redrawn from [cap / 2, cap] - one uniformRange call
    // below the cap, two at or above it.
    sim::Random law(9);
    sim::Random ref(9);
    for (std::uint32_t attempts = 0; attempts < 20; ++attempts) {
        const sim::Tick base = ref.uniformRange(8, 32);
        const sim::Tick want = (base << std::min(attempts, 16u)) < 512
            ? base << std::min(attempts, 16u)
            : ref.uniformRange(256, 512);
        EXPECT_EQ(sim::retryBackoff(law, attempts, 8, 32, 512), want)
            << "attempt " << attempts;
    }
}

} // namespace
} // namespace core
} // namespace rmb
