/**
 * @file
 * Tests for n-dimensional grids of RMB rings (the 3-D case the
 * paper's section 4 names explicitly, plus higher dimensions), built
 * by the ring composer: one ring per grid line, dimension-0 lines
 * first, dimension-ordered routes.
 */

#include <gtest/gtest.h>

#include "rmb/ring_graph.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

namespace rmb {
namespace core {
namespace {

RmbConfig
ringCfg(std::uint32_t k, std::uint64_t seed = 1)
{
    RmbConfig c;
    c.numBuses = k;
    c.seed = seed;
    c.verify = VerifyLevel::Full;
    return c;
}

void
runToQuiescence(sim::Simulator &s, net::Network &net,
                sim::Tick limit = 4'000'000)
{
    while (!net.quiescent() && s.now() < limit)
        s.run(256);
}

/** Ring legs launched so far, over every ring. */
std::uint64_t
legsLaunched(const RingGraph &net)
{
    std::uint64_t legs = 0;
    for (std::uint32_t r = 0; r < net.numRings(); ++r)
        legs += net.ringEngine(r).numMessages();
    return legs;
}

TEST(Grid, CoordinatesAreMixedRadix)
{
    sim::Simulator s;
    const auto net = makeGrid(s, {4, 3, 2}, ringCfg(2));
    EXPECT_EQ(net->numNodes(), 24u);
    // 6 + 8 + 12 lines along the three dimensions.
    EXPECT_EQ(net->numRings(), 26u);
    // node 23 = 3 + 4*(2 + 3*1): one leg per coordinate, each from
    // 0 to that coordinate.
    const RingLeg x = net->routeLeg(0, 23, 0);
    const RingLeg y = net->routeLeg(0, 23, 1);
    const RingLeg z = net->routeLeg(0, 23, 2);
    EXPECT_EQ(x.to, 3u);
    EXPECT_EQ(y.to, 2u);
    EXPECT_EQ(z.to, 1u);
    EXPECT_EQ(x.from + y.from + z.from, 0u);
    EXPECT_EQ(net->routeLeg(0, 23, 3).ring, RingLeg::kNone);
    // Each leg runs on a line of its own dimension.
    EXPECT_EQ(net->ringEngine(x.ring).numNodes(), 4u);
    EXPECT_EQ(net->ringEngine(y.ring).numNodes(), 3u);
    EXPECT_EQ(net->ringEngine(z.ring).numNodes(), 2u);
    // node 4 = (0, 1, 0): coordinate 2 of node 0 and of node 4 is 0,
    // so 0 -> 4 is a single dimension-1 leg.
    EXPECT_EQ(net->routeLeg(0, 4, 0).to, 1u);
    EXPECT_EQ(net->routeLeg(0, 4, 1).ring, RingLeg::kNone);
}

TEST(Grid, RingGeometry)
{
    sim::Simulator s;
    const auto net = makeGrid(s, {4, 3, 2}, ringCfg(2));
    // The dimension-d leg out of node 0 runs on the dim-d line
    // through node 0.
    EXPECT_EQ(net->ringEngine(net->routeLeg(0, 1, 0).ring).numNodes(),
              4u);
    EXPECT_EQ(net->ringEngine(net->routeLeg(0, 4, 0).ring).numNodes(),
              3u);
    EXPECT_EQ(
        net->ringEngine(net->routeLeg(0, 12, 0).ring).numNodes(), 2u);
    // Nodes in the same dim-0 line share a ring; others do not.
    EXPECT_EQ(net->routeLeg(0, 1, 0).ring, net->routeLeg(3, 1, 0).ring);
    EXPECT_NE(net->routeLeg(0, 1, 0).ring, net->routeLeg(4, 5, 0).ring);
}

TEST(Grid, ThreeDimensionalDelivery)
{
    sim::Simulator s;
    const auto net = makeGrid(s, {4, 4, 4}, ringCfg(2));
    EXPECT_EQ(net->numNodes(), 64u);
    // (0,0,0) -> (3,2,1) = 3 + 4*2 + 16*1 = 27:
    // legs of 3, 2 and 1 clockwise hops = 6 total.
    const auto id = net->send(0, 27, 16);
    runToQuiescence(s, *net);
    EXPECT_EQ(net->message(id).state, net::MessageState::Delivered);
    EXPECT_EQ(net->stats().pathLength.max(), 6.0);
    EXPECT_EQ(legsLaunched(*net), 3u);
}

TEST(Grid, SingleDimensionIsARing)
{
    sim::Simulator s;
    const auto net = makeGrid(s, {8}, ringCfg(3));
    EXPECT_EQ(net->numNodes(), 8u);
    EXPECT_EQ(net->numRings(), 1u);
    const auto id = net->send(5, 2, 16); // wraps: 5 hops
    runToQuiescence(s, *net);
    EXPECT_EQ(net->message(id).state, net::MessageState::Delivered);
    EXPECT_EQ(net->stats().pathLength.max(), 5.0);
    EXPECT_EQ(legsLaunched(*net), 1u);
}

TEST(Grid, RandomPermutations3D)
{
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        sim::Simulator s;
        const auto net = makeGrid(s, {4, 2, 2}, ringCfg(2, seed));
        sim::Random rng(seed * 29);
        const auto pairs = workload::toPairs(
            workload::randomFullTraffic(16, rng));
        const auto r = workload::runBatch(*net, pairs, 24);
        EXPECT_TRUE(r.completed) << "seed " << seed;
    }
}

TEST(Grid, HigherDimensionsCutPathLength)
{
    // 64 nodes: 1-D ring vs 2-D 8x8 vs 3-D 4x4x4 mean hop counts
    // must strictly decrease.
    sim::Random rng(7);
    const auto pairs =
        workload::toPairs(workload::randomFullTraffic(64, rng));
    double mean_hops[3] = {0, 0, 0};
    int which = 0;
    for (const std::vector<std::uint32_t> &dims :
         {std::vector<std::uint32_t>{64},
          std::vector<std::uint32_t>{8, 8},
          std::vector<std::uint32_t>{4, 4, 4}}) {
        sim::Simulator s;
        RmbConfig cfg = ringCfg(4);
        cfg.verify = VerifyLevel::Off;
        const auto net = makeGrid(s, dims, cfg);
        const auto r = workload::runBatch(*net, pairs, 16,
                                          20'000'000);
        ASSERT_TRUE(r.completed);
        mean_hops[which++] = net->stats().pathLength.mean();
    }
    EXPECT_GT(mean_hops[0], mean_hops[1]);
    EXPECT_GT(mean_hops[1], mean_hops[2]);
}

TEST(Grid, CompactionActiveInEveryDimension)
{
    sim::Simulator s;
    const auto net = makeGrid(s, {4, 2, 2}, ringCfg(3));
    for (net::NodeId i = 0; i < 16; ++i)
        net->send(i, (i + 7) % 16, 300);
    runToQuiescence(s, *net);
    EXPECT_TRUE(net->quiescent());
    EXPECT_GT(net->rmbStats().compactionMoves.value(), 0u);
}

TEST(GridDeathTest, Validation)
{
    sim::Simulator s;
    EXPECT_EXIT(makeGrid(s, {}, ringCfg(2)),
                ::testing::ExitedWithCode(1), "dimension");
    EXPECT_EXIT(makeGrid(s, {4, 1}, ringCfg(2)),
                ::testing::ExitedWithCode(1), ">= 2");
}

} // namespace
} // namespace core
} // namespace rmb
