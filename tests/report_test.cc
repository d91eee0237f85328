/**
 * @file
 * Tests for the report module (the stats block + utilization
 * heatmap).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/multibus.hh"
#include "obs/json.hh"
#include "obs/json_value.hh"
#include "report/report.hh"
#include "rmb/network.hh"
#include "sim/simulator.hh"

namespace rmb {
namespace report {
namespace {

/** A settled 8-node, 2-bus ring that carried one message. */
struct OneMessage
{
    sim::Simulator s;
    core::RmbNetwork net{s, [] {
        core::RmbConfig cfg;
        cfg.numNodes = 8;
        cfg.numBuses = 2;
        return cfg;
    }()};

    OneMessage()
    {
        net.send(0, 4, 16);
        while (!net.quiescent())
            s.run(256);
    }
};

obs::JsonValue
parsed(const std::string &json)
{
    obs::JsonValue doc;
    std::string error;
    EXPECT_TRUE(obs::jsonParse(json, doc, error)) << error;
    return doc;
}

std::vector<std::string>
memberNames(const obs::JsonValue &object)
{
    std::vector<std::string> names;
    for (const auto &[name, value] : object.members())
        names.push_back(name);
    return names;
}

/** A metric or member name reduced to its words: "net." / "rmb."
 *  prefix, dots, underscores and case dropped, so
 *  "rmb.compaction.moves" and "compactionMoves" compare equal. */
std::string
bareName(std::string name)
{
    for (const char *prefix : {"net.", "rmb."}) {
        if (name.rfind(prefix, 0) == 0)
            name = name.substr(4);
    }
    std::string bare;
    for (const char c : name) {
        if (c != '.' && c != '_')
            bare += static_cast<char>(std::tolower(c));
    }
    return bare;
}

TEST(Report, StatsCarryWhatTheSnapshotLacks)
{
    OneMessage run;
    const obs::JsonValue stats =
        parsed(statsToJson(run.net, run.s.now()));
    EXPECT_EQ(memberNames(stats),
              (std::vector<std::string>{"network", "rmb"}));
    EXPECT_EQ(stats.find("network")->string(), "RMB(ring)");
    const obs::JsonValue &rmb = *stats.find("rmb");
    EXPECT_EQ(memberNames(rmb),
              (std::vector<std::string>{"buses",
                                        "avgSegmentUtilization",
                                        "faultySegments"}));
    EXPECT_EQ(rmb.find("buses")->number(), 2.0);
    EXPECT_GT(rmb.find("avgSegmentUtilization")->number(), 0.0);
    EXPECT_EQ(rmb.find("faultySegments")->number(), 0.0);
}

TEST(Report, StatsRepeatNoSnapshotFact)
{
    OneMessage run;
    const obs::JsonValue stats =
        parsed(statsToJson(run.net, run.s.now()));
    const obs::JsonValue snapshot =
        parsed(run.net.metrics().snapshot(run.s.now()));
    std::vector<std::string> facts;
    for (const auto &[shape, metrics] : snapshot.members()) {
        for (const auto &[name, value] : metrics.members())
            facts.push_back(bareName(name));
    }
    ASSERT_FALSE(facts.empty());
    std::vector<std::string> members = memberNames(stats);
    for (const std::string &name : memberNames(*stats.find("rmb")))
        members.push_back(name);
    for (const std::string &member : members) {
        EXPECT_EQ(std::count(facts.begin(), facts.end(),
                             bareName(member)),
                  0)
            << "stats member '" << member
            << "' repeats a metrics snapshot fact";
    }
}

TEST(Report, EmptyStatsEmitNullNotNan)
{
    sim::Simulator s;
    core::RmbConfig cfg;
    cfg.numNodes = 8;
    cfg.numBuses = 2;
    core::RmbNetwork net(s, cfg);
    const std::string json = statsToJson(net, s.now());
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_TRUE(obs::jsonValid(json)) << json;
}

TEST(Report, BaselineNetworksHaveNoRmbSection)
{
    sim::Simulator s;
    baseline::CircuitConfig cfg;
    baseline::MultiBusNetwork net(s, 8, 2, cfg);
    EXPECT_EQ(statsToJson(net, s.now()),
              "{\"network\":\"MultiBus\"}");
}

TEST(Report, HeatmapShowsFaultsAndLoad)
{
    sim::Simulator s;
    core::RmbConfig cfg;
    cfg.numNodes = 8;
    cfg.numBuses = 3;
    core::RmbNetwork net(s, cfg);
    net.failSegment(2, 1);
    net.send(0, 4, 4000);
    s.runFor(3000);
    std::ostringstream oss;
    utilizationHeatmap(oss, net, s.now());
    const std::string out = oss.str();
    // One row per level, top marked.
    EXPECT_NE(out.find("L2 (top)|"), std::string::npos);
    EXPECT_NE(out.find("L0      |"), std::string::npos);
    // The faulted cell renders as X.
    EXPECT_NE(out.find('X'), std::string::npos);
    // Some cell shows heavy utilization.
    EXPECT_TRUE(out.find('@') != std::string::npos ||
                out.find('%') != std::string::npos ||
                out.find('#') != std::string::npos);
    while (!net.quiescent())
        s.run(1024);
}

} // namespace
} // namespace report
} // namespace rmb
