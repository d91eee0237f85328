/**
 * @file
 * Unit tests for the experiment engine (src/exp): spec parsing and
 * materialisation, the thread-pool runner, deterministic sweep
 * execution, report aggregation, and the baseline regression gate.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "exp/eval.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "exp/spec.hh"
#include "obs/json.hh"
#include "obs/json_value.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "workload/permutation.hh"

namespace {

using namespace rmb;

std::string
joined(const std::vector<std::string> &errors)
{
    std::string all;
    for (const auto &e : errors)
        all += e + "\n";
    return all;
}

// ---------------------------------------------------------------
// JSON parsing
// ---------------------------------------------------------------

TEST(JsonValue, ParsesAndSerialisesCanonically)
{
    obs::JsonValue v;
    std::string error;
    ASSERT_TRUE(obs::jsonParse(
        R"({ "a" : [ 1, 2.5, true, null ], "b" : { "c" : "x\ny" } })",
        v, error))
        << error;
    ASSERT_TRUE(v.isObject());
    const auto *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    EXPECT_EQ(a->array().size(), 4u);
    EXPECT_EQ(a->array()[0].numberToken(), "1");
    EXPECT_DOUBLE_EQ(a->array()[1].number(), 2.5);
    // Canonical form: no whitespace, member order preserved.
    EXPECT_EQ(v.serialize(),
              R"({"a":[1,2.5,true,null],"b":{"c":"x\ny"}})");
}

TEST(JsonValue, Uint64RoundTripsExactly)
{
    obs::JsonValue v;
    std::string error;
    ASSERT_TRUE(
        obs::jsonParse("{\"seed\": 18446744073709551615}", v, error));
    std::uint64_t seed = 0;
    ASSERT_TRUE(v.find("seed")->asUint64(seed));
    EXPECT_EQ(seed, 18446744073709551615ull);
    EXPECT_EQ(v.serialize(), "{\"seed\":18446744073709551615}");
}

TEST(JsonValue, SyntaxErrorsNameTheOffset)
{
    obs::JsonValue v;
    std::string error;
    EXPECT_FALSE(obs::jsonParse("{\"a\": [1, }", v, error));
    EXPECT_NE(error.find("at byte"), std::string::npos) << error;
    EXPECT_FALSE(obs::jsonParse("", v, error));
    EXPECT_FALSE(obs::jsonParse("{} trailing", v, error));
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

// ---------------------------------------------------------------
// Random::split
// ---------------------------------------------------------------

TEST(RandomSplit, PureAndOrderIndependent)
{
    const sim::Random root(1234);
    // split() is const: calling it many times, in any order, yields
    // the same child for the same id.
    const std::uint64_t a_first = root.split(7).next();
    for (std::uint64_t id : {3ull, 0ull, 7ull, 7ull, 100ull})
        (void)root.split(id);
    EXPECT_EQ(root.split(7).next(), a_first);

    // Distinct ids give distinct streams (no collisions in a small
    // range, and not the trivial seed+i relationship).
    std::set<std::uint64_t> firsts;
    for (std::uint64_t id = 0; id < 256; ++id)
        firsts.insert(root.split(id).next());
    EXPECT_EQ(firsts.size(), 256u);
}

TEST(RandomSplit, NestedSplitsAreIndependent)
{
    const sim::Random root(99);
    EXPECT_NE(root.split(0).split(1).next(),
              root.split(1).split(0).next());
    EXPECT_EQ(root.split(4).split(2).next(),
              root.split(4).split(2).next());
}

// ---------------------------------------------------------------
// SweepSpec
// ---------------------------------------------------------------

const char *kSmallSpec = R"({
  "name": "small",
  "seed": 42,
  "base": { "nodes": 8, "buses": 2, "payload": 4,
            "workload": "randperm", "timeout": 2000000 },
  "axes": [
    { "field": "nodes", "values": [8, 16] },
    { "field": "buses", "values": [2, 4] }
  ]
})";

TEST(SweepSpec, CartesianMaterialisation)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(kSmallSpec, spec, errors))
        << joined(errors);
    EXPECT_EQ(spec.name(), "small");
    EXPECT_EQ(spec.masterSeed(), 42u);
    ASSERT_EQ(spec.pointCount(), 4u);

    const auto points = spec.points();
    ASSERT_EQ(points.size(), 4u);
    // Last axis varies fastest.
    EXPECT_EQ(points[0].nodes, 8u);
    EXPECT_EQ(points[0].buses, 2u);
    EXPECT_EQ(points[1].nodes, 8u);
    EXPECT_EQ(points[1].buses, 4u);
    EXPECT_EQ(points[2].nodes, 16u);
    EXPECT_EQ(points[2].buses, 2u);
    EXPECT_EQ(points[3].nodes, 16u);
    EXPECT_EQ(points[3].buses, 4u);
    // Base fields carry through; labels describe the axis choices.
    EXPECT_EQ(points[3].payload, 4u);
    EXPECT_NE(points[3].label.find("nodes=16"), std::string::npos);
    EXPECT_NE(points[3].label.find("buses=4"), std::string::npos);

    // Seeds are split per index: all distinct, and stable across
    // re-materialisation.
    std::set<std::uint64_t> seeds;
    for (const auto &p : points)
        seeds.insert(p.seed);
    EXPECT_EQ(seeds.size(), points.size());
    const auto again = spec.points();
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].seed, again[i].seed);
}

TEST(SweepSpec, ZipMode)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(R"({
      "mode": "zip",
      "axes": [
        { "field": "nodes", "values": [8, 16, 32] },
        { "field": "buses", "values": [2, 4, 8] }
      ]
    })",
                                         spec, errors))
        << joined(errors);
    ASSERT_EQ(spec.pointCount(), 3u);
    const auto points = spec.points();
    EXPECT_EQ(points[1].nodes, 16u);
    EXPECT_EQ(points[1].buses, 4u);
}

TEST(SweepSpec, ZipLengthMismatchIsActionable)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    EXPECT_FALSE(exp::SweepSpec::fromJson(R"({
      "mode": "zip",
      "axes": [
        { "field": "nodes", "values": [8, 16] },
        { "field": "buses", "values": [2] }
      ]
    })",
                                          spec, errors));
    EXPECT_NE(joined(errors).find("zip"), std::string::npos)
        << joined(errors);
}

TEST(SweepSpec, UnknownFieldListsKnownOnes)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    EXPECT_FALSE(exp::SweepSpec::fromJson(
        R"({ "base": { "bogus_field": 3 } })", spec, errors));
    const std::string all = joined(errors);
    EXPECT_NE(all.find("bogus_field"), std::string::npos) << all;
}

TEST(SweepSpec, WrongValueTypeIsActionable)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    EXPECT_FALSE(exp::SweepSpec::fromJson(
        R"({ "axes": [ { "field": "nodes",
                         "values": ["not-a-number"] } ] })",
        spec, errors));
    EXPECT_NE(joined(errors).find("nodes"), std::string::npos)
        << joined(errors);

    // Parameterised values are checked past their prefix when set()
    // runs, not left to fail late inside every point.
    const std::pair<const char *, const char *> bad[] = {
        {"workload", "rot:x"},      {"workload", "hrel:"},
        {"workload", "local:abc"},  {"workload", "hotspot:1.5"},
        {"workload", "hotspot:nan"}, {"blocking", "wait:abc"},
        {"blocking", "wait:-5"},    {"dims", "4x"},
        {"dims", "4x1x2"},          {"network", "token-ring"},
        {"workload", "hrel:4294967297"}, // past 2^32-1 per node
        {"workload", "rot:3:0"},    {"workload", "rot:3:x"},
        {"workload", "rot:3:"},     {"workload", "burst:0"},
        {"workload", "burst:x"},    {"workload", "burst:"},
        {"workload", "burst:4294967296"}, // past 2^32-1 messages
    };
    for (const auto &[field, value] : bad) {
        exp::SweepSpec bad_spec;
        std::vector<std::string> bad_errors;
        EXPECT_FALSE(exp::SweepSpec::fromJson(
            std::string(R"({ "base": { ")") + field + R"(": ")" +
                value + R"(" } })",
            bad_spec, bad_errors))
            << field << "=" << value;
        const std::string all = joined(bad_errors);
        EXPECT_NE(all.find(field), std::string::npos) << all;
        EXPECT_NE(all.find(std::string("'") + value + "'"),
                  std::string::npos)
            << all;
    }
}

TEST(SweepSpec, DuplicateAxisFieldRejected)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    EXPECT_FALSE(exp::SweepSpec::fromJson(R"({
      "axes": [
        { "field": "nodes", "values": [8] },
        { "field": "nodes", "values": [16] }
      ]
    })",
                                          spec, errors));
    EXPECT_NE(joined(errors).find("nodes"), std::string::npos);
}

TEST(SweepSpec, SyntaxErrorSurfacesParserMessage)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    EXPECT_FALSE(exp::SweepSpec::fromJson("{ not json", spec, errors));
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors[0].find("at byte"), std::string::npos)
        << errors[0];
}

TEST(SweepSpec, FaultProbabilitiesAreRangeChecked)
{
    // Out-of-range (and NaN, were JSON able to spell it) fault
    // probabilities must be rejected with the expected range, never
    // silently clamped or admitted.
    for (const char *bad : {"-0.5", "1.5", "\"high\""}) {
        exp::SweepSpec spec;
        std::vector<std::string> errors;
        EXPECT_FALSE(exp::SweepSpec::fromJson(
            std::string(R"({ "base": { "fault_permanent_prob": )") +
                bad + " } }",
            spec, errors))
            << bad;
        const std::string all = joined(errors);
        EXPECT_NE(all.find("a probability in [0, 1]"),
                  std::string::npos)
            << all;
    }
    // Same gate on the other two knobs.
    for (const char *field :
         {"fault_node_prob", "fault_bridge_prob"}) {
        exp::SweepSpec spec;
        std::vector<std::string> errors;
        EXPECT_FALSE(exp::SweepSpec::fromJson(
            std::string(R"({ "base": { ")") + field +
                R"(": -1 } })",
            spec, errors))
            << field;
        EXPECT_NE(joined(errors).find(field), std::string::npos)
            << joined(errors);
    }
}

TEST(SweepSpec, NegativeFaultTimingRejected)
{
    for (const char *field :
         {"fault_mtbf", "fault_mttr_min", "fault_mttr_max"}) {
        exp::SweepSpec spec;
        std::vector<std::string> errors;
        EXPECT_FALSE(exp::SweepSpec::fromJson(
            std::string(R"({ "base": { ")") + field +
                R"(": -200 } })",
            spec, errors))
            << field;
        EXPECT_NE(joined(errors).find("non-negative"),
                  std::string::npos)
            << joined(errors);
    }
}

TEST(SweepSpec, FaultProbabilitiesCarryIntoPoints)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(R"({
      "base": { "fault_mtbf": 400,
                "fault_permanent_prob": 0.25,
                "fault_node_prob": 0.125 },
      "axes": [ { "field": "fault_bridge_prob",
                  "values": [0, 0.5] } ]
    })",
                                         spec, errors))
        << joined(errors);
    const auto points = spec.points();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points[0].rmb.faultPermanentProb, 0.25);
    EXPECT_DOUBLE_EQ(points[0].rmb.faultNodeProb, 0.125);
    EXPECT_DOUBLE_EQ(points[0].rmb.faultBridgeProb, 0.0);
    EXPECT_DOUBLE_EQ(points[1].rmb.faultBridgeProb, 0.5);

    // Zero-valued probability knobs stay out of the canonical form,
    // so specs predating them keep their baseline digests.
    exp::SweepSpec plain;
    ASSERT_TRUE(exp::SweepSpec::fromJson(R"({ "base": {} })", plain,
                                         errors))
        << joined(errors);
    EXPECT_EQ(plain.canonicalJson().find("fault_permanent_prob"),
              std::string::npos);
}

// ---------------------------------------------------------------
// The run-recipe field table
// ---------------------------------------------------------------

exp::PointConfig
withField(const char *field, const char *json)
{
    exp::PointConfig pt;
    obs::JsonValue v;
    std::string error;
    EXPECT_TRUE(obs::jsonParse(json, v, error)) << error;
    EXPECT_EQ(pt.set(field, v), "") << field;
    return pt;
}

TEST(PointConfig, DigestCoversEveryValueKind)
{
    const std::string base = exp::PointConfig().digest("1||");
    // One row of each value kind, including the rows the canonical
    // echo omits while they hold their defaults.
    const std::pair<const char *, const char *> changes[] = {
        {"nodes", "32"},               // 32-bit count
        {"duration", "999"},           // ticks
        {"rate", "0.5"},               // rate in (0, 1]
        {"fault_node_prob", "0.25"},   // probability, echoed when set
        {"compaction", "false"},       // boolean
        {"workload", R"("rot:3")"},    // choice with a parameter
        {"dims", R"("2x2")"},          // grid extents, echoed when set
        {"timeline_period", "100"},    // ticks, echoed when set
    };
    for (const auto &[field, json] : changes)
        EXPECT_NE(withField(field, json).digest("1||"), base) << field;
    // shard_jobs is result-neutral, so it never changes the digest;
    // the caller's extra identity (seed, plan, replay) does.
    EXPECT_EQ(withField("shard_jobs", "8").digest("1||"), base);
    EXPECT_NE(exp::PointConfig().digest("2||"), base);
}

TEST(PointConfig, RmbRowsReachTheRmbConfig)
{
    // Every RMB row, set off its default, arrives in rmbConfig() -
    // also with no fault schedule and on a flat ring, where
    // validate() must see it to refuse what does not apply.
    using R = core::RmbConfig;
    using Get = double (*)(const R &);
    const std::tuple<const char *, const char *, double, Get> rows[] = {
        {"compaction", "false", 0, [](const R &c) -> double {
             return c.enableCompaction;
         }},
        {"local_rings", "8", 8,
         [](const R &c) -> double { return c.localRings; }},
        {"global_buses", "2", 2,
         [](const R &c) -> double { return c.globalBuses; }},
        {"bridge_latency", "3", 3,
         [](const R &c) -> double { return c.bridgeLatency; }},
        {"bridge_buffer", "7", 7,
         [](const R &c) -> double { return c.bridgeBuffer; }},
        {"shard_jobs", "5", 5,
         [](const R &c) -> double { return c.shardJobs; }},
        {"send_ports", "2", 2,
         [](const R &c) -> double { return c.sendPorts; }},
        {"receive_ports", "3", 3,
         [](const R &c) -> double { return c.receivePorts; }},
        {"detailed_flits", "true", 1,
         [](const R &c) -> double { return c.detailedFlits; }},
        {"fault_mtbf", "900", 900,
         [](const R &c) -> double { return c.faultMtbf; }},
        {"fault_mttr_min", "11", 11,
         [](const R &c) -> double { return c.faultMttrMin; }},
        {"fault_mttr_max", "22", 22,
         [](const R &c) -> double { return c.faultMttrMax; }},
        {"fault_permanent_prob", "0.25", 0.25,
         [](const R &c) { return c.faultPermanentProb; }},
        {"fault_node_prob", "0.5", 0.5,
         [](const R &c) { return c.faultNodeProb; }},
        {"fault_bridge_prob", "0.75", 0.75,
         [](const R &c) { return c.faultBridgeProb; }},
        {"watchdog", "1234", 1234,
         [](const R &c) -> double { return c.watchdogTimeout; }},
        {"max_retries", "9", 9,
         [](const R &c) -> double { return c.maxRetries; }},
    };
    const R defaults =
        exp::rmbConfig(exp::PointConfig(), 1, core::VerifyLevel::Off);
    for (const auto &[field, json, want, get] : rows) {
        const exp::PointConfig pt = withField(field, json);
        ASSERT_EQ(pt.topology, "flat");
        const R cfg = exp::rmbConfig(pt, 1, core::VerifyLevel::Off);
        EXPECT_NE(get(defaults), want) << field;
        EXPECT_EQ(get(cfg), want) << field;
        // The schedule, and only the schedule, arms fault recovery.
        EXPECT_EQ(cfg.transientFaults, cfg.faultMtbf > 0) << field;
    }
    EXPECT_EQ(std::size(rows), 17u);
}

TEST(PointConfig, FlagsAreDerivedFromTheTable)
{
    exp::PointConfig pt;
    std::string error;
    EXPECT_EQ(pt.applyFlag("--bridge-buffer", "7", error), 1);
    EXPECT_EQ(error, "");
    EXPECT_EQ(pt.rmb.bridgeBuffer, 7u);
    EXPECT_EQ(pt.applyFlag("--ports", "2,3", error), 1);
    EXPECT_EQ(pt.rmb.sendPorts, 2u);
    EXPECT_EQ(pt.rmb.receivePorts, 3u);
    EXPECT_EQ(pt.applyFlag("--fault-mttr", "10,20", error), 1);
    EXPECT_EQ(pt.rmb.faultMttrMin, 10u);
    EXPECT_EQ(pt.rmb.faultMttrMax, 20u);
    EXPECT_EQ(pt.applyFlag("--jobs", "3", error), 1);
    EXPECT_EQ(pt.rmb.shardJobs, 3u);
    EXPECT_EQ(pt.applyFlag("--no-compaction", nullptr, error), 0);
    EXPECT_FALSE(pt.rmb.enableCompaction);
    EXPECT_EQ(error, "");
    EXPECT_EQ(pt.applyFlag("--seed", "3", error), -1);
    EXPECT_EQ(pt.applyFlag("--ports", "2", error), 1);
    EXPECT_NE(error.find("S,R"), std::string::npos) << error;

    // Every field has a flag: without a value it is refused, never
    // mistaken for an unknown option.
    for (std::string field : exp::PointConfig::knownFields()) {
        std::replace(field.begin(), field.end(), '_', '-');
        error.clear();
        EXPECT_EQ(pt.applyFlag("--" + field, nullptr, error), 0)
            << field;
        EXPECT_FALSE(error.empty()) << field;
    }
}

TEST(PointConfig, EveryFieldIsInTheSweepDocs)
{
    std::ifstream in(RMB_SOURCE_DIR "/docs/SWEEPS.md");
    ASSERT_TRUE(in);
    std::ostringstream text;
    text << in.rdbuf();
    for (const auto &field : exp::PointConfig::knownFields())
        EXPECT_NE(text.str().find("`" + field + "`"),
                  std::string::npos)
            << field << " is missing from docs/SWEEPS.md";
}

// ---------------------------------------------------------------
// Runner
// ---------------------------------------------------------------

TEST(Runner, CoversEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 5u}) {
        const common::Runner runner(jobs);
        std::vector<std::atomic<int>> hits(100);
        runner.forEach(hits.size(),
                       [&](std::size_t i) { hits[i]++; });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(Runner, PropagatesTheFirstException)
{
    const common::Runner runner(2);
    EXPECT_THROW(runner.forEach(8,
                                [](std::size_t i) {
                                    if (i == 3)
                                        throw std::runtime_error(
                                            "boom");
                                }),
                 std::runtime_error);
}

// The hier shard executor's pattern: one Runner, thousands of calls
// back to back with only a short serial phase between them.
TEST(Runner, BackToBackCallsEachCoverEveryIndexOnce)
{
    const common::Runner runner(4);
    std::vector<int> hits(37);
    for (int call = 1; call <= 3000; ++call) {
        runner.forEach(hits.size(), [&](std::size_t i) { ++hits[i]; });
        runner.forEachBlock(hits.size(),
                            [&](std::size_t, std::size_t begin,
                                std::size_t end) {
                                for (std::size_t i = begin; i < end; ++i)
                                    ++hits[i];
                            });
        // Every index is written by one thread per call, and the call
        // returns only after all of them: plain ints stay exact.
        for (const int h : hits)
            ASSERT_EQ(h, 2 * call);
    }
}

TEST(Runner, BlocksAreContiguousAndKeepTheirThread)
{
    const common::Runner runner(3);
    const std::size_t count = 10;
    ASSERT_EQ(runner.blocks(count), 3u);
    std::vector<std::thread::id> owner(runner.blocks(count));
    for (int call = 0; call < 200; ++call) {
        std::vector<std::size_t> block_of(count, 99);
        runner.forEachBlock(count, [&](std::size_t block,
                                       std::size_t begin,
                                       std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                block_of[i] = block;
            if (call == 0)
                owner[block] = std::this_thread::get_id();
            else
                EXPECT_EQ(owner[block], std::this_thread::get_id());
        });
        // Blocks tile [0, count) in order.
        EXPECT_TRUE(std::is_sorted(block_of.begin(), block_of.end()));
        EXPECT_EQ(block_of.front(), 0u);
        EXPECT_EQ(block_of.back(), 2u);
    }
    // Block 0 is the calling thread's share.
    EXPECT_EQ(owner[0], std::this_thread::get_id());
}

TEST(Runner, RethrowsAnExceptionFromTheCallersShare)
{
    const common::Runner runner(4);
    const auto caller = std::this_thread::get_id();
    std::atomic<int> ran{0};
    EXPECT_THROW(runner.forEachBlock(
                     8,
                     [&](std::size_t block, std::size_t, std::size_t) {
                         ++ran;
                         if (block == 0) {
                             EXPECT_EQ(std::this_thread::get_id(),
                                       caller);
                             throw std::runtime_error("caller's share");
                         }
                     }),
                 std::runtime_error);
    // The other blocks still ran, and the pool survives the throw.
    EXPECT_EQ(ran.load(), 4);
    std::vector<std::atomic<int>> hits(8);
    runner.forEach(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Runner, MoreJobsThanIndices)
{
    const common::Runner runner(8);
    for (std::size_t count : {0u, 1u, 3u}) {
        std::vector<std::atomic<int>> hits(count);
        runner.forEach(count, [&](std::size_t i) { hits[i]++; });
        EXPECT_EQ(runner.blocks(count), count);
        std::atomic<std::size_t> calls{0};
        runner.forEachBlock(count, [&](std::size_t, std::size_t begin,
                                       std::size_t end) {
            ++calls;
            EXPECT_LT(begin, end); // no empty blocks
            for (std::size_t i = begin; i < end; ++i)
                hits[i]++;
        });
        EXPECT_EQ(calls.load(), count);
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 2);
    }
}

// ---------------------------------------------------------------
// Sweep execution + aggregation
// ---------------------------------------------------------------

TEST(Sweep, ReportIsByteIdenticalAcrossJobCounts)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(kSmallSpec, spec, errors))
        << joined(errors);

    const auto one = exp::runSweep(spec, 1);
    const auto four = exp::runSweep(spec, 4);
    EXPECT_EQ(one.failures, 0u);
    const std::string report_one =
        exp::aggregate(spec, one).toJson();
    const std::string report_four =
        exp::aggregate(spec, four).toJson();
    EXPECT_EQ(report_one, report_four);

    // And the artifact is valid JSON.
    EXPECT_TRUE(obs::jsonValid(report_one));
}

TEST(Sweep, ProgressObserverSeesEveryPoint)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(kSmallSpec, spec, errors));
    std::vector<std::size_t> seen;
    std::size_t last_completed = 0;
    exp::runSweep(spec, 2, [&](const exp::Progress &p) {
        // The observer runs serially: completed is monotone.
        EXPECT_EQ(p.completed, last_completed + 1);
        last_completed = p.completed;
        EXPECT_EQ(p.total, 4u);
        seen.push_back(p.index);
    });
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Sweep, BadPointIsCapturedNotFatal)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(R"({
      "base": { "nodes": 8, "payload": 4, "workload": "randperm" },
      "axes": [ { "field": "buses", "values": [2, 0] } ]
    })",
                                         spec, errors))
        << joined(errors);
    const auto outcome = exp::runSweep(spec, 2);
    ASSERT_EQ(outcome.results.size(), 2u);
    EXPECT_TRUE(outcome.results[0].ok);
    EXPECT_FALSE(outcome.results[1].ok);
    EXPECT_EQ(outcome.failures, 1u);
    EXPECT_NE(outcome.results[1].error.find("bus"),
              std::string::npos)
        << outcome.results[1].error;

    // One refusal rule for network x engine x topology: the kernel
    // engine runs on every RMB ring network, the hier topology only
    // on network=rmb, and every other network refuses them instead
    // of ignoring them.
    exp::SweepSpec engines;
    ASSERT_TRUE(exp::SweepSpec::fromJson(R"({
      "base": { "nodes": 8, "payload": 4, "engine": "kernel",
                "dims": "4x2" },
      "axes": [ { "field": "network",
                  "values": ["rmb", "multibus", "grid", "dualring"] } ]
    })",
                                         engines, errors))
        << joined(errors);
    const auto kernel = exp::runSweep(engines, 2);
    ASSERT_EQ(kernel.results.size(), 4u);
    for (const std::size_t i : {0u, 2u, 3u})
        EXPECT_TRUE(kernel.results[i].ok) << kernel.results[i].error;
    EXPECT_FALSE(kernel.results[1].ok);
    EXPECT_NE(kernel.results[1].error.find(
                  "engine=kernel is only supported with network=rmb"),
              std::string::npos)
        << kernel.results[1].error;

    exp::SweepSpec topologies;
    ASSERT_TRUE(exp::SweepSpec::fromJson(R"({
      "base": { "network": "torus", "payload": 4 },
      "axes": [ { "field": "topology", "values": ["flat", "hier"] } ]
    })",
                                         topologies, errors))
        << joined(errors);
    const auto hier = exp::runSweep(topologies, 2);
    ASSERT_EQ(hier.results.size(), 2u);
    EXPECT_TRUE(hier.results[0].ok) << hier.results[0].error;
    EXPECT_FALSE(hier.results[1].ok);
    EXPECT_NE(hier.results[1].error.find(
                  "topology=hier is only supported with network=rmb"),
              std::string::npos)
        << hier.results[1].error;
}

TEST(Sweep, RunPointIsDeterministic)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(kSmallSpec, spec, errors));
    const auto points = spec.points();
    for (const auto &p : points) {
        const auto r1 = exp::runPoint(p);
        const auto r2 = exp::runPoint(p);
        ASSERT_TRUE(r1.ok) << r1.error;
        EXPECT_EQ(r1.metrics, r2.metrics);
    }
}

// ---------------------------------------------------------------
// Replicas and tables
// ---------------------------------------------------------------

/** kSmallSpec's grid with @p extra keys spliced in. */
std::string
smallSpecWith(const std::string &extra)
{
    std::string text = kSmallSpec;
    return text.insert(text.rfind('}'), "," + extra);
}

const char *kTable = R"("tables": [{"title": "t", "rows": ["nodes"],
  "columns": [{"axis": "nodes"},
              {"metric": "makespan", "at": {"buses": 2}},
              {"header": "2 vs 4", "digits": 3,
               "ratio": [{"metric": "makespan", "at": {"buses": 2}},
                         {"metric": "makespan", "at": {"buses": 4}}]},
              {"metric": "completed", "at": {"buses": 4}}]}])";

TEST(SweepSpec, ReplicaRSharesOneSeedAcrossTheGrid)
{
    exp::SweepSpec plain;
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(kSmallSpec, plain, errors));
    ASSERT_TRUE(exp::SweepSpec::fromJson(
        smallSpecWith(R"("replicas": 3)"), spec, errors))
        << joined(errors);
    EXPECT_EQ(spec.pointCount(), 4u);
    const auto runs = spec.points();
    ASSERT_EQ(runs.size(), 12u);
    const sim::Random root(42);
    for (std::size_t j = 0; j < runs.size(); ++j) {
        EXPECT_EQ(runs[j].index, j / 3);
        EXPECT_EQ(runs[j].seed, root.split(j % 3).next());
    }
    // Without replicas every grid index keeps its own seed.
    const auto points = plain.points();
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].seed, root.split(i).next());
    EXPECT_EQ(plain.canonicalJson().find("replicas"), std::string::npos);
    EXPECT_NE(spec.canonicalJson().find("\"replicas\":3"),
              std::string::npos);
}

TEST(SweepSpec, TableMistakesAreRefusedWithTheFix)
{
    const std::vector<std::pair<std::string, std::string>> cases = {
        {R"("replicas": 0)", "field 'replicas' expects an integer >= 1"},
        {R"("tables": [{"rows": ["nodes"], "columns": []}])",
         "tables[0] needs a non-empty 'columns' array"},
        {R"("tables": [{"rows": ["nodes"],
            "columns": [{"metric": "latency"}]}])",
         "tables[0].columns[0]: unknown metric 'latency'"},
        {R"("tables": [{"rows": ["rate"], "columns": [{"axis": "rate"}]}])",
         "tables[0] rows: unknown axis 'rate' (axes: nodes, buses)"},
        {R"("tables": [{"rows": ["nodes"], "columns": [
            {"metric": "makespan", "at": {"payload": 4}}]}])",
         "tables[0].columns[0] at: unknown axis 'payload'"},
        {R"("tables": [{"rows": ["nodes"], "split": "nodes",
            "columns": [{"metric": "makespan"}]}])",
         "split axis 'nodes' is also a row axis"},
        {R"("tables": [{"rows": ["nodes"],
            "columns": [{"ratio": ["delivered"]}]}])",
         "'ratio' needs two metrics [numerator, denominator]"},
        {R"("tables": [{"rows": ["nodes"],
            "columns": [{"ratio": ["delivered", {"at": {"buses": 2}}]}]}])",
         "tables[0].columns[0] needs a metric"},
        {R"("tables": [{"rows": ["nodes"], "columns": [
            {"metric": "makespan", "at": {"buses": 3}}]}])",
         "'at' value 3 is not a value of axis 'buses'"},
        {R"("tables": [{"rows": ["nodes"], "columns": [
            {"metric": "makespan", "at": {"nodes": 8}}]}])",
         "'at' fixes 'nodes', a row or split axis"},
        {R"("tables": [{"title": "t", "rows": ["nodes"],
            "columns": [{"metric": "makespan"}]}])",
         "column 'makespan' reads two points in one cell"},
    };
    for (const auto &[extra, want] : cases) {
        exp::SweepSpec spec;
        std::vector<std::string> errors;
        EXPECT_FALSE(exp::SweepSpec::fromJson(smallSpecWith(extra), spec,
                                              errors))
            << extra;
        EXPECT_NE(joined(errors).find(want), std::string::npos)
            << extra << " gave:\n" << joined(errors);
    }
}

TEST(Sweep, ReplicasFoldIntoTheTables)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(
        smallSpecWith(std::string(R"("replicas": 2,)") + kTable), spec,
        errors))
        << joined(errors);
    const auto outcome = exp::runSweep(spec, 3);
    ASSERT_EQ(outcome.results.size(), 8u);
    const auto makespan = [&](std::size_t run) {
        for (const auto &[name, value] : outcome.results[run].metrics)
            if (name == "makespan")
                return std::stod(value);
        return -1.0;
    };
    // Grid points are (8,2) (8,4) (16,2) (16,4), two runs each.
    const auto mean = [&](std::size_t g) {
        return (makespan(2 * g) + makespan(2 * g + 1)) / 2;
    };
    const auto t = exp::tables(spec, outcome);
    ASSERT_EQ(t.size(), 1u);
    ASSERT_EQ(t[0].rows().size(), 2u);
    EXPECT_EQ(t[0].headers()[2], "2 vs 4");
    EXPECT_EQ(t[0].rows()[1],
              (std::vector<std::string>{
                  "16", TextTable::num(mean(2), 2),
                  TextTable::num(mean(2) / mean(3), 3), "2.00"}));

    const std::string report = exp::aggregate(spec, outcome).toJson();
    EXPECT_TRUE(obs::jsonValid(report));
    EXPECT_EQ(report, exp::aggregate(spec, exp::runSweep(spec, 1)).toJson());
    const auto lo = std::min(makespan(6), makespan(7));
    const auto hi = std::max(makespan(6), makespan(7));
    std::ostringstream want;
    want << "\"completed\":2,\"metrics\":{\"ticks\":";
    EXPECT_NE(report.find(want.str()), std::string::npos);
    std::ostringstream fold;
    fold << "\"makespan\":{\"mean\":" << mean(3) << ",\"min\":" << lo
         << ",\"max\":" << hi << "}";
    EXPECT_NE(report.find(fold.str()), std::string::npos) << report;
    EXPECT_NE(report.find("\"tables\":[{\"caption\":\"t\""),
              std::string::npos);
}

TEST(Sweep, EveryEmittedMetricCanBeTabled)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(R"({
      "base": { "nodes": 32, "buses": 2, "workload": "uniform",
                "rate": 0.01, "duration": 20000, "payload": 16,
                "max_retries": 2, "fault_mtbf": 800,
                "fault_permanent_prob": 0.3, "fault_node_prob": 0.2,
                "watchdog": 2000 },
      "axes": [ { "field": "workload", "values": ["uniform", "bitrev"] } ]
    })",
                                         spec, errors))
        << joined(errors);
    std::set<std::string> names;
    for (const auto &r : exp::runSweep(spec, 2).results)
        for (const auto &[name, value] : r.metrics)
            names.insert(name);
    EXPECT_TRUE(names.count("dead_lettered") && names.count("makespan"));
    for (const std::string &name : names) {
        exp::SweepSpec tabled;
        EXPECT_TRUE(exp::SweepSpec::fromJson(
            smallSpecWith(R"("tables": [{"rows": ["nodes", "buses"],
                "columns": [{"metric": ")" + name + "\"}]}]"),
            tabled, errors))
            << name << ": " << joined(errors);
    }
}

// ---------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------

/** The batch @p workload draws on an RMB(@p n, @p k) from a workload
 *  stream seeded @p seed; @p error gets why it drew none. */
workload::PairList
batchOf(const std::string &workload, std::uint32_t n, std::uint32_t k,
        std::uint64_t seed, std::string &error)
{
    exp::PointConfig pt;
    pt.nodes = n;
    pt.buses = k;
    pt.payload = 4;
    error = pt.set("workload", obs::JsonValue::makeString(workload));
    if (!error.empty())
        return {};
    sim::Simulator simulator;
    const auto network = exp::makeNetwork(
        pt, exp::rmbConfig(pt, 1, core::VerifyLevel::Off), simulator, error);
    if (!network)
        return {};
    sim::Random rng(seed);
    const exp::WorkloadRun run =
        exp::runWorkload(pt, *network, rng, 0, pt.timeout, 0, false);
    error = run.error;
    return run.pairs;
}

TEST(Workloads, BitcompNeedsAPowerOfTwo)
{
    std::string error;
    EXPECT_EQ(batchOf("bitcomp", 16, 4, 1, error),
              workload::toPairs(workload::bitComplement(16)));
    EXPECT_EQ(error, "");
    EXPECT_TRUE(batchOf("bitcomp", 12, 4, 1, error).empty());
    EXPECT_EQ(error, "workload 'bitcomp' needs nodes = 2^n, got 12");
}

TEST(Workloads, RotSendsMMessagesPerSource)
{
    std::string error;
    const workload::PairList one = batchOf("rot:1", 16, 4, 1, error);
    EXPECT_EQ(one, workload::toPairs(workload::rotation(16, 1)));
    const workload::PairList four = batchOf("rot:1:4", 16, 4, 1, error);
    ASSERT_EQ(four.size(), 4u * 16);
    for (std::size_t i = 0; i < four.size(); ++i)
        EXPECT_EQ(four[i], one[i / 4]) << i;
    EXPECT_EQ(batchOf("rot:1:1", 16, 4, 1, error), one);

    // A malformed count is refused with the field's syntax.
    EXPECT_TRUE(batchOf("rot:3:0", 16, 4, 1, error).empty());
    EXPECT_NE(error.find("|rot:<s>[:<m>]|"), std::string::npos) << error;
    EXPECT_NE(error.find("got 'rot:3:0' (<m> must be an integer in"
                         " [1, 4294967295])"),
              std::string::npos)
        << error;
}

TEST(Workloads, BurstSendsMFromNodeZeroToDistinctNodes)
{
    for (const std::uint32_t m : {1u, 4u, 7u, 15u}) {
        std::string error;
        const workload::PairList pairs = batchOf(
            "burst:" + std::to_string(m), 16, 4, 1, error);
        EXPECT_EQ(error, "");
        ASSERT_EQ(pairs.size(), m);
        std::set<net::NodeId> dsts;
        for (const auto &[src, dst] : pairs) {
            EXPECT_EQ(src, 0u);
            EXPECT_NE(dst, 0u);
            dsts.insert(dst);
        }
        EXPECT_EQ(dsts.size(), m) << "burst:" << m;
    }
    std::string error;
    EXPECT_EQ(batchOf("burst:4", 16, 4, 1, error),
              (workload::PairList{{0, 3}, {0, 6}, {0, 9}, {0, 12}}));

    // Node 0 has N - 1 destinations: a larger m fails the point,
    // saying why (the field table already refused m = 0).
    for (const char *word : {"burst:16", "burst:17", "burst:4294967295"}) {
        EXPECT_TRUE(batchOf(word, 16, 4, 1, error).empty());
        EXPECT_EQ(error, std::string("workload '") + word +
                             "' needs m in [1, 15]: node 0 has only 15"
                             " distinct destinations");
    }
}

TEST(Workloads, KpermFitsTheBuses)
{
    for (const auto &[n, k] : {std::pair{32u, 4u}, {16u, 8u}, {64u, 2u}}) {
        for (std::uint64_t seed = 0; seed < 20; ++seed) {
            std::string error;
            const auto pairs = batchOf("kperm", n, k, seed, error);
            EXPECT_EQ(error, "");
            EXPECT_EQ(pairs.size(), std::min(n / 2, 2 * k)) << n << "," << k;
            EXPECT_LE(workload::maxRingLoad(n, pairs), k) << n << "," << k;
        }
    }
}

TEST(Workloads, RingLoadIsTheBatchsMaxClockwiseLoad)
{
    const auto ringLoad = [](const std::string &workload) {
        exp::PointConfig pt;
        pt.nodes = 16;
        pt.payload = 4;
        pt.duration = 2000;
        EXPECT_EQ(pt.set("workload", obs::JsonValue::makeString(workload)),
                  "");
        const exp::PointResult r = exp::runPoint(pt);
        EXPECT_TRUE(r.ok) << r.error;
        for (const auto &[name, value] : r.metrics)
            if (name == "ring_load")
                return value;
        return std::string("absent");
    };
    EXPECT_EQ(ringLoad("rot:1"), "1");
    EXPECT_EQ(ringLoad("rot:1:4"), "4");
    EXPECT_EQ(ringLoad("tornado"), "8");
    // Only batch points have a batch to load the ring with.
    EXPECT_EQ(ringLoad("uniform"), "absent");
}

/** The metrics of one RMB(16, 4) point running @p workload (a
 *  boolean or null reads 0). */
std::map<std::string, double>
metricsOf(const std::string &workload)
{
    exp::PointConfig pt;
    pt.payload = 8;
    pt.duration = 4000;
    EXPECT_EQ(pt.set("workload", obs::JsonValue::makeString(workload)), "");
    const exp::PointResult r = exp::runPoint(pt);
    EXPECT_TRUE(r.ok) << r.error;
    std::map<std::string, double> out;
    for (const auto &[name, value] : r.metrics)
        out[name] = std::strtod(value.c_str(), nullptr);
    return out;
}

TEST(Metrics, QueueDelayAndMeanCircuitsByHand)
{
    // rot:1: every node injects its one message at tick 0, so no
    // source waits (Jain's index of all-equal delays is 1), and each
    // circuit is open from establishment to delivery: mean_latency -
    // mean_setup ticks per message.
    auto m = metricsOf("rot:1");
    EXPECT_EQ(m["mean_queue_delay"], 0.0);
    EXPECT_EQ(m["worst_node_queue_delay"], 0.0);
    EXPECT_EQ(m["queue_delay_jain"], 1.0);
    EXPECT_NEAR(m["mean_circuits"] * m["ticks"],
                16 * (m["mean_latency"] - m["mean_setup"]), 1e-3);

    // burst:2: one source; its first message goes at once, the second
    // waits d for the send port, so the mean is d / 2, the worst
    // source is that source, and one source is fair to itself.
    m = metricsOf("burst:2");
    EXPECT_GT(m["mean_queue_delay"], 0.0);
    EXPECT_EQ(m["worst_node_queue_delay"], m["mean_queue_delay"]);
    EXPECT_EQ(m["queue_delay_jain"], 1.0);
    // Its two latencies are each queue delay plus setup plus data.
    EXPECT_NEAR(m["mean_circuits"] * m["ticks"],
                2 * (m["mean_latency"] - m["mean_setup"] -
                     m["mean_queue_delay"]),
                1e-3);

    // Many sources wait unequally: 1/N <= Jain < 1, mean <= worst.
    m = metricsOf("uniform");
    EXPECT_GT(m["worst_node_queue_delay"], m["mean_queue_delay"]);
    EXPECT_LT(m["queue_delay_jain"], 1.0);
    EXPECT_GE(m["queue_delay_jain"], 1.0 / 16);
}

} // namespace
