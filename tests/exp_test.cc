/**
 * @file
 * Unit tests for the experiment engine (src/exp): spec parsing and
 * materialisation, the thread-pool runner, deterministic sweep
 * execution, report aggregation, and the baseline regression gate.
 */

#include <algorithm>
#include <atomic>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/eval.hh"
#include "exp/gate.hh"
#include "common/parallel.hh"
#include "exp/spec.hh"
#include "obs/json.hh"
#include "obs/json_value.hh"
#include "sim/random.hh"

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
    EXPECT_DOUBLE_EQ(points[0].faultPermanentProb, 0.25);
    EXPECT_DOUBLE_EQ(points[0].faultNodeProb, 0.125);
    EXPECT_DOUBLE_EQ(points[0].faultBridgeProb, 0.0);
    EXPECT_DOUBLE_EQ(points[1].faultBridgeProb, 0.5);

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

TEST(PointConfig, FlagsAreDerivedFromTheTable)
{
    exp::PointConfig pt;
    std::string error;
    EXPECT_EQ(pt.applyFlag("--bridge-buffer", "7", error), 1);
    EXPECT_EQ(error, "");
    EXPECT_EQ(pt.bridgeBuffer, 7u);
    EXPECT_EQ(pt.applyFlag("--ports", "2,3", error), 1);
    EXPECT_EQ(pt.sendPorts, 2u);
    EXPECT_EQ(pt.receivePorts, 3u);
    EXPECT_EQ(pt.applyFlag("--fault-mttr", "10,20", error), 1);
    EXPECT_EQ(pt.faultMttrMin, 10u);
    EXPECT_EQ(pt.faultMttrMax, 20u);
    EXPECT_EQ(pt.applyFlag("--jobs", "3", error), 1);
    EXPECT_EQ(pt.shardJobs, 3u);
    EXPECT_EQ(pt.applyFlag("--no-compaction", nullptr, error), 0);
    EXPECT_FALSE(pt.compaction);
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
// Baseline gate
// ---------------------------------------------------------------

TEST(Gate, IdenticalReportsPass)
{
    const std::string doc =
        R"({"a": 1.5, "b": {"c": 2, "s": "hi"}, "arr": [1, 2]})";
    const auto outcome = exp::compareReportTexts(doc, doc);
    EXPECT_TRUE(outcome.pass) << joined(outcome.problems);
    EXPECT_EQ(outcome.compared, 5u);
}

TEST(Gate, NumericDriftFailsWithPath)
{
    const auto outcome = exp::compareReportTexts(
        R"({"b": {"c": 2}})", R"({"b": {"c": 3}})");
    EXPECT_FALSE(outcome.pass);
    ASSERT_EQ(outcome.problems.size(), 1u);
    EXPECT_NE(outcome.problems[0].find("b.c"), std::string::npos)
        << outcome.problems[0];
}

TEST(Gate, ToleranceFromBaselineAllowsDrift)
{
    // |2 - 3| <= rtol * |baseline| with rtol = 0.6 -> within budget.
    const auto outcome = exp::compareReportTexts(
        R"({"b": {"c": 2}})",
        R"({"b": {"c": 3}, "tolerances": {"c": 0.6}})");
    EXPECT_TRUE(outcome.pass) << joined(outcome.problems);
}

TEST(Gate, ExactPathBeatsBareLeafName)
{
    // The bare name would allow the drift; the exact path (more
    // specific) forbids it.
    const auto outcome = exp::compareReportTexts(
        R"({"b": {"c": 2}})",
        R"({"b": {"c": 3},
            "tolerances": {"c": 0.6, "b.c": 0.0}})");
    EXPECT_FALSE(outcome.pass);
}

TEST(Gate, StarAndCliDefaultsApply)
{
    EXPECT_TRUE(exp::compareReportTexts(
                    R"({"x": 10})",
                    R"({"x": 11, "tolerances": {"*": 0.2}})")
                    .pass);
    exp::GateOptions opt;
    opt.rtol = 0.2;
    EXPECT_TRUE(
        exp::compareReportTexts(R"({"x": 10})", R"({"x": 11})", opt)
            .pass);
    EXPECT_FALSE(
        exp::compareReportTexts(R"({"x": 10})", R"({"x": 11})")
            .pass);
}

TEST(Gate, MissingLeafAndTypeMismatchFail)
{
    EXPECT_FALSE(
        exp::compareReportTexts(R"({})", R"({"gone": 1})").pass);
    EXPECT_FALSE(exp::compareReportTexts(R"({"x": "1"})",
                                         R"({"x": 1})")
                     .pass);
    // Fresh-only leaves are fine: adding metrics never breaks a
    // stored baseline.
    EXPECT_TRUE(exp::compareReportTexts(R"({"x": 1, "new": 2})",
                                        R"({"x": 1})")
                    .pass);
}

TEST(Gate, BrokenDocumentsAreReportedNotThrown)
{
    const auto outcome =
        exp::compareReportTexts("{ nope", R"({"x": 1})");
    EXPECT_FALSE(outcome.pass);
    ASSERT_FALSE(outcome.problems.empty());
    EXPECT_NE(outcome.problems[0].find("fresh"), std::string::npos)
        << outcome.problems[0];
}

} // namespace
