/**
 * @file
 * Tests of the observability subsystem: trace sinks and the event
 * stream a send produces, the unified metrics registry and its JSON
 * snapshot, run reports, and RmbConfig::validate().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "obs/json_value.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "obs/run_report.hh"
#include "obs/sinks.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "rmb/network.hh"
#include "sim/simulator.hh"

namespace rmb {
namespace core {
namespace {

RmbConfig
testConfig(std::uint32_t n, std::uint32_t k, std::uint64_t seed = 1)
{
    RmbConfig cfg;
    cfg.numNodes = n;
    cfg.numBuses = k;
    cfg.seed = seed;
    cfg.verify = VerifyLevel::Full;
    return cfg;
}

void
runToQuiescence(sim::Simulator &s, RmbNetwork &net,
                sim::Tick limit = 1'000'000)
{
    while (!net.quiescent() && s.now() < limit)
        s.run(256);
}

/** Background kinds a quiet network still emits. */
bool
isBackground(obs::EventKind kind)
{
    return kind == obs::EventKind::CycleFlip ||
           kind == obs::EventKind::CompactionMake ||
           kind == obs::EventKind::CompactionBreak;
}

TEST(TraceSink, SingleSendEmitsCanonicalSequence)
{
    sim::Simulator s;
    RmbConfig cfg = testConfig(2, 2);
    cfg.detailedFlits = true;
    const std::uint32_t payload = 4;
    RmbNetwork net(s, cfg);
    obs::RingBufferSink sink(256);
    net.setTraceSink(&sink);

    const auto id = net.send(0, 1, payload);
    runToQuiescence(s, net);
    ASSERT_TRUE(net.quiescent());
    ASSERT_EQ(net.message(id).state, net::MessageState::Delivered);

    std::vector<obs::TraceEvent> protocol;
    for (const auto &e : sink.events()) {
        if (!isBackground(e.kind))
            protocol.push_back(e);
    }
    ASSERT_FALSE(protocol.empty());

    auto count = [&protocol](obs::EventKind kind) {
        return std::count_if(protocol.begin(), protocol.end(),
                             [kind](const obs::TraceEvent &e) {
                                 return e.kind == kind;
                             });
    };
    auto first = [&protocol](obs::EventKind kind) {
        return std::find_if(protocol.begin(), protocol.end(),
                            [kind](const obs::TraceEvent &e) {
                                return e.kind == kind;
                            }) -
               protocol.begin();
    };

    // One clean connection: no Nacks, retries, blocks or failures.
    EXPECT_EQ(count(obs::EventKind::Nack), 0);
    EXPECT_EQ(count(obs::EventKind::Retry), 0);
    EXPECT_EQ(count(obs::EventKind::Block), 0);
    EXPECT_EQ(count(obs::EventKind::Fail), 0);

    EXPECT_EQ(count(obs::EventKind::Inject), 1);
    EXPECT_GE(count(obs::EventKind::HeaderHop), 1);
    EXPECT_EQ(count(obs::EventKind::Hack), 1);
    // payload flits plus the final flit; the FF carries no Dack.
    EXPECT_EQ(count(obs::EventKind::DataFlit), payload + 1);
    EXPECT_EQ(count(obs::EventKind::Dack), payload);
    EXPECT_EQ(count(obs::EventKind::Deliver), 1);
    EXPECT_EQ(count(obs::EventKind::Teardown), 1);

    // Canonical ordering of the protocol phases.
    EXPECT_LT(first(obs::EventKind::Inject),
              first(obs::EventKind::HeaderHop));
    EXPECT_LT(first(obs::EventKind::HeaderHop),
              first(obs::EventKind::Hack));
    EXPECT_LT(first(obs::EventKind::Hack),
              first(obs::EventKind::DataFlit));
    EXPECT_LT(first(obs::EventKind::DataFlit),
              first(obs::EventKind::Deliver));
    EXPECT_LT(first(obs::EventKind::Deliver),
              first(obs::EventKind::Teardown));

    // The teardown of a delivered message is Fack-initiated.
    const auto &teardown =
        protocol[static_cast<std::size_t>(
            first(obs::EventKind::Teardown))];
    EXPECT_EQ(teardown.a, obs::kTeardownFack);

    // Every event carries the message id and a JSON-clean render.
    for (const auto &e : protocol) {
        EXPECT_EQ(e.message, id);
        EXPECT_TRUE(obs::jsonValid(obs::toJsonLine(e)))
            << obs::toJsonLine(e);
    }
}

TEST(TraceSink, CountingSinkTalliesPerKind)
{
    obs::CountingSink sink;
    obs::TraceEvent e;
    e.kind = obs::EventKind::Inject;
    sink.onEvent(e);
    sink.onEvent(e);
    e.kind = obs::EventKind::Dack;
    sink.onEvent(e);
    EXPECT_EQ(sink.count(obs::EventKind::Inject), 2u);
    EXPECT_EQ(sink.count(obs::EventKind::Dack), 1u);
    EXPECT_EQ(sink.count(obs::EventKind::Teardown), 0u);
    EXPECT_EQ(sink.total(), 3u);
    sink.reset();
    EXPECT_EQ(sink.total(), 0u);
}

TEST(TraceSink, RingBufferRetainsLastN)
{
    obs::RingBufferSink sink(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::Inject;
        e.a = i;
        sink.onEvent(e);
    }
    EXPECT_EQ(sink.seen(), 10u);
    EXPECT_EQ(sink.capacity(), 4u);
    const auto events = sink.events();
    ASSERT_EQ(events.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].a, 6 + i) << "slot " << i;

    std::ostringstream dump;
    sink.dump(dump);
    std::istringstream lines(dump.str());
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(obs::jsonValid(line)) << line;
        ++n;
    }
    EXPECT_EQ(n, 4u);
}

TEST(TraceSink, JsonlFileSinkWritesValidLines)
{
    const std::string path = "obs_test_trace.jsonl";
    {
        obs::JsonlFileSink sink(path);
        obs::TraceEvent e;
        e.kind = obs::EventKind::HeaderHop;
        e.message = 7;
        sink.onEvent(e);
        e.kind = obs::EventKind::Deliver;
        sink.onEvent(e);
        EXPECT_EQ(sink.written(), 2u);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
        EXPECT_TRUE(obs::jsonValid(line)) << line;
        ++n;
    }
    EXPECT_EQ(n, 2u);
    std::remove(path.c_str());
}

TEST(MetricsRegistry, ReferencesAreStableAndShapesChecked)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("alpha");
    ++a;
    // Later registrations must not move earlier metrics.
    for (int i = 0; i < 100; ++i)
        reg.counter("bulk." + std::to_string(i));
    EXPECT_EQ(&a, &reg.counter("alpha"));
    EXPECT_EQ(reg.counter("alpha").value(), 1u);

    reg.sampler("dist").add(3.0);
    reg.level("lvl").adjust(0, 2);
    EXPECT_TRUE(reg.has("alpha"));
    EXPECT_TRUE(reg.has("dist"));
    EXPECT_TRUE(reg.has("lvl"));
    EXPECT_FALSE(reg.has("missing"));
    EXPECT_EQ(reg.size(), 103u);

    const auto names = reg.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(names.size(), reg.size());
}

TEST(MetricsRegistry, SnapshotIsValidJsonAndComplete)
{
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 3));
    const auto id = net.send(1, 5, 16);
    runToQuiescence(s, net);
    ASSERT_EQ(net.message(id).state, net::MessageState::Delivered);

    const std::string snap = net.metrics().snapshot(s.now());
    EXPECT_TRUE(obs::jsonValid(snap)) << snap;

    // Every counter the typed stats views name must be present.
    for (const char *name :
         {"net.injected", "net.delivered", "net.failed",
          "net.nacks", "net.retries", "net.queue_delay",
          "net.setup_latency", "net.total_latency",
          "net.path_length", "net.active_circuits",
          "rmb.compaction.moves", "rmb.blocked.headers",
          "rmb.blocked.aborts", "rmb.timeout.aborts",
          "rmb.cycle.flips", "rmb.dacks", "rmb.cycle.max_skew",
          "rmb.multicasts", "rmb.top_release_latency",
          "rmb.multicast.member_latency", "rmb.blocked.time",
          "rmb.live_buses"}) {
        EXPECT_TRUE(net.metrics().has(name)) << name;
        EXPECT_NE(snap.find(std::string("\"") + name + "\""),
                  std::string::npos)
            << name << " missing from snapshot";
    }

    // The typed views alias the registry: same underlying storage.
    EXPECT_EQ(net.stats().delivered.value(),
              net.metrics().counter("net.delivered").value());
    EXPECT_EQ(net.stats().delivered.value(), 1u);
}

TEST(RunReport, RoundTripsThroughJson)
{
    obs::RunReport report("obs_test");
    report.set("alpha", std::uint64_t{3});
    report.set("beta", "quote\"and\\slash");
    report.set("gamma", 1.5);
    report.set("delta", true);
    report.setRaw("nested", "{\"x\":[1,2,3]}");
    const std::string json = report.toJson();
    EXPECT_TRUE(obs::jsonValid(json)) << json;
    // Tool identity first, fields in insertion order.
    EXPECT_EQ(json.rfind("{\"tool\":\"obs_test\"", 0), 0u);
    EXPECT_NE(json.find("\"nested\":{\"x\":[1,2,3]}"),
              std::string::npos);
}

TEST(JsonWriter, ConstCharFieldWritesEscapedString)
{
    // Regression guard: a const char* value must pick the string
    // overload (escaped, quoted), never decay through the bool
    // overload.
    obs::JsonWriter json;
    json.beginObject();
    const char *value = "quote\"and\\slash";
    json.field("literal", "plain");
    json.field("pointer", value);
    json.endObject();
    EXPECT_EQ(json.str(), "{\"literal\":\"plain\","
                          "\"pointer\":\"quote\\\"and\\\\slash\"}");
}

TEST(JsonValid, RejectsMalformedDocuments)
{
    const std::string deep(300, '[');
    const std::pair<const char *, std::string> bad[] = {
        {"trailing comma", R"({"a": [1, 2,]})"},
        {"raw control character", "[\"tab\there\"]"},
        {"bad escape", R"(["\q"])"},
        {"nesting past 256 levels", deep + std::string(300, ']')},
        {"bare minus", "-"},
        {"trailing bytes", R"({"a": 1} x)"},
    };
    for (const auto &[why, text] : bad)
        EXPECT_FALSE(obs::jsonValid(text)) << why << ": " << text;
    EXPECT_TRUE(obs::jsonValid(R"({"a": [1, -2.5e3, "é\n"], "b": null})"));
    EXPECT_TRUE(obs::jsonValid(std::string(200, '[') + std::string(200, ']')));
}

TEST(TimelineSampler, PeriodMustBeAtLeastOneTick)
{
    sim::Simulator s;
    EXPECT_DEATH({ obs::TimelineSampler t(s, 0); }, "period");
}

TEST(TimelineSampler, StopTrueAtFirstSampleStillTakesIt)
{
    sim::Simulator s;
    obs::TimelineSampler timeline(s, 10);
    timeline.addSeries("g", [] { return 1.5; });
    // The predicate is checked *after* each sample: even a run that
    // is already "done" at the first sample point records it.
    timeline.setStopWhen([] { return true; });
    timeline.start();
    s.run();
    EXPECT_TRUE(s.idle());
    EXPECT_EQ(timeline.sampleCount(), 1u);
}

TEST(TimelineSampler, CounterSeriesEmitsWindowedDeltasAcrossReset)
{
    sim::Simulator s;
    obs::TimelineSampler timeline(s, 10);
    std::uint64_t counter = 5; // pre-start growth must not count
    timeline.addCounterSeries("c", [&] { return counter; });
    int samples_left = 3;
    timeline.setStopWhen([&] { return --samples_left == 0; });
    timeline.start();
    s.schedule(5, [&] { counter = 8; });   // window 1: delta 3
    s.schedule(15, [&] { counter = 20; }); // window 2: delta 12
    s.schedule(25, [&] { counter = 4; });  // reset: post-reset value
    s.run();
    ASSERT_EQ(timeline.sampleCount(), 3u);

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::jsonParse(timeline.toJson(), doc, error))
        << error;
    const obs::JsonValue *series = doc.find("series");
    ASSERT_NE(series, nullptr);
    const obs::JsonValue *c = series->find("c");
    ASSERT_NE(c, nullptr);
    ASSERT_TRUE(c->isArray());
    ASSERT_EQ(c->array().size(), 3u);
    EXPECT_EQ(c->array()[0].number(), 3.0);
    EXPECT_EQ(c->array()[1].number(), 12.0);
    EXPECT_EQ(c->array()[2].number(), 4.0);
}

TEST(Profiler, DisabledScopesRecordNothing)
{
    obs::prof::setEnabled(false);
    obs::prof::reset();
    {
        RMB_PROF_SCOPE("obs_test.should_not_appear");
    }
    EXPECT_TRUE(obs::prof::merged().children.empty());
}

TEST(Profiler, MergedTreeIsNameSortedWithExactCounts)
{
    obs::prof::reset();
    obs::prof::setEnabled(true);
    for (int i = 0; i < 2; ++i) {
        RMB_PROF_SCOPE("obs_test.outer");
        RMB_PROF_SCOPE("obs_test.inner");
    }
    {
        RMB_PROF_SCOPE("obs_test.alpha");
    }
    obs::prof::setEnabled(false);

    const obs::prof::PhaseNode root = obs::prof::merged();
    ASSERT_EQ(root.children.size(), 2u);
    // Sorted by name at every level.
    EXPECT_EQ(root.children[0].name, "obs_test.alpha");
    EXPECT_EQ(root.children[1].name, "obs_test.outer");
    EXPECT_EQ(root.children[1].calls, 2u);
    ASSERT_EQ(root.children[1].children.size(), 1u);
    EXPECT_EQ(root.children[1].children[0].name, "obs_test.inner");
    EXPECT_EQ(root.children[1].children[0].calls, 2u);

    const std::string json = obs::prof::reportJson();
    EXPECT_TRUE(obs::jsonValid(json)) << json;
    EXPECT_NE(json.find("\"obs_test.inner\""), std::string::npos);
    obs::prof::reset();
}

TEST(Profiler, ExclusiveTimeClampsWhenChildrenExceedParent)
{
    // A child timed on another thread can sum past its parent; the
    // exclusive view clamps at zero instead of underflowing.
    obs::prof::PhaseNode parent;
    parent.inclusiveNs = 10;
    obs::prof::PhaseNode child;
    child.inclusiveNs = 25;
    parent.children.push_back(child);
    EXPECT_EQ(parent.exclusiveNs(), 0u);
    parent.inclusiveNs = 40;
    EXPECT_EQ(parent.exclusiveNs(), 15u);
}

TEST(RmbConfigValidate, AcceptsDefaultsRejectsNonsense)
{
    EXPECT_TRUE(RmbConfig{}.validate().empty());

    RmbConfig no_buses;
    no_buses.numBuses = 0;
    EXPECT_FALSE(no_buses.validate().empty());

    RmbConfig inverted;
    inverted.cyclePeriodMin = 12;
    inverted.cyclePeriodMax = 6;
    EXPECT_FALSE(inverted.validate().empty());

    RmbConfig closed_window;
    closed_window.detailedFlits = true;
    closed_window.dackWindow = 0;
    EXPECT_FALSE(closed_window.validate().empty());

    // Messages should be actionable: they name the offending value.
    const auto problems = no_buses.validate();
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("numBuses=0"), std::string::npos);
}

TEST(RmbConfigValidate, NetworkRefusesInvalidConfig)
{
    sim::Simulator s;
    RmbConfig bad = testConfig(8, 0);
    EXPECT_DEATH({ RmbNetwork net(s, bad); }, "numBuses=0");
}

} // namespace
} // namespace core
} // namespace rmb
