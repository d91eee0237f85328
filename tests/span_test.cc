/**
 * @file
 * Tests of causal span reconstruction (obs::SpanBuilder), the
 * histogram rendering, the offline causality checker and the
 * Chrome-trace exporter - mostly over synthetic event vectors so
 * each edge case (Nack-only messages, severed circuits, spans still
 * open at simulation end) is pinned exactly, plus one integration
 * pass over a real network trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/json_value.hh"
#include "obs/metrics.hh"
#include "obs/perfetto.hh"
#include "obs/sinks.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "rmb/network.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

namespace rmb {
namespace obs {
namespace {

TraceEvent
ev(EventKind kind, sim::Tick at, std::uint64_t msg = 0,
   std::uint64_t bus = 0, std::uint32_t node = 0,
   std::uint32_t gap = 0, std::int32_t level = -1,
   std::uint64_t a = 0)
{
    TraceEvent e;
    e.kind = kind;
    e.at = at;
    e.message = msg;
    e.bus = bus;
    e.node = node;
    e.gap = gap;
    e.level = level;
    e.a = a;
    return e;
}

/** The minimal healthy life of one message on one segment. */
std::vector<TraceEvent>
cleanTrace()
{
    return {
        ev(EventKind::Inject, 10, 1, 0, 0),
        ev(EventKind::HeaderHop, 12, 1, 5, 0, 0, 1),
        ev(EventKind::Hack, 20, 1, 5, 1),
        ev(EventKind::Deliver, 50, 1, 5, 1),
        ev(EventKind::Teardown, 52, 1, 5, 1, 0, -1, kTeardownFack),
        ev(EventKind::SegmentFree, 54, 1, 5, 0, 0, 1,
           kFreeTeardown),
    };
}

const Span *
findSpan(const std::vector<Span> &spans, SpanKind kind,
         std::size_t nth = 0)
{
    for (const Span &s : spans) {
        if (s.kind != kind)
            continue;
        if (nth == 0)
            return &s;
        --nth;
    }
    return nullptr;
}

TEST(SpanBuilder, CleanMessageYieldsFourPhases)
{
    SpanBuilder b;
    for (const TraceEvent &e : cleanTrace())
        b.onEvent(e);
    b.finish(60);

    const Span *setup = findSpan(b.spans(), SpanKind::Setup);
    ASSERT_NE(setup, nullptr);
    EXPECT_EQ(setup->begin, 10u);
    EXPECT_EQ(setup->end, 20u);
    EXPECT_FALSE(setup->open);
    EXPECT_FALSE(setup->refused);

    const Span *stream = findSpan(b.spans(), SpanKind::Streaming);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->begin, 20u);
    EXPECT_EQ(stream->end, 50u);
    EXPECT_EQ(stream->bus, 5u);

    // Teardown runs from the Fack start to the last segment free.
    const Span *td = findSpan(b.spans(), SpanKind::Teardown);
    ASSERT_NE(td, nullptr);
    EXPECT_EQ(td->begin, 52u);
    EXPECT_EQ(td->end, 54u);
    EXPECT_FALSE(td->open);

    // The segment lane covers header claim -> teardown free.
    const Span *seg =
        findSpan(b.spans(), SpanKind::SegmentOccupancy);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->begin, 12u);
    EXPECT_EQ(seg->end, 54u);
    EXPECT_EQ(seg->gap, 0u);
    EXPECT_EQ(seg->level, 1);

    EXPECT_EQ(b.phaseStat(SpanKind::Setup).count(), 1u);
    EXPECT_DOUBLE_EQ(b.phaseStat(SpanKind::Setup).mean(), 10.0);
    EXPECT_EQ(b.phaseStat(SpanKind::Streaming).count(), 1u);
    EXPECT_TRUE(b.instants().empty());
}

TEST(SpanBuilder, NackOnlyMessageIsRefusedNeverStreams)
{
    // A message that only ever collects Nacks: every attempt's Setup
    // span closes refused, a Backoff span per backoff, and no
    // Streaming span at all.
    SpanBuilder b;
    b.onEvent(ev(EventKind::Inject, 0, 7, 0, 3));
    b.onEvent(ev(EventKind::Nack, 4, 7, 0, 3, 0, -1,
                 kNackNoSegment));
    b.onEvent(ev(EventKind::Backoff, 4, 7, 0, 3, 0, -1, 6));
    b.onEvent(ev(EventKind::Retry, 10, 7, 0, 3, 0, -1, 1));
    b.onEvent(ev(EventKind::Nack, 14, 7, 0, 3, 0, -1,
                 kNackNoSegment));
    b.onEvent(ev(EventKind::Fail, 14, 7, 0, 3));
    b.finish(20);

    std::size_t setups = 0;
    for (const Span &s : b.spans()) {
        EXPECT_NE(s.kind, SpanKind::Streaming);
        if (s.kind == SpanKind::Setup) {
            ++setups;
            EXPECT_TRUE(s.refused);
            EXPECT_FALSE(s.open);
        }
    }
    EXPECT_EQ(setups, 2u);

    const Span *back = findSpan(b.spans(), SpanKind::Backoff);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->begin, 4u);
    EXPECT_EQ(back->end, 10u);

    // Both Nacks and the Fail are plotted as instants.
    EXPECT_EQ(b.instants().size(), 3u);
}

TEST(SpanBuilder, SeveredThenRecoveredSplitsTheStream)
{
    // Attempt 1 establishes, gets severed mid-stream; the retry
    // establishes again and delivers.  The first Streaming span must
    // carry severed=true, the second must be clean.
    SpanBuilder b;
    b.onEvent(ev(EventKind::Inject, 0, 9, 0, 2));
    b.onEvent(ev(EventKind::Hack, 10, 9, 4, 2));
    b.onEvent(ev(EventKind::BusSevered, 30, 9, 4, 2, 0, -1,
                 kSeverFault));
    b.onEvent(ev(EventKind::Retry, 40, 9, 0, 2, 0, -1, 1));
    b.onEvent(ev(EventKind::Hack, 55, 9, 6, 2));
    b.onEvent(ev(EventKind::Deliver, 80, 9, 6, 2));
    b.finish(100);

    const Span *first = findSpan(b.spans(), SpanKind::Streaming, 0);
    const Span *second = findSpan(b.spans(), SpanKind::Streaming, 1);
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    EXPECT_TRUE(first->severed);
    EXPECT_EQ(first->begin, 10u);
    EXPECT_EQ(first->end, 30u);
    EXPECT_EQ(first->bus, 4u);
    EXPECT_FALSE(second->severed);
    EXPECT_EQ(second->end, 80u);
    EXPECT_EQ(second->bus, 6u);

    // Severed spans still count toward the phase stat (they closed
    // with a real end time), and the sever shows up as an instant.
    EXPECT_EQ(b.phaseStat(SpanKind::Streaming).count(), 2u);
    ASSERT_EQ(b.instants().size(), 1u);
    EXPECT_EQ(b.instants()[0].kind, EventKind::BusSevered);
}

TEST(SpanBuilder, InFlightSpansAtFinishAreFlaggedNotDropped)
{
    SpanBuilder b;
    b.onEvent(ev(EventKind::Inject, 0, 3, 0, 1));
    b.onEvent(ev(EventKind::HeaderHop, 2, 3, 8, 1, 1, 0));
    b.onEvent(ev(EventKind::Hack, 9, 3, 8, 1));
    // Simulation ends mid-stream: no Deliver, no Teardown.
    b.finish(42);

    const Span *stream = findSpan(b.spans(), SpanKind::Streaming);
    ASSERT_NE(stream, nullptr);
    EXPECT_TRUE(stream->open);
    EXPECT_EQ(stream->end, 42u);

    const Span *seg =
        findSpan(b.spans(), SpanKind::SegmentOccupancy);
    ASSERT_NE(seg, nullptr);
    EXPECT_TRUE(seg->open);

    // Open spans are excluded from the clean phase statistics.
    EXPECT_EQ(b.phaseStat(SpanKind::Streaming).count(), 0u);
    EXPECT_EQ(b.phaseStat(SpanKind::SegmentOccupancy).count(), 0u);

    // finish() is idempotent and does not double-close.
    const std::size_t n = b.spans().size();
    b.finish(42);
    EXPECT_EQ(b.spans().size(), n);
}

/** histogramJson() of a histogram holding the one sample @p v,
 *  reduced to its bucket list. */
std::string
bucketsOf(double v)
{
    sim::SampleStat h;
    h.add(v);
    const std::string json = histogramJson(h);
    return json.substr(json.find("\"buckets\":"));
}

TEST(HistogramJson, BucketBoundariesArePowersOfTwo)
{
    EXPECT_EQ(bucketsOf(0), "\"buckets\":[[0,1]]}");
    EXPECT_EQ(bucketsOf(1), "\"buckets\":[[1,1]]}");
    EXPECT_EQ(bucketsOf(2), "\"buckets\":[[2,1]]}");
    EXPECT_EQ(bucketsOf(3), "\"buckets\":[[2,1]]}");
    EXPECT_EQ(bucketsOf(4), "\"buckets\":[[4,1]]}");
    EXPECT_EQ(bucketsOf(7), "\"buckets\":[[4,1]]}");
    EXPECT_EQ(bucketsOf(8), "\"buckets\":[[8,1]]}");
    // 2^62 opens the top bucket, which absorbs everything above it.
    EXPECT_EQ(bucketsOf(0x1p62),
              "\"buckets\":[[4611686018427387904,1]]}");
    EXPECT_EQ(bucketsOf(static_cast<double>(~0ull)),
              "\"buckets\":[[4611686018427387904,1]]}");

    // Bucket 5 spans [16, 32).
    EXPECT_EQ(bucketsOf(16), "\"buckets\":[[16,1]]}");
    EXPECT_EQ(bucketsOf(31), "\"buckets\":[[16,1]]}");
    // Every boundary value lands in the bucket it opens.
    for (int i = 0; i < 63; ++i) {
        const std::uint64_t low = std::uint64_t{1} << i;
        EXPECT_EQ(bucketsOf(static_cast<double>(low)),
                  "\"buckets\":[[" + std::to_string(low) + ",1]]}");
    }
}

TEST(HistogramJson, PercentilesInterpolateAndClamp)
{
    sim::SampleStat h;
    std::string json = histogramJson(h);
    EXPECT_NE(json.find("\"p50\":null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"mean\":null"), std::string::npos) << json;

    for (std::uint64_t v : {10u, 20u, 30u, 40u, 1000u})
        h.add(static_cast<double>(v));
    json = histogramJson(h);
    EXPECT_TRUE(jsonValid(json)) << json;
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(jsonParse(json, doc, error)) << error;
    EXPECT_EQ(doc.find("count")->numberToken(), "5");
    EXPECT_EQ(doc.find("min")->numberToken(), "10");
    EXPECT_EQ(doc.find("max")->numberToken(), "1000");
    EXPECT_DOUBLE_EQ(doc.find("mean")->number(), 220.0);

    // Percentiles are approximate but must be monotone in p and
    // clamped to the observed range.
    const double p50 = doc.find("p50")->number();
    const double p90 = doc.find("p90")->number();
    const double p99 = doc.find("p99")->number();
    EXPECT_GE(p50, 10.0);
    EXPECT_LE(p99, 1000.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // p99 of 5 samples sits in the top bucket with the 1000.
    EXPECT_GE(p99, 512.0);

    h.reset();
    json = histogramJson(h);
    EXPECT_NE(json.find("\"count\":0"), std::string::npos) << json;
    EXPECT_TRUE(jsonValid(json)) << json;
}

/**
 * The log-bucketed histogram that histogramJson() replaced, kept
 * here as the reference its rendering must reproduce byte for byte.
 */
class ReferenceLogHistogram
{
  public:
    static constexpr std::size_t kNumBuckets = 64;

    static std::size_t
    bucketIndex(std::uint64_t value)
    {
        if (value == 0)
            return 0;
        std::size_t index = 1;
        while (value > 1) {
            value >>= 1;
            ++index;
        }
        return std::min(index, kNumBuckets - 1);
    }

    static std::uint64_t
    bucketLow(std::size_t index)
    {
        return index == 0 ? 0 : std::uint64_t{1} << (index - 1);
    }

    void
    add(std::uint64_t value)
    {
        ++buckets_[bucketIndex(value)];
        if (count_ == 0) {
            min_ = value;
            max_ = value;
        } else {
            min_ = std::min(min_, value);
            max_ = std::max(max_, value);
        }
        ++count_;
        sum_ += value;
    }

    double
    percentile(double p) const
    {
        if (count_ == 0)
            return std::nan("");
        std::uint64_t target = static_cast<std::uint64_t>(
            std::ceil(p * static_cast<double>(count_)));
        target = std::max<std::uint64_t>(1, std::min(target, count_));
        std::uint64_t below = 0;
        for (std::size_t i = 0; i < kNumBuckets; ++i) {
            const std::uint64_t n = buckets_[i];
            if (n == 0)
                continue;
            if (below + n >= target) {
                double low = static_cast<double>(bucketLow(i));
                double high = i == 0
                    ? 1.0
                    : static_cast<double>(bucketLow(i)) * 2.0;
                double frac = static_cast<double>(target - below) /
                              static_cast<double>(n);
                double value = low + frac * (high - low);
                value = std::max(value, static_cast<double>(min_));
                value = std::min(value, static_cast<double>(max_));
                return value;
            }
            below += n;
        }
        return static_cast<double>(max_);
    }

    std::string
    toJson() const
    {
        std::ostringstream out;
        const auto moment = [&out](const char *name, double v) {
            out << '"' << name << "\":";
            if (std::isnan(v))
                out << "null";
            else
                out << v;
        };
        out << "{\"count\":" << count_ << ',';
        if (count_ == 0)
            out << "\"min\":null,\"max\":null,";
        else
            out << "\"min\":" << min_ << ",\"max\":" << max_ << ',';
        moment("mean", count_ == 0 ? std::nan("")
                                   : static_cast<double>(sum_) /
                                         static_cast<double>(count_));
        out << ',';
        moment("p50", percentile(0.50));
        out << ',';
        moment("p90", percentile(0.90));
        out << ',';
        moment("p99", percentile(0.99));
        out << ",\"buckets\":[";
        bool first = true;
        for (std::size_t i = 0; i < kNumBuckets; ++i) {
            if (buckets_[i] == 0)
                continue;
            if (!first)
                out << ',';
            first = false;
            out << '[' << bucketLow(i) << ',' << buckets_[i] << ']';
        }
        out << "]}";
        return out.str();
    }

  private:
    std::uint64_t buckets_[kNumBuckets] = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

TEST(HistogramJson, MatchesTheLogHistogramRendering)
{
    EXPECT_EQ(histogramJson(sim::SampleStat{}),
              ReferenceLogHistogram{}.toJson());
    sim::Random rng(5);
    for (std::size_t size : {1u, 2u, 5u, 100u, 5000u}) {
        for (std::uint64_t spread :
             {1u, 2u, 40u, 1000u, 1000000u, 1u << 30}) {
            sim::SampleStat h;
            ReferenceLogHistogram reference;
            for (std::size_t i = 0; i < size; ++i) {
                const std::uint64_t v = rng.uniformInt(spread);
                h.add(static_cast<double>(v));
                reference.add(v);
            }
            EXPECT_EQ(histogramJson(h), reference.toJson())
                << "size " << size << " spread " << spread;
        }
    }
    // The top bucket, and a sum past 2^53.
    sim::SampleStat h;
    ReferenceLogHistogram reference;
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{3} << 61,
                            std::uint64_t{1} << 62, std::uint64_t{7}}) {
        h.add(static_cast<double>(v));
        reference.add(v);
    }
    EXPECT_EQ(histogramJson(h), reference.toJson());
}

TEST(CheckTrace, HealthyTracePasses)
{
    EXPECT_TRUE(checkTrace(cleanTrace()).empty());
}

TEST(CheckTrace, DroppedHackAndInjectAreFlagged)
{
    auto events = cleanTrace();
    // Remove the Hack: the Deliver is now causally orphaned.
    events.erase(events.begin() + 2);
    const auto problems = checkTrace(events);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("without a prior hack"),
              std::string::npos);

    // A Hack with no Inject at all is likewise flagged.
    const auto orphan =
        checkTrace({ev(EventKind::Hack, 5, 2, 1, 0)});
    ASSERT_EQ(orphan.size(), 1u);
    EXPECT_NE(orphan[0].find("without a prior inject"),
              std::string::npos);
}

TEST(CheckTrace, SegmentDoubleClaimAndDoubleFree)
{
    std::vector<TraceEvent> events = {
        ev(EventKind::HeaderHop, 1, 1, 5, 0, 3, 2),
        ev(EventKind::HeaderHop, 2, 2, 6, 1, 3, 2), // double claim
        ev(EventKind::SegmentFree, 3, 1, 5, 0, 3, 2),
        ev(EventKind::SegmentFree, 4, 1, 5, 0, 3, 2), // double free
    };
    const auto problems = checkTrace(events);
    ASSERT_EQ(problems.size(), 2u);
    EXPECT_NE(problems[0].find("while held by bus 5"),
              std::string::npos);
    EXPECT_NE(problems[1].find("freed while already free"),
              std::string::npos);
}

TEST(CheckTrace, DroppedFackLeaksTheBus)
{
    auto events = cleanTrace();
    // Drop the Fack teardown (and the free it would have caused).
    events.resize(4);
    const auto problems = checkTrace(events);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("dropped Fack"), std::string::npos);
}

TEST(CheckTrace, TimeRegressionAndLemmaOneSkew)
{
    const auto regress = checkTrace({
        ev(EventKind::Inject, 10, 1),
        ev(EventKind::Inject, 5, 2),
    });
    ASSERT_EQ(regress.size(), 1u);
    EXPECT_NE(regress[0].find("goes back in time"),
              std::string::npos);

    // Adjacent INCs two cycles apart violate Lemma 1.
    const auto skew = checkTrace({
        ev(EventKind::CycleFlip, 1, 0, 0, 0, 0, -1, 5),
        ev(EventKind::CycleFlip, 2, 0, 0, 1, 1, -1, 3),
    });
    ASSERT_FALSE(skew.empty());
    EXPECT_NE(skew[0].find("Lemma 1"), std::string::npos);

    // One cycle apart is the systolic steady state: healthy.
    EXPECT_TRUE(checkTrace({
                    ev(EventKind::CycleFlip, 1, 0, 0, 0, 0, -1, 5),
                    ev(EventKind::CycleFlip, 2, 0, 0, 1, 1, -1, 4),
                }).empty());
}

TEST(ChromeTrace, SyntheticSpansExportValidJson)
{
    SpanBuilder b;
    for (const TraceEvent &e : cleanTrace())
        b.onEvent(e);
    b.onEvent(ev(EventKind::SegmentFail, 55, 0, 0, 2, 2, 0));
    b.finish(60);

    std::ostringstream out;
    writeChromeTrace(out, b.spans(), b.instants());
    const std::string json = out.str();
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_EQ(json.rfind("[", 0), 0u);
    // Named tracks and at least one complete event and one instant.
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("segment_fail"), std::string::npos);
}

TEST(SpanBuilder, RealNetworkTraceReconstructsAndChecksClean)
{
    sim::Simulator s;
    core::RmbConfig cfg;
    cfg.numNodes = 8;
    cfg.numBuses = 2;
    cfg.seed = 11;
    cfg.verify = core::VerifyLevel::Full;
    core::RmbNetwork net(s, cfg);

    // Record the raw events and fold spans in one pass.
    struct VectorSink final : TraceSink
    {
        std::vector<TraceEvent> events;
        void
        onEvent(const TraceEvent &e) override
        {
            events.push_back(e);
        }
    } raw;
    SpanBuilder builder;
    TeeSink tee(&raw, &builder);
    net.setTraceSink(&tee);

    sim::Random rng(23);
    const auto pairs =
        workload::toPairs(workload::randomFullTraffic(8, rng));
    const auto r = workload::runBatch(net, pairs, 12, 1'000'000);
    ASSERT_TRUE(r.completed);
    s.runFor(2000); // drain trailing Facks
    builder.finish(s.now());

    // Every delivered message produced a Setup and a Streaming
    // span; Nack-retry may add refused setups on top.
    const auto countKind = [&builder](SpanKind kind) {
        std::size_t n = 0;
        for (const Span &span : builder.spans())
            n += span.kind == kind ? 1 : 0;
        return n;
    };
    EXPECT_GE(countKind(SpanKind::Setup), pairs.size());
    EXPECT_EQ(countKind(SpanKind::Streaming), pairs.size());
    EXPECT_EQ(builder.phaseStat(SpanKind::Streaming).count(),
              pairs.size());

    // The live trace passes the offline causality checker.
    const auto problems = checkTrace(raw.events);
    for (const auto &p : problems)
        ADD_FAILURE() << p;

    // And exports a loadable Chrome trace.
    std::ostringstream out;
    writeChromeTrace(out, builder.spans(), builder.instants());
    EXPECT_TRUE(jsonValid(out.str()));
}

TEST(PanicHookDeath, AttachedSinkDumpsFlightRecorderOnPanic)
{
    // setTraceSink wires the sink's postMortem() into the panic
    // path: any invariant-audit panic must print the recent event
    // tail before aborting.
    sim::Simulator s;
    core::RmbConfig cfg;
    cfg.numNodes = 8;
    cfg.numBuses = 2;
    cfg.seed = 1;
    obs::RingBufferSink recorder(16);
    core::RmbNetwork net(s, cfg);
    net.setTraceSink(&recorder);
    net.send(0, 3, 8);
    s.runFor(50);
    ASSERT_GT(recorder.seen(), 0u);
    EXPECT_DEATH(panic("synthetic failure"),
                 "trace flight recorder: last");
}

} // namespace
} // namespace obs
} // namespace rmb
