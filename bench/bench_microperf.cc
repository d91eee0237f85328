/**
 * @file
 * Experiment E11: google-benchmark microbenchmarks of the simulator
 * substrate - event queue throughput, RNG, full RMB simulation rate
 * (protocol events per second) - so regressions in the kernel are
 * visible independently of the modelled results.
 *
 * Without --json the binary runs the google-benchmark suite (its own
 * --benchmark_* flags pass through; --benchmark_out=FILE writes its
 * JSON).  With --json FILE it runs the kernel-vs-event speedup gate
 * instead and writes the gate report there: the bench_gate ctest
 * checks it against the golden tests/data/BENCH_microperf.json.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <ctime>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/env.hh"
#include "obs/json.hh"
#include "obs/prof.hh"
#include "obs/sinks.hh"
#include "rmb/engine.hh"
#include "rmb/network.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "workload/permutation.hh"

namespace {

using namespace rmb;

/**
 * Far-tier case: batches spread over 1024 ticks from the last fired
 * tick, so most events wait in the heap and move into the wheel as
 * the base nears them.
 */
void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const auto batch = static_cast<std::uint64_t>(state.range(0));
    sim::EventQueue q;
    sim::Tick now = 0;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < batch; ++i)
            q.schedule(now + (i * 2654435761u) % 1024,
                       [&sink] { ++sink; });
        while (!q.empty())
            now = q.runOne();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(256)->Arg(4096);

/**
 * Near-tier steady state, the shape of the event engine's INC ticks:
 * range(0) events pending, and each one fired is rescheduled 1-10
 * ticks on, within the wheel's span.
 */
void
BM_EventQueueSteadyNear(benchmark::State &state)
{
    const auto pending = static_cast<std::uint64_t>(state.range(0));
    sim::EventQueue q;
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < pending; ++i)
        q.schedule(1 + i % 10, [&sink] { ++sink; });
    std::uint64_t i = 0;
    for (auto _ : state) {
        const sim::Tick now = q.runOne();
        q.schedule(now + 1 + (++i * 2654435761u) % 10,
                   [&sink] { ++sink; });
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueSteadyNear)->Arg(256)->Arg(4096);

void
BM_RandomNext(benchmark::State &state)
{
    sim::Random rng(42);
    std::uint64_t sink = 0;
    for (auto _ : state)
        sink += rng.next();
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RandomNext);

void
BM_RandomUniformInt(benchmark::State &state)
{
    sim::Random rng(42);
    std::uint64_t sink = 0;
    for (auto _ : state)
        sink += rng.uniformInt(1000);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RandomUniformInt);

void
BM_RmbPermutationBatch(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const auto k = static_cast<std::uint32_t>(state.range(1));
    std::uint64_t events = 0;
    for (auto _ : state) {
        sim::Simulator s;
        core::RmbConfig cfg;
        cfg.numNodes = n;
        cfg.numBuses = k;
        cfg.verify = core::VerifyLevel::Off;
        core::RmbNetwork net(s, cfg);
        sim::Random rng(7);
        const auto pairs = workload::toPairs(
            workload::randomFullTraffic(n, rng));
        for (const auto &[src, dst] : pairs)
            net.send(src, dst, 32);
        while (!net.quiescent())
            s.run(1024);
        events += s.numExecuted();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.SetLabel("simulated events/s");
}
BENCHMARK(BM_RmbPermutationBatch)
    ->Args({16, 4})
    ->Args({64, 4})
    ->Args({64, 8});

/**
 * The engine-vs-engine heart of the bench: the same batch of random
 * full-traffic messages through either backend (selected by
 * range(0)), measured in delivered messages per second.  The
 * speedup gate below reuses runEngineBatch.
 */
std::uint64_t
runEngineBatch(core::EngineKind kind, std::uint32_t n,
               std::uint32_t k, std::uint32_t rounds)
{
    sim::Simulator s;
    core::RmbConfig cfg;
    cfg.numNodes = n;
    cfg.numBuses = k;
    cfg.engine = kind;
    cfg.verify = core::VerifyLevel::Off;
    auto net = core::makeEngine(s, cfg);
    sim::Random rng(7);
    for (std::uint32_t r = 0; r < rounds; ++r) {
        const auto pairs = workload::toPairs(
            workload::randomFullTraffic(n, rng));
        for (const auto &[src, dst] : pairs)
            net->send(src, dst, 32);
        while (!net->quiescent())
            s.run(1024);
    }
    return net->stats().delivered;
}

void
BM_RmbEngineBatch(benchmark::State &state)
{
    const auto kind = state.range(0) == 0
                          ? core::EngineKind::Event
                          : core::EngineKind::Kernel;
    const auto n = static_cast<std::uint32_t>(state.range(1));
    const auto k = static_cast<std::uint32_t>(state.range(2));
    std::uint64_t delivered = 0;
    for (auto _ : state)
        delivered += runEngineBatch(kind, n, k, 4);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(delivered));
    state.SetLabel(std::string(core::engineKindName(kind)) +
                   " messages/s");
}
BENCHMARK(BM_RmbEngineBatch)
    ->Args({0, 16, 4})
    ->Args({1, 16, 4})
    ->Args({0, 64, 4})
    ->Args({1, 64, 4})
    ->Args({0, 64, 8})
    ->Args({1, 64, 8});

void
BM_RmbFullVerifyOverhead(benchmark::State &state)
{
    const bool full = state.range(0) != 0;
    for (auto _ : state) {
        sim::Simulator s;
        core::RmbConfig cfg;
        cfg.numNodes = 16;
        cfg.numBuses = 4;
        cfg.verify = full ? core::VerifyLevel::Full
                          : core::VerifyLevel::Off;
        core::RmbNetwork net(s, cfg);
        sim::Random rng(3);
        const auto pairs = workload::toPairs(
            workload::randomFullTraffic(16, rng));
        for (const auto &[src, dst] : pairs)
            net.send(src, dst, 16);
        while (!net.quiescent())
            s.run(1024);
    }
    state.SetLabel(full ? "VerifyLevel::Full" : "VerifyLevel::Off");
}
BENCHMARK(BM_RmbFullVerifyOverhead)->Arg(0)->Arg(1);

/**
 * Tracing-overhead gate: the same permutation batch with no sink
 * attached (the hot path must stay a single pointer test) versus a
 * NullSink (full event construction, discarded).  A widening gap
 * between Arg(0) here and its historical value means something
 * started paying trace costs unconditionally.
 */
void
BM_RmbTraceOverhead(benchmark::State &state)
{
    const bool traced = state.range(0) != 0;
    obs::NullSink null_sink;
    for (auto _ : state) {
        sim::Simulator s;
        core::RmbConfig cfg;
        cfg.numNodes = 16;
        cfg.numBuses = 4;
        cfg.verify = core::VerifyLevel::Off;
        core::RmbNetwork net(s, cfg);
        if (traced)
            net.setTraceSink(&null_sink);
        sim::Random rng(3);
        const auto pairs = workload::toPairs(
            workload::randomFullTraffic(16, rng));
        for (const auto &[src, dst] : pairs)
            net.send(src, dst, 16);
        while (!net.quiescent())
            s.run(1024);
    }
    state.SetLabel(traced ? "NullSink attached" : "no sink");
}
BENCHMARK(BM_RmbTraceOverhead)->Arg(0)->Arg(1);

/**
 * The sustained-streaming workload: an open-loop stream of
 * long-payload circuits at moderate load, the regime the paper
 * built the RMB for (section 2: multi-flit streams over pipelined
 * virtual buses).  This is where the cycle kernel's structural
 * advantage lives - the event engine keeps every INC's cycle FSM
 * firing for the whole simulated interval, while the kernel sleeps
 * through provably-idle stretches - so the default-config speedup
 * floor is measured here.
 */
std::uint64_t
runEngineStream(core::EngineKind kind, std::uint32_t n,
                std::uint32_t k, std::uint32_t payload,
                std::uint32_t msgs, std::uint32_t mean_gap)
{
    sim::Simulator s;
    core::RmbConfig cfg;
    cfg.numNodes = n;
    cfg.numBuses = k;
    cfg.engine = kind;
    cfg.verify = core::VerifyLevel::Off;
    auto net = core::makeEngine(s, cfg);
    sim::Random rng(7);
    sim::Tick at = 0;
    for (std::uint32_t m = 0; m < msgs; ++m) {
        const auto src =
            static_cast<net::NodeId>(rng.uniformInt(n - 1));
        auto dst = static_cast<net::NodeId>(rng.uniformInt(n - 1));
        if (dst >= src)
            dst = (dst + 1) % n;
        at += rng.uniformInt(2 * mean_gap);
        s.scheduleAt(at, [&net, src, dst, payload] {
            net->send(src, dst, payload);
        });
    }
    do {
        s.run(4096);
    } while (!net->quiescent());
    return net->stats().delivered;
}

/**
 * Thread-CPU seconds for one engine run, best of @p tries (the
 * minimum is the least noise-contaminated estimate).  Both gates
 * divide two measurements, so any wall-clock noise (preemption by a
 * neighbouring process, timer jitter) on either side reads as a
 * speedup or an overhead; thread CPU time only advances while this
 * thread runs, which makes the ratios stable on shared machines.
 * The bench is single-threaded, so CPU time covers all the work.
 */
template <typename RunFn>
double
bestOfCpu(int tries, RunFn &&run)
{
    auto cpu_now = [] {
#if defined(CLOCK_THREAD_CPUTIME_ID)
        timespec ts;
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
#else
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now()
                       .time_since_epoch())
            .count();
#endif
    };
    double best = 1e300;
    for (int t = 0; t < tries; ++t) {
        const double t0 = cpu_now();
        const std::uint64_t delivered = run();
        const double t1 = cpu_now();
        benchmark::DoNotOptimize(delivered);
        best = std::min(best, t1 - t0);
    }
    return best;
}

/**
 * The kernel-vs-event speedup gate behind --json/--min-speedup:
 * measures both engines on a small config grid and enforces a hard
 * floor per config (the default (16, 4) one is --min-speedup), plus
 * the self-profiler overhead regime: enabled-vs-disabled CPU time on
 * the sustained stream, bounded at 5% per engine.  A violated floor
 * or bound sets the exit code.  The report carries each floor and
 * bound with its binary indicator; the measured times and ratios sit
 * under the top-level "host" member, which the golden
 * (tests/data/BENCH_microperf.json) leaves out.
 */
int
runSpeedupReport(bench::Harness &h)
{
    const bool fast = h.fast();
    const double min_speedup = h.minSpeedup();
    struct Point
    {
        std::uint32_t n;
        std::uint32_t k;
        bool stream;  //!< sustained streaming vs saturated batch
        double floor; //!< required speedup for the floor leaf
        int reps;     //!< back-to-back runs of the work per sample
    };
    // The default config carries the main claim on the sustained
    // streaming regime; the saturated setup-storm batches (tiny
    // payloads, every node injecting at once) are the kernel's
    // worst case and hold conservative floors alongside.  Each floor
    // is a bound on kernel CPU time relative to the event engine's:
    // when the event engine gets faster, a floor is re-based as
    // old floor x (new / old median event seconds), rounded down to
    // 0.1, which admits the same absolute kernel time as before.
    // Every floor divides by a kernel CPU sample, so each sample
    // repeats its work enough times to run for at least about 10 ms
    // (a single stream run took about 1.5 ms, a 16-node batch 0.6 ms
    // and a 64-node batch 10 ms on a 4-core x86 VM): the ratio is
    // the same, and a shorter sample would carry its host noise
    // across the floor.
    const std::vector<Point> grid = {
        {16, 4, true, min_speedup, 7},
        {16, 4, false, 1.0, 17},
        {64, 4, false, 2.0, 2},
        {64, 8, false, 2.2, 2},
    };
    // Every batch sample runs the full round count, --fast too: with
    // fewer rounds the kernel side of a batch ratio is a 3-5 ms
    // sample, short enough for host noise to swing the ratio across
    // its floor.
    const std::uint32_t rounds = 8;
    const std::uint32_t stream_msgs = fast ? 300 : 800;
    const int tries = fast ? 3 : 5;

    obs::JsonWriter w;
    obs::JsonWriter host;
    w.beginObject();
    host.beginObject();
    host.beginObject("engine_speedup");
    bool ok = true;
    double default_speedup = 0.0;
    for (const Point &pt : grid) {
        auto time_engine = [&](core::EngineKind kind) {
            return bestOfCpu(1, [&] {
                std::uint64_t delivered = 0;
                for (int r = 0; r < pt.reps; ++r) {
                    delivered +=
                        pt.stream ? runEngineStream(kind, pt.n, pt.k,
                                                    512, stream_msgs, 250)
                                  : runEngineBatch(kind, pt.n, pt.k,
                                                   rounds);
                }
                return delivered;
            });
        };
        // Best of `tries` per side, the two sides' tries interleaved:
        // a host that changes speed mid-config then slows both sides
        // alike instead of only the one it was timing.
        double ev = 1e300;
        double kn = 1e300;
        for (int t = 0; t < tries; ++t) {
            ev = std::min(ev, time_engine(core::EngineKind::Event));
            kn = std::min(kn, time_engine(core::EngineKind::Kernel));
        }
        const double speedup = ev / kn;
        if (pt.stream)
            default_speedup = speedup;
        const bool holds = speedup >= pt.floor;
        ok = ok && holds;
        const std::string key =
            "n=" + std::to_string(pt.n) +
            ",k=" + std::to_string(pt.k) +
            (pt.stream ? ",stream" : ",batch");
        w.beginObject(key);
        w.field("required", pt.floor);
        w.field("floor_holds", holds ? 1.0 : 0.0);
        w.endObject();
        host.beginObject(key);
        host.field("event_seconds", ev);
        host.field("kernel_seconds", kn);
        host.field("speedup", speedup);
        host.endObject();
        (holds ? std::cout : std::cerr)
            << "engine_speedup " << key << ": " << speedup
            << "x (event " << ev << "s, kernel " << kn << "s, floor "
            << pt.floor << "x " << (holds ? "holds" : "VIOLATED")
            << ")\n";
    }
    w.endObject();
    host.endObject();
    h.report().setRaw("engine_speedup", w.str());

    // Profiler-overhead gate: the same sustained-streaming workload
    // with the self-profiler disabled vs enabled, per engine.  The
    // enabled run exercises the real instrumentation (per-handler
    // scopes on the event engine, per-wake scopes on the kernel), so
    // a regression here means somebody moved a scope onto a path hot
    // enough to matter.
    const double kProfilerBound = 1.05;
    obs::JsonWriter p;
    p.beginObject();
    host.beginObject("profiler_overhead");
    for (const auto kind :
         {core::EngineKind::Event, core::EngineKind::Kernel}) {
        // The kernel clears the same stream ~6x faster than the
        // event engine, so with a shared message count its timing
        // window would be sub-millisecond and the 5% bound would
        // gate on scheduler noise.  Scale its workload so both
        // engines measure over comparable multi-ms windows.
        const std::uint32_t prof_msgs =
            kind == core::EngineKind::Kernel ? stream_msgs * 16
                                             : stream_msgs;
        // Paired measurement: run off/on back-to-back and gate the
        // *best pair's* ratio.  Shared machines swing CPU frequency
        // by tens of percent over seconds, so two independent
        // best-of-N measurements can disagree by more than the
        // bound with zero real overhead; within one ~40ms pair the
        // frequency is near-constant, and a genuine regression
        // shows up in every pair while noise never does.
        const int prof_pairs = 7;
        auto time_stream = [&] {
            return bestOfCpu(1, [&] {
                return runEngineStream(kind, 16, 4, 512, prof_msgs,
                                       250);
            });
        };
        double off = 0.0;
        double on = 0.0;
        double ratio = 1e300;
        for (int pair = 0; pair < prof_pairs; ++pair) {
            obs::prof::setEnabled(false);
            const double off_t = time_stream();
            obs::prof::setEnabled(true);
            const double on_t = time_stream();
            obs::prof::setEnabled(false);
            if (on_t / off_t < ratio) {
                ratio = on_t / off_t;
                off = off_t;
                on = on_t;
            }
        }
        // Debugging aid for overhead regressions: dump the phase
        // tree accumulated over the enabled halves so the offending
        // scope counts are visible.
        if (common::envFlag("RMB_PROF_DUMP"))
            std::cout << obs::prof::reportJson() << "\n";
        obs::prof::reset();
        const bool within = ratio <= kProfilerBound;
        ok = ok && within;
        p.beginObject(core::engineKindName(kind));
        p.field("bound", kProfilerBound);
        p.field("within_bound", within ? 1.0 : 0.0);
        p.endObject();
        host.beginObject(core::engineKindName(kind));
        host.field("off_seconds", off);
        host.field("on_seconds", on);
        host.field("overhead_ratio", ratio);
        host.endObject();
        (within ? std::cout : std::cerr)
            << "profiler_overhead " << core::engineKindName(kind)
            << ": " << ratio << "x (off " << off << "s, on " << on
            << "s, bound " << kProfilerBound << "x "
            << (within ? "holds" : "VIOLATED") << ")\n";
    }
    p.endObject();
    host.endObject();
    host.endObject();
    h.report().setRaw("profiler_overhead", p.str());
    h.report().setRaw("host", host.str());

    if (!ok) {
        std::cerr << "bench_microperf: speedup floor or profiler"
                     " overhead bound violated (default config"
                     " measured "
                  << default_speedup << "x)\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness h(argc, argv, "E11",
                     "simulator microbenchmarks and the kernel-vs-event"
                     " speedup gate",
                     {.minSpeedup = 4.6, .benchmarkFlags = true});
    if (h.json())
        return runSpeedupReport(h);
    if (h.minSpeedupSet()) {
        std::cerr << "bench_microperf: --min-speedup is read only with"
                     " --json (the speedup gate)\n";
        return 2;
    }
    // google-benchmark keeps pointers into its arguments while it
    // runs; every one here outlives main's use of them.
    std::string min_time = "--benchmark_min_time=0.05";
    std::vector<char *> args = {argv[0]};
    if (h.fast())
        args.push_back(min_time.data());
    args.insert(args.end(), h.benchmarkFlags().begin(),
                h.benchmarkFlags().end());
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
