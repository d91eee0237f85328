/**
 * @file
 * Experiment E11: google-benchmark microbenchmarks of the simulator
 * substrate - event queue throughput, RNG, full RMB simulation rate
 * (protocol events per second) - so regressions in the kernel are
 * visible independently of the modelled results.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/flags.hh"
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

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const auto batch = static_cast<std::uint64_t>(state.range(0));
    sim::EventQueue q;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < batch; ++i)
            q.schedule((i * 2654435761u) % 1024, [&sink] { ++sink; });
        while (!q.empty())
            q.runOne();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(256)->Arg(4096);

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
 * --report/--min-speedup machinery below reuses runEngineBatch for
 * the kernel-vs-event speedup gate.
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
 * Wall-clock seconds for one engine run, best of @p tries (the
 * minimum is the least noise-contaminated estimate).
 */
template <typename RunFn>
double
bestOf(int tries, RunFn &&run)
{
    double best = 1e300;
    for (int t = 0; t < tries; ++t) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t delivered = run();
        const auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(delivered);
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

/**
 * Thread-CPU seconds for one engine run, best of @p tries.  The
 * profiler-overhead gate divides two measurements of the *same*
 * workload, so any wall-clock noise (preemption by a neighbouring
 * process, timer jitter) on either side reads as overhead; thread
 * CPU time only advances while this thread runs, which makes the
 * ratio stable at the percent level on shared machines.  The bench
 * is single-threaded, so CPU time covers all the work.
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
 * The kernel-vs-event speedup gate behind --report/--min-speedup:
 * measures both engines on a small config grid, writes a sweep
 * compare-able JSON report, and enforces the hard floor on the
 * default (16, 4) configuration.  Raw speedups are in the report
 * for humans; the *gated* leaves are the binary floor indicators,
 * which stay stable across machines (tests/data/BENCH_microperf.json
 * pins them with zero tolerance).  The report also carries the
 * self-profiler overhead regime: enabled-vs-disabled wall clock on
 * the sustained stream, bounded at 5% per engine.
 */
int
runSpeedupReport(const std::string &path, double min_speedup,
                 bool fast)
{
    struct Point
    {
        std::uint32_t n;
        std::uint32_t k;
        bool stream;  //!< sustained streaming vs saturated batch
        double floor; //!< required speedup for the floor leaf
    };
    // The default config carries the 10x claim on the sustained
    // streaming regime; the saturated setup-storm batches (tiny
    // payloads, every node injecting at once) are the kernel's
    // worst case and hold conservative floors alongside.
    const std::vector<Point> grid = {
        {16, 4, true, min_speedup},
        {16, 4, false, 2.0},
        {64, 4, false, 5.0},
        {64, 8, false, 5.0},
    };
    const std::uint32_t rounds = fast ? 2 : 8;
    const std::uint32_t stream_msgs = fast ? 300 : 800;
    const int tries = fast ? 3 : 5;

    obs::JsonWriter w;
    w.beginObject();
    w.field("tool", std::string("bench_microperf"));
    w.field("experiment", std::string("E11"));
    w.field("fast", fast);
    w.beginObject("engine_speedup");
    bool ok = true;
    double default_speedup = 0.0;
    for (const Point &pt : grid) {
        auto time_engine = [&](core::EngineKind kind) {
            if (pt.stream) {
                return bestOf(tries, [&] {
                    return runEngineStream(kind, pt.n, pt.k, 512,
                                           stream_msgs, 250);
                });
            }
            return bestOf(tries, [&] {
                return runEngineBatch(kind, pt.n, pt.k, rounds);
            });
        };
        const double ev = time_engine(core::EngineKind::Event);
        const double kn = time_engine(core::EngineKind::Kernel);
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
        w.field("event_seconds", ev);
        w.field("kernel_seconds", kn);
        w.field("speedup", speedup);
        w.field("required", pt.floor);
        w.field("floor_holds", holds ? 1.0 : 0.0);
        w.endObject();
        std::cout << "engine_speedup " << key << ": " << speedup
                  << "x (event " << ev << "s, kernel " << kn
                  << "s, floor " << pt.floor << "x "
                  << (holds ? "holds" : "VIOLATED") << ")\n";
    }
    w.endObject();

    // Profiler-overhead gate: the same sustained-streaming workload
    // with the self-profiler disabled vs enabled, per engine.  The
    // enabled run exercises the real instrumentation (per-handler
    // scopes on the event engine, per-wake scopes on the kernel), so
    // a regression here means somebody moved a scope onto a path hot
    // enough to matter.  The gated leaves are the binary bound
    // indicators; the raw ratios ride along for humans.
    const double kProfilerBound = 1.05;
    w.beginObject("profiler_overhead");
    for (const auto kind :
         {core::EngineKind::Event, core::EngineKind::Kernel}) {
        // The kernel clears the same stream ~15-20x faster than the
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
        w.beginObject(core::engineKindName(kind));
        w.field("off_seconds", off);
        w.field("on_seconds", on);
        w.field("overhead_ratio", ratio);
        w.field("bound", kProfilerBound);
        w.field("within_bound", within ? 1.0 : 0.0);
        w.endObject();
        std::cout << "profiler_overhead "
                  << core::engineKindName(kind) << ": " << ratio
                  << "x (off " << off << "s, on " << on
                  << "s, bound " << kProfilerBound << "x "
                  << (within ? "holds" : "VIOLATED") << ")\n";
    }
    w.endObject();
    w.endObject();

    std::ofstream out(path);
    if (!out) {
        std::cerr << "bench_microperf: cannot write " << path
                  << "\n";
        return 1;
    }
    out << w.str() << "\n";

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

/**
 * Custom main: accept the common bench flags (--fast, --json <path>,
 * --seed <n>) so every bench binary shares one command line, mapping
 * them onto google-benchmark's own options before Initialize() sees
 * the rest.  --report <file> [--min-speedup <x>] switches to the
 * kernel-vs-event speedup gate instead of the google-benchmark
 * suite (scripts/check_bench.sh and the bench_gate ctest use it).
 */
int
main(int argc, char **argv)
{
    // Own the storage for synthesised arguments; benchmark keeps
    // pointers into them during Initialize, so reserve up front to
    // pin the strings in place.
    std::vector<std::string> storage;
    storage.reserve(static_cast<std::size_t>(argc) + 3);
    auto synth = [&storage](std::string s) {
        storage.push_back(std::move(s));
        return storage.back().data();
    };
    bool fast = false;
    std::string report_path;
    double min_speedup = 10.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fast")
            fast = true;
        else if (arg == "--report" && i + 1 < argc)
            report_path = argv[++i];
        else if (arg == "--min-speedup" && i + 1 < argc)
            min_speedup = common::flagDouble("bench_microperf", arg,
                                              argv[++i]);
    }
    if (!report_path.empty())
        return runSpeedupReport(report_path, min_speedup, fast);

    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fast") {
            args.push_back(synth("--benchmark_min_time=0.05"));
        } else if (arg == "--json" && i + 1 < argc) {
            args.push_back(synth(std::string("--benchmark_out=") +
                                 argv[++i]));
            args.push_back(synth("--benchmark_out_format=json"));
        } else if (arg == "--seed" && i + 1 < argc) {
            ++i; // accepted for interface uniformity; unused here
        } else if (arg == "--min-speedup" && i + 1 < argc) {
            ++i; // only meaningful together with --report
        } else {
            args.push_back(argv[i]);
        }
    }
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
