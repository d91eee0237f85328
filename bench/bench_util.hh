/**
 * @file
 * Shared harness for the bench binaries.
 *
 * Every bench regenerates one artifact of the paper (see DESIGN.md's
 * experiment index) and prints its results through a bench::Harness,
 * which owns the one bench command line:
 *
 *   --fast         shrink the sweeps for smoke runs (a bench with one
 *                  size runs that size)
 *   --json <path>  also write an obs::RunReport (banner fields, the
 *                  bench's own sections and every printed table) as
 *                  one JSON document
 *
 * and, for the benches that declare them in bench::Reads,
 *
 *   --seed <n>         override the experiment's base RNG seed
 *   --jobs <n>         worker threads for benches that fan their grid
 *                      through common::Runner (0 = all cores); results
 *                      are identical for every value, so it is
 *                      deliberately not recorded in the JSON report
 *   --min-speedup <x>  the floor of a bench that gates itself
 *
 * A flag the bench does not read is refused (exit 2), never ignored.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/table.hh"
#include "obs/json.hh"
#include "obs/run_report.hh"
#include "rmb/engine.hh"
#include "sim/simulator.hh"

namespace rmb {
namespace bench {

/** The optional flags a bench reads; the Harness refuses the rest. */
struct Reads
{
    bool seed = false; //!< --seed <n>
    bool jobs = false; //!< --jobs <n>
    /** --min-speedup <x>, defaulting to this floor; none if unset. */
    std::optional<double> minSpeedup = std::nullopt;
    /** google-benchmark's own --benchmark_* flags, passed through. */
    bool benchmarkFlags = false;
};

/**
 * Parses the bench command line, prints the experiment banner, and
 * records every table printed through it; if --json was given, the
 * destructor writes the accumulated RunReport.
 */
class Harness
{
  public:
    Harness(int argc, char **argv, std::string exp_id,
            std::string what, Reads reads = {})
        : expId_(std::move(exp_id)), what_(std::move(what)),
          reads_(reads), tool_(toolName(argc, argv)),
          minSpeedup_(reads.minSpeedup.value_or(0.0)), report_(tool_)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    usage(arg + " needs a value", 2);
                return argv[++i];
            };
            if (arg == "--fast") {
                fast_ = true;
            } else if (arg == "--json") {
                jsonPath_ = value();
            } else if (arg == "--seed" && reads_.seed) {
                seed_ = common::flagUint<std::uint64_t>(
                    tool_.c_str(), arg, value());
                seedSet_ = true;
            } else if (arg == "--jobs" && reads_.jobs) {
                jobs_ = common::flagUint<unsigned>(tool_.c_str(), arg,
                                                   value());
            } else if (arg == "--min-speedup" && reads_.minSpeedup) {
                minSpeedup_ =
                    common::flagDouble(tool_.c_str(), arg, value());
                minSpeedupSet_ = true;
            } else if (arg.rfind("--benchmark_", 0) == 0 &&
                       reads_.benchmarkFlags) {
                benchmarkFlags_.push_back(argv[i]);
            } else if (arg == "--help" || arg == "-h") {
                usage("", 0);
            } else if (arg == "--seed" || arg == "--jobs" ||
                       arg == "--min-speedup") {
                usage(arg + " is not read by " + tool_, 2);
            } else {
                usage("unknown option: " + arg, 2);
            }
        }
        report_.set("experiment", expId_);
        report_.set("title", what_);
        report_.set("fast", fast_);
        if (seedSet_)
            report_.set("seed", seed_);

        std::cout
            << "==============================================\n"
            << "Experiment " << expId_ << ": " << what_ << "\n"
            << "==============================================\n";
    }

    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    ~Harness()
    {
        if (jsonPath_.empty())
            return;
        report_.setRaw("tables", obs::jsonArray(tables_));
        report_.write(jsonPath_);
    }

    /** True under --fast: smaller sweeps, same shapes. */
    bool fast() const { return fast_; }

    /** True when --json asked for a report. */
    bool json() const { return !jsonPath_.empty(); }

    /** The --seed value, or @p fallback if none was given. */
    std::uint64_t
    seed(std::uint64_t fallback) const
    {
        return seedSet_ ? seed_ : fallback;
    }

    /** Worker threads for grid execution (1 unless --jobs given;
     *  --jobs 0 means one per core, resolved by common::Runner). */
    unsigned jobs() const { return jobs_; }

    /** The gate floor: --min-speedup, else Reads::minSpeedup. */
    double minSpeedup() const { return minSpeedup_; }

    /** True when --min-speedup was given on the command line. */
    bool minSpeedupSet() const { return minSpeedupSet_; }

    /** The --benchmark_* flags, in command-line order. */
    const std::vector<char *> &
    benchmarkFlags() const
    {
        return benchmarkFlags_;
    }

    /** The report --json writes: a bench whose results are nested
     *  sections rather than tables adds them here. */
    obs::RunReport &report() { return report_; }

    /** Print @p t to stdout and record it for the JSON report. */
    void
    table(const TextTable &t)
    {
        t.print(std::cout);
        std::cout << '\n';
        tables_.push_back(obs::tableJson(t));
    }

  private:
    static std::string
    toolName(int argc, char **argv)
    {
        if (argc < 1 || argv[0] == nullptr)
            return "bench";
        std::string name = argv[0];
        const auto slash = name.find_last_of('/');
        if (slash != std::string::npos)
            name = name.substr(slash + 1);
        return name.empty() ? "bench" : name;
    }

    [[noreturn]] void
    usage(const std::string &error, int code) const
    {
        if (!error.empty())
            std::cerr << tool_ << ": " << error << '\n';
        (code == 0 ? std::cout : std::cerr)
            << "usage: " << tool_ << " [--fast] [--json <path>]"
            << (reads_.seed ? " [--seed <n>]" : "")
            << (reads_.jobs ? " [--jobs <n>]" : "")
            << (reads_.minSpeedup ? " [--min-speedup <x>]" : "")
            << (reads_.benchmarkFlags ? " [--benchmark_...]" : "")
            << " [--help]\n";
        std::exit(code);
    }

    std::string expId_;
    std::string what_;
    Reads reads_;
    std::string tool_;
    bool fast_ = false;
    std::string jsonPath_;
    std::uint64_t seed_ = 0;
    bool seedSet_ = false;
    unsigned jobs_ = 1;
    double minSpeedup_ = 0.0;
    bool minSpeedupSet_ = false;
    std::vector<char *> benchmarkFlags_;
    obs::RunReport report_;
    /** Pre-serialised JSON object per printed table. */
    std::vector<std::string> tables_;
};

/** One open-loop injection of a seed-derived workload. */
struct Send
{
    sim::Tick at;
    net::NodeId src;
    net::NodeId dst;
};

/** Schedule every send of @p sends into @p network on
 *  @p simulator, @p payload data flits each. */
inline void
scheduleSends(sim::Simulator &simulator, net::Network &network,
              const std::vector<Send> &sends, std::uint32_t payload)
{
    for (const Send &s : sends) {
        simulator.scheduleAt(s.at, [&network, s, payload] {
            network.send(s.src, s.dst, payload);
        });
    }
}

/** FNV-1a over the outcome digest (every message's final state and
 *  path length): a compact, platform-independent fingerprint. */
inline std::string
digestFingerprint(const net::Network &network)
{
    const std::string digest = core::outcomeDigest(network);
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : digest) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace bench
} // namespace rmb
