/**
 * @file
 * Shared harness for the bench binaries.
 *
 * Every bench regenerates one artifact of the paper (see DESIGN.md's
 * experiment index) and prints its TextTables through a
 * bench::Harness, which owns the common command line:
 *
 *   --fast         shrink the sweeps for smoke runs
 *   --json <path>  also write an obs::RunReport (banner fields plus
 *                  every printed table) as one JSON document
 *   --seed <n>     override the experiment's base RNG seed
 *   --jobs <n>     worker threads for benches that fan their grid
 *                  through common::Runner (0 = all cores); results are
 *                  identical for every value, so it is deliberately
 *                  not recorded in the JSON report
 */

#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/table.hh"
#include "obs/json.hh"
#include "obs/run_report.hh"

namespace rmb {
namespace bench {

/**
 * Parses the common bench flags, prints the experiment banner, and
 * records every table printed through it; if --json was given, the
 * destructor writes the accumulated RunReport.
 */
class Harness
{
  public:
    Harness(int argc, char **argv, std::string exp_id,
            std::string what)
        : expId_(std::move(exp_id)), what_(std::move(what)),
          report_(toolName(argc, argv))
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--fast") {
                fast_ = true;
            } else if (arg == "--json") {
                if (i + 1 >= argc)
                    usage(argv[0], "--json needs a file path", 2);
                jsonPath_ = argv[++i];
            } else if (arg == "--seed") {
                if (i + 1 >= argc)
                    usage(argv[0], "--seed needs an integer", 2);
                seed_ = common::flagUint<std::uint64_t>(argv[0], arg,
                                                        argv[++i]);
                seedSet_ = true;
            } else if (arg == "--jobs") {
                if (i + 1 >= argc)
                    usage(argv[0], "--jobs needs an integer", 2);
                jobs_ = common::flagUint<unsigned>(argv[0], arg,
                                                   argv[++i]);
            } else if (arg == "--help" || arg == "-h") {
                usage(argv[0], "", 0);
            } else {
                usage(argv[0], "unknown option: " + arg, 2);
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

    /** The --seed value, or @p fallback if none was given. */
    std::uint64_t
    seed(std::uint64_t fallback) const
    {
        return seedSet_ ? seed_ : fallback;
    }

    /** Worker threads for grid execution (1 unless --jobs given;
     *  --jobs 0 means one per core, resolved by common::Runner). */
    unsigned jobs() const { return jobs_; }

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

    [[noreturn]] static void
    usage(const char *argv0, const std::string &error, int code)
    {
        if (!error.empty())
            std::cerr << argv0 << ": " << error << '\n';
        (code == 0 ? std::cout : std::cerr)
            << "usage: " << argv0
            << " [--fast] [--json <path>] [--seed <n>]"
               " [--jobs <n>] [--help]\n";
        std::exit(code);
    }

    std::string expId_;
    std::string what_;
    bool fast_ = false;
    std::string jsonPath_;
    std::uint64_t seed_ = 0;
    bool seedSet_ = false;
    unsigned jobs_ = 1;
    obs::RunReport report_;
    /** Pre-serialised JSON object per printed table. */
    std::vector<std::string> tables_;
};

} // namespace bench
} // namespace rmb
