/**
 * @file
 * sweep - run declarative experiment sweeps and gate regressions.
 *
 * Modes:
 *   sweep run <spec.json> [--jobs N] [--json FILE] [--seed S]
 *             [--quiet]
 *       Materialise the spec's grid, execute every point on a
 *       thread pool, and emit one aggregated RunReport (stdout, or
 *       FILE with --json).  The report is byte-identical for every
 *       --jobs value.  Exits 1 if any point failed, 2 on a bad
 *       spec.
 *
 *   sweep points <spec.json>
 *       List the materialised grid (index, seed, label) without
 *       running anything - for checking what a spec expands to.
 *
 *   sweep compare <report.json> <baseline.json> [--rtol F]
 *                 [--atol F]
 *       Diff a fresh report against a stored baseline with
 *       per-metric tolerances (see docs/SWEEPS.md).  Exits 0 when
 *       every baseline leaf matches, 1 on regression, 2 on bad
 *       input.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "exp/eval.hh"
#include "exp/gate.hh"
#include "common/parallel.hh"
#include "exp/spec.hh"

namespace {

using namespace rmb;

[[noreturn]] void
usage(int code)
{
    std::cerr
        << "usage: sweep run <spec.json> [--jobs N] [--json FILE]"
           " [--seed S] [--quiet]\n"
           "       sweep points <spec.json>\n"
           "       sweep compare <report.json> <baseline.json>"
           " [--rtol F] [--atol F]\n";
    std::exit(code);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "sweep: cannot open '" << path << "'\n";
        std::exit(2);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

exp::SweepSpec
loadSpec(const std::string &path)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    if (!exp::SweepSpec::fromFile(path, spec, errors)) {
        std::cerr << "sweep: spec '" << path << "' is invalid:\n";
        for (const auto &e : errors)
            std::cerr << "  - " << e << "\n";
        std::exit(2);
    }
    return spec;
}

int
runMode(int argc, char **argv)
{
    std::string spec_path;
    std::string json_path;
    unsigned jobs = common::Runner::defaultJobs();
    bool quiet = false;
    bool seed_set = false;
    std::uint64_t seed = 0;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "sweep: " << arg
                          << " needs an argument\n";
                usage(2);
            }
            return argv[++i];
        };
        if (arg == "--jobs") {
            jobs = common::flagUint<unsigned>("sweep", arg, need());
            if (jobs == 0)
                jobs = common::Runner::defaultJobs();
        } else if (arg == "--json") {
            json_path = need();
        } else if (arg == "--seed") {
            seed = common::flagUint<std::uint64_t>("sweep", arg, need());
            seed_set = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (spec_path.empty() && arg[0] != '-') {
            spec_path = arg;
        } else {
            std::cerr << "sweep: unknown option '" << arg << "'\n";
            usage(2);
        }
    }
    if (spec_path.empty()) {
        std::cerr << "sweep run: missing <spec.json>\n";
        usage(2);
    }

    exp::SweepSpec spec = loadSpec(spec_path);
    if (seed_set)
        spec.setMasterSeed(seed);

    exp::ProgressFn progress;
    if (!quiet) {
        progress = [](const exp::Progress &p) {
            std::cerr << "[" << p.completed << "/" << p.total
                      << "] point " << p.index
                      << (p.label.empty() ? "" : " (" + p.label + ")")
                      << (p.ok ? " ok" : " FAILED") << " in "
                      << static_cast<std::uint64_t>(p.wallMillis)
                      << " ms\n";
        };
    }

    const exp::SweepOutcome outcome =
        exp::runSweep(spec, jobs, progress);
    const obs::RunReport report = exp::aggregate(spec, outcome);
    if (json_path.empty())
        std::cout << report.toJson() << "\n";
    else
        report.write(json_path);

    if (outcome.failures != 0) {
        std::cerr << "sweep: " << outcome.failures << " of "
                  << outcome.points.size() << " points failed:\n";
        for (std::size_t i = 0; i < outcome.results.size(); ++i) {
            if (!outcome.results[i].ok) {
                std::cerr << "  - point " << i << " ("
                          << outcome.points[i].label
                          << "): " << outcome.results[i].error
                          << "\n";
            }
        }
        return 1;
    }
    return 0;
}

int
pointsMode(int argc, char **argv)
{
    if (argc != 3)
        usage(2);
    const exp::SweepSpec spec = loadSpec(argv[2]);
    const auto points = spec.points();
    std::cout << spec.name() << ": " << points.size()
              << " points\n";
    for (const auto &pt : points) {
        std::cout << "  [" << pt.index << "] seed=" << pt.seed
                  << (pt.label.empty() ? "" : " " + pt.label)
                  << "\n";
    }
    return 0;
}

int
compareMode(int argc, char **argv)
{
    std::string fresh_path;
    std::string baseline_path;
    exp::GateOptions options;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "sweep: " << arg
                          << " needs an argument\n";
                usage(2);
            }
            return argv[++i];
        };
        if (arg == "--rtol") {
            options.rtol = std::stod(need());
        } else if (arg == "--atol") {
            options.atol = std::stod(need());
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (fresh_path.empty() && arg[0] != '-') {
            fresh_path = arg;
        } else if (baseline_path.empty() && arg[0] != '-') {
            baseline_path = arg;
        } else {
            std::cerr << "sweep: unknown option '" << arg << "'\n";
            usage(2);
        }
    }
    if (fresh_path.empty() || baseline_path.empty()) {
        std::cerr << "sweep compare: needs <report.json> and"
                     " <baseline.json>\n";
        usage(2);
    }

    const exp::GateOutcome outcome = exp::compareReportTexts(
        slurp(fresh_path), slurp(baseline_path), options);
    if (outcome.pass) {
        std::cout << "PASS: " << outcome.compared
                  << " baseline values within tolerance\n";
        return 0;
    }
    std::cerr << "FAIL: " << outcome.problems.size()
              << " regression(s) against '" << baseline_path
              << "':\n";
    for (const auto &p : outcome.problems)
        std::cerr << "  - " << p << "\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(2);
    const std::string mode = argv[1];
    if (mode == "run")
        return runMode(argc, argv);
    if (mode == "points")
        return pointsMode(argc, argv);
    if (mode == "compare")
        return compareMode(argc, argv);
    if (mode == "--help" || mode == "-h")
        usage(0);
    std::cerr << "sweep: unknown mode '" << mode
              << "' (expected run, points or compare)\n";
    usage(2);
}
