/**
 * @file
 * sweep - run declarative experiment sweeps and gate regressions.
 *
 * Modes:
 *   sweep run <spec.json> [--jobs N] [--json FILE] [--seed S]
 *             [--replicas R] [--quiet] [--<field> V ...]
 *       Materialise the spec's grid, execute every point on a
 *       thread pool, and emit one aggregated RunReport (stdout, or
 *       FILE with --json).  A spec with tables prints them on
 *       stdout instead, and its report goes to FILE only.  The
 *       report is byte-identical for every --jobs value.  rmbsim's
 *       recipe flags (--duration 30000, ...) override base fields.
 *       Exits 1 if any point failed, 2 on a bad spec or flag.
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
           " [--seed S] [--replicas R] [--quiet]\n"
           "                 [--<field> V ...]   (rmbsim's recipe"
           " flags: base overrides)\n"
           "       sweep points <spec.json>\n"
           "       sweep compare <report.json> <baseline.json>"
           " [--rtol F] [--atol F]\n";
    std::exit(code);
}

/** The value of flag argv[i], stepping @p i past it. */
std::string
value(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::cerr << "sweep: " << argv[i] << " needs an argument\n";
        usage(2);
    }
    return argv[++i];
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
    if (argc < 3 || argv[2][0] == '-') {
        if (argc >= 3 && (std::strcmp(argv[2], "--help") == 0 ||
                          std::strcmp(argv[2], "-h") == 0))
            usage(0);
        std::cerr << "sweep run: missing <spec.json>\n";
        usage(2);
    }
    exp::SweepSpec spec = loadSpec(argv[2]);
    std::string json_path;
    unsigned jobs = common::Runner::defaultJobs();
    bool quiet = false;

    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need = [&] { return value(argc, argv, i); };
        std::string error;
        if (arg == "--jobs") {
            jobs = common::flagUint<unsigned>("sweep", arg, need());
            if (jobs == 0)
                jobs = common::Runner::defaultJobs();
        } else if (arg == "--json") {
            json_path = need();
        } else if (arg == "--seed") {
            spec.setMasterSeed(
                common::flagUint<std::uint64_t>("sweep", arg, need()));
        } else if (arg == "--replicas") {
            spec.setReplicas(
                common::flagUint<std::uint32_t>("sweep", arg, need()));
            error = spec.replicas() == 0 ? "--replicas expects >= 1" : "";
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (const int used = spec.applyFlag(
                       arg, i + 1 < argc ? argv[i + 1] : nullptr, error);
                   used >= 0) {
            i += used;
        } else {
            std::cerr << "sweep: unknown option '" << arg << "'\n";
            usage(2);
        }
        if (!error.empty()) {
            std::cerr << "sweep: " << error << "\n";
            std::exit(2);
        }
    }

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
    for (const TextTable &t : exp::tables(spec, outcome)) {
        t.print(std::cout);
        std::cout << '\n';
    }
    if (!json_path.empty())
        report.write(json_path);
    else if (spec.tables().empty())
        std::cout << report.toJson() << "\n";

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
        const auto need = [&] { return value(argc, argv, i); };
        if (arg == "--rtol") {
            options.rtol = common::flagDouble("sweep", arg, need());
        } else if (arg == "--atol") {
            options.atol = common::flagDouble("sweep", arg, need());
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
