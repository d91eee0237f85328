/**
 * @file
 * traceview - offline analysis of a JSONL protocol trace
 * (`rmbsim --trace FILE`).
 *
 * Reconstructs causal spans (obs::SpanBuilder) from the flat event
 * stream and can
 *  - print a phase-latency table (default, or --phases),
 *  - export a Chrome-trace / Perfetto-loadable JSON timeline
 *    (--chrome OUT.json),
 *  - load the host-time "profile" section of an `rmbsim --profile`
 *    report (--profile REPORT.json): prints the host phase table
 *    and, combined with --chrome, adds a "host profile" process
 *    beside the sim-time lanes,
 *  - run the offline causality checker (--check): every Hack needs
 *    its Inject, every segment is freed exactly once, delivered
 *    buses are fully reclaimed, and adjacent INC cycle counts obey
 *    Lemma 1.
 *
 * --drop KIND filters a kind out while reading, simulating a lossy
 * or corrupted trace; CTest uses `--drop teardown --check` to prove
 * the checker notices a dropped Fack.
 *
 * Exit codes: 0 healthy, 1 causality problems found, 2 usage or
 * input error.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "obs/json_value.hh"
#include "obs/perfetto.hh"
#include "obs/prof.hh"
#include "obs/span.hh"
#include "obs/trace.hh"

namespace {

using namespace rmb;

[[noreturn]] void
usage(int code = 2)
{
    (code == 0 ? std::cout : std::cerr)
        << "usage: traceview [options] [TRACE.jsonl|-]\n"
           "  --check            run the offline causality checker\n"
           "  --chrome OUT.json  write a chrome://tracing timeline\n"
           "  --phases           print the phase-latency table\n"
           "  --drop KIND        ignore events of KIND (testing)\n"
           "  --profile REPORT.json  host phase table from an\n"
           "                     `rmbsim --profile` report; with\n"
           "                     --chrome, adds a host-profile\n"
           "                     process to the timeline\n"
           "  --help | -h\n"
           "With no output option, the phase table is printed.\n"
           "The trace argument may be omitted when only --profile\n"
           "is requested.\n";
    std::exit(code);
}

std::uint64_t
fieldU64(const obs::JsonValue &obj, const char *key,
         std::size_t lineno)
{
    const obs::JsonValue *v = obj.find(key);
    std::uint64_t out = 0;
    if (v == nullptr || !v->asUint64(out)) {
        std::cerr << "traceview: line " << lineno
                  << ": missing or non-integer field '" << key
                  << "'\n";
        std::exit(2);
    }
    return out;
}

std::vector<obs::TraceEvent>
readTrace(std::istream &in, const std::string &drop_kind)
{
    std::vector<obs::TraceEvent> events;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        obs::JsonValue value;
        std::string error;
        if (!obs::jsonParse(line, value, error)) {
            std::cerr << "traceview: line " << lineno << ": "
                      << error << "\n";
            std::exit(2);
        }
        const obs::JsonValue *kind = value.find("kind");
        if (kind == nullptr || !kind->isString()) {
            std::cerr << "traceview: line " << lineno
                      << ": missing 'kind'\n";
            std::exit(2);
        }
        if (kind->string() == drop_kind)
            continue;
        obs::TraceEvent e;
        if (!obs::eventKindFromName(kind->string(), e.kind)) {
            std::cerr << "traceview: line " << lineno
                      << ": unknown event kind '" << kind->string()
                      << "'\n";
            std::exit(2);
        }
        e.at = fieldU64(value, "at", lineno);
        e.message = fieldU64(value, "msg", lineno);
        e.bus = fieldU64(value, "bus", lineno);
        e.node = static_cast<std::uint32_t>(
            fieldU64(value, "node", lineno));
        e.gap = static_cast<std::uint32_t>(
            fieldU64(value, "gap", lineno));
        const obs::JsonValue *level = value.find("level");
        if (level == nullptr || !level->isNumber()) {
            std::cerr << "traceview: line " << lineno
                      << ": missing 'level'\n";
            std::exit(2);
        }
        e.level = static_cast<std::int32_t>(level->number());
        e.a = fieldU64(value, "a", lineno);
        e.b = fieldU64(value, "b", lineno);
        events.push_back(e);
    }
    return events;
}

void
printPhaseTable(const obs::SpanBuilder &builder)
{
    TextTable t("trace phases (" +
                    std::to_string(builder.eventCount()) +
                    " events, " +
                    std::to_string(builder.spans().size()) +
                    " spans)",
                {"phase", "count", "mean", "p50", "p95", "max"});
    for (std::size_t k = 0; k < obs::kNumSpanKinds; ++k) {
        const auto kind = static_cast<obs::SpanKind>(k);
        const sim::SampleStat &s = builder.phaseStat(kind);
        if (s.count() == 0)
            continue;
        t.addRow({obs::spanKindName(kind), TextTable::num(s.count()),
                  TextTable::num(s.mean(), 1),
                  TextTable::num(s.percentile(50), 1),
                  TextTable::num(s.percentile(95), 1),
                  TextTable::num(s.max(), 0)});
    }
    std::size_t open = 0;
    for (const obs::Span &span : builder.spans())
        open += span.open ? 1 : 0;
    t.print(std::cout);
    if (open > 0) {
        std::cout << open
                  << " span(s) still open at trace end (flagged"
                     " open_at_end)\n";
    }
}

/** Recursively decode one phase object of a "profile" section. */
bool
loadPhase(const obs::JsonValue &v, obs::prof::PhaseNode &out)
{
    if (!v.isObject())
        return false;
    const obs::JsonValue *name = v.find("name");
    const obs::JsonValue *calls = v.find("calls");
    const obs::JsonValue *incl = v.find("inclusive_ns");
    if (name == nullptr || !name->isString() || calls == nullptr ||
        incl == nullptr) {
        return false;
    }
    out.name = name->string();
    if (!calls->asUint64(out.calls) ||
        !incl->asUint64(out.inclusiveNs)) {
        return false;
    }
    if (const obs::JsonValue *children = v.find("children")) {
        if (!children->isArray())
            return false;
        for (const obs::JsonValue &c : children->array()) {
            obs::prof::PhaseNode child;
            if (!loadPhase(c, child))
                return false;
            out.children.push_back(std::move(child));
        }
    }
    return true;
}

/**
 * Load the merged phase tree out of an `rmbsim --profile` report
 * (the "profile" section).  Exits with an actionable message on
 * shape problems.
 */
obs::prof::PhaseNode
loadProfile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "traceview: cannot open '" << path << "'\n";
        std::exit(2);
    }
    std::ostringstream all;
    all << in.rdbuf();
    obs::JsonValue doc;
    std::string error;
    if (!obs::jsonParse(all.str(), doc, error)) {
        std::cerr << "traceview: '" << path << "': " << error
                  << "\n";
        std::exit(2);
    }
    const obs::JsonValue *profile =
        doc.isObject() ? doc.find("profile") : nullptr;
    const obs::JsonValue *phases =
        profile != nullptr && profile->isObject()
            ? profile->find("phases")
            : nullptr;
    if (phases == nullptr || !phases->isArray()) {
        std::cerr << "traceview: '" << path
                  << "' has no \"profile\" section (run rmbsim"
                     " with --profile --json FILE)\n";
        std::exit(2);
    }
    obs::prof::PhaseNode root;
    for (const obs::JsonValue &p : phases->array()) {
        obs::prof::PhaseNode child;
        if (!loadPhase(p, child)) {
            std::cerr << "traceview: '" << path
                      << "': malformed profile phase\n";
            std::exit(2);
        }
        root.children.push_back(std::move(child));
    }
    return root;
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    bool phases = false;
    std::string chrome_path;
    std::string drop_kind;
    std::string profile_path;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need = [&](int &j) -> std::string {
            if (j + 1 >= argc)
                usage();
            return argv[++j];
        };
        if (arg == "--check") {
            check = true;
        } else if (arg == "--chrome") {
            chrome_path = need(i);
        } else if (arg == "--phases") {
            phases = true;
        } else if (arg == "--drop") {
            drop_kind = need(i);
        } else if (arg == "--profile") {
            profile_path = need(i);
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg[0] == '-' && arg != "-") {
            std::cerr << "unknown option: " << arg << "\n";
            usage();
        } else if (!path.empty()) {
            usage();
        } else {
            path = arg;
        }
    }
    obs::prof::PhaseNode profile;
    if (!profile_path.empty())
        profile = loadProfile(profile_path);

    // Profile-only mode: no trace to reconstruct, just the host
    // phase table.
    if (path.empty() && !profile_path.empty() && !check &&
        chrome_path.empty()) {
        obs::prof::printTable(std::cout, profile);
        return 0;
    }
    if (path.empty())
        usage();

    std::ifstream file;
    std::istream *in = &std::cin;
    if (path != "-") {
        file.open(path);
        if (!file) {
            std::cerr << "traceview: cannot open '" << path
                      << "'\n";
            return 2;
        }
        in = &file;
    }

    const std::vector<obs::TraceEvent> events =
        readTrace(*in, drop_kind);
    if (events.empty()) {
        std::cerr << "traceview: no events in '" << path << "'\n";
        return 2;
    }

    obs::SpanBuilder builder;
    for (const obs::TraceEvent &e : events)
        builder.onEvent(e);
    builder.finish(events.back().at);

    if (!chrome_path.empty()) {
        std::ofstream out(chrome_path);
        if (!out) {
            std::cerr << "traceview: cannot write '" << chrome_path
                      << "'\n";
            return 2;
        }
        obs::writeChromeTrace(out, builder.spans(),
                              builder.instants(),
                              profile_path.empty() ? nullptr
                                                   : &profile);
        if (!out) {
            std::cerr << "traceview: write to '" << chrome_path
                      << "' failed\n";
            return 2;
        }
        std::cout << "chrome trace (" << builder.spans().size()
                  << " spans, " << builder.instants().size()
                  << " instants) -> " << chrome_path << "\n";
    }

    if (phases || (!check && chrome_path.empty()))
        printPhaseTable(builder);
    if (!profile_path.empty())
        obs::prof::printTable(std::cout, profile);

    if (check) {
        const std::vector<std::string> problems =
            obs::checkTrace(events);
        for (const std::string &p : problems)
            std::cerr << "traceview: " << p << "\n";
        if (!problems.empty()) {
            std::cerr << "traceview: " << problems.size()
                      << " causality problem(s) in " << events.size()
                      << " events\n";
            return 1;
        }
        std::cout << "causality check OK (" << events.size()
                  << " events)\n";
    }
    return 0;
}
