#include "exp/spec.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <variant>

#include "obs/json.hh"
#include "obs/trace.hh"
#include "sim/random.hh"

namespace rmb {
namespace exp {

namespace {

/** How a field's values are checked. */
enum class Check
{
    Uint,   //!< exact non-negative integer token that fits the member
    Rate,   //!< number in (0, 1]
    Prob,   //!< probability in [0, 1]
    Bool,
    Choice, //!< one of the row's '|'-separated syntax words
    Dims,   //!< AxBxC: one or more integer extents, each >= 2
};

/** When the canonical echo carries a field.  WhenSet fields appear
 *  only off their default, so specs predating them keep their
 *  baseline bytes; Never marks result-neutral execution hints. */
enum class Echo { Always, WhenSet, Never };

/** Extra command-line spelling: --<alias> V sets the field (Same),
 *  --<alias> A,B sets it and the next row (Pair), or a bare
 *  --<alias> sets the boolean false (Negate). */
enum class Alias { None, Same, Pair, Negate };

using Slot = std::variant<std::uint32_t PointConfig::*,
                          std::uint64_t PointConfig::*,
                          double PointConfig::*,
                          std::string PointConfig::*,
                          std::uint32_t core::RmbConfig::*,
                          std::uint64_t core::RmbConfig::*,
                          double core::RmbConfig::*,
                          bool core::RmbConfig::*>;

/** The member a Slot names in @p pt. */
template <class Pt, class T, class Owner>
auto &
at(Pt &pt, T Owner::*member)
{
    if constexpr (std::is_same_v<Owner, PointConfig>)
        return pt.*member;
    else
        return pt.rmb.*member;
}

/** One row of the run recipe. */
struct Field
{
    const char *name;
    Slot slot;
    /** Value syntax for --help and docs; for Choice the allowed
     *  words, where "prefix:<f>" takes a number in [0, 1] and any
     *  other "prefix:<x>" a non-negative integer. */
    const char *syntax;
    const char *doc;
    Check check = Check::Uint;
    Echo echo = Echo::Always;
    Alias alias = Alias::None;
    const char *aliasName = nullptr;
    /** Non-null: rmbsim refuses the field, for this reason (it
     *  cannot mean there what it means in a sweep). */
    const char *sweepOnly = nullptr;
};

using P = PointConfig;
using R = core::RmbConfig;
using C = Check;

// The run recipe, one row per field, in canonical echo order.
const Field kFields[] = {
    {"network", &P::network,
     "rmb|dualring|torus|grid|ring|mesh|hypercube|ehc|fattree|multibus|"
     "wormhole",
     "network under test", C::Choice},
    {"nodes", &P::nodes, "N", "node count (not torus, mesh or grid)"},
    {"buses", &P::buses, "K", "buses per ring (RMB bus levels)"},
    {"width", &P::width, "W", "torus / mesh: columns"},
    {"height", &P::height, "H", "torus / mesh: rows"},
    {"dims", &P::dims, "AxBxC", "grid: extent per dimension", C::Dims,
     Echo::WhenSet},
    {"workload", &P::workload,
     "randperm|bitrev|bitcomp|shuffle|transpose|tornado|kperm|"
     "rot:<s>[:<m>]|hrel:<h>|burst:<m>|uniform|local:<d>|hotspot:<f>",
     "traffic; uniform, local and hotspot run open loop, the rest as"
     " one batch",
     C::Choice},
    {"rate", &P::rate, "R", "open loop: messages per node per tick",
     C::Rate},
    {"payload", &P::payload, "FLITS", "data flits per message"},
    {"duration", &P::duration, "T", "open loop: generation window"},
    {"timeout", &P::timeout, "T",
     "simulated-tick budget: batch abort and open-loop drain bound",
     C::Uint, Echo::Always, Alias::None, nullptr,
     "rmbsim drains open-loop runs for a fixed 1M ticks; run a sweep"
     " for a tick budget"},
    {"compaction", &R::enableCompaction, "true|false",
     "dynamic compaction onto lower bus levels", C::Bool, Echo::Always,
     Alias::Negate, "no-compaction"},
    {"engine", &P::engine, "event|kernel",
     "RMB backend of every ring (rmb, dualring, torus, grid)",
     C::Choice},
    {"topology", &P::topology, "flat|hier",
     "one ring, or rings behind bridges (network=rmb)", C::Choice},
    {"local_rings", &R::localRings, "M", "hier: local ring count"},
    {"global_buses", &R::globalBuses, "K",
     "hier: global ring levels, 0 = same as buses"},
    {"bridge_latency", &R::bridgeLatency, "T",
     "hier: ticks per bridge hop"},
    {"bridge_buffer", &R::bridgeBuffer, "B", "hier: slots per bridge"},
    {"shard_jobs", &R::shardJobs, "N",
     "hier: shard threads, 0 = auto; result-neutral", C::Uint,
     Echo::Never, Alias::Same, "jobs"},
    {"blocking", &P::blocking, "nack|wait|wait:<t>",
     "blocked header: NACK and retry, or wait (up to t ticks)",
     C::Choice},
    {"header", &P::header, "lowest|straight",
     "header bus: lowest free level, or straight on", C::Choice},
    {"send_ports", &R::sendPorts, "S", "send ports per node", C::Uint,
     Echo::Always, Alias::Pair, "ports"},
    {"receive_ports", &R::receivePorts, "R", "receive ports per node"},
    {"detailed_flits", &R::detailedFlits, "true|false",
     "simulate every data flit", C::Bool},
    {"fault_mtbf", &R::faultMtbf, "T",
     "transient faults: mean ticks between faults, 0 = off"},
    {"fault_mttr_min", &R::faultMttrMin, "MIN", "shortest repair delay",
     C::Uint, Echo::Always, Alias::Pair, "fault-mttr"},
    {"fault_mttr_max", &R::faultMttrMax, "MAX", "longest repair delay"},
    {"fault_permanent_prob", &R::faultPermanentProb, "P",
     "chance a fault never repairs", C::Prob, Echo::WhenSet},
    {"fault_node_prob", &R::faultNodeProb, "P",
     "chance a fault takes out every level at its gap", C::Prob,
     Echo::WhenSet},
    {"fault_bridge_prob", &R::faultBridgeProb, "P",
     "hier: chance a fault lands on a bridge", C::Prob, Echo::WhenSet},
    {"watchdog", &R::watchdogTimeout, "T",
     "source watchdog timeout, 0 = off"},
    {"max_retries", &R::maxRetries, "N", "retry cap, 0 = unlimited"},
    {"timeline_period", &P::timelinePeriod, "T",
     "per-point timeline sample period, 0 = off", C::Uint,
     Echo::WhenSet, Alias::None, nullptr,
     "rmbsim samples its report timeline with --timeline T"
     " (0 = duration/100)"},
};

/** Parse all of @p s as a T; allocation-free. */
template <class T>
bool
parseAll(std::string_view s, T &out)
{
    const char *end = s.data() + s.size();
    const auto [stop, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && stop == end;
}

bool
parseFraction(std::string_view s)
{
    double f = 0.0;
    return parseAll(s, f) && f >= 0.0 && f <= 1.0;
}

/** The '|'-separated word @p v selects, or empty; a "prefix:<x>"
 *  word matches on its prefix alone. */
std::string_view
matchWord(std::string_view words, std::string_view v)
{
    while (!words.empty()) {
        const auto bar = std::min(words.find('|'), words.size());
        const std::string_view word = words.substr(0, bar);
        words.remove_prefix(std::min(bar + 1, words.size()));
        const auto lt = word.find('<');
        if (lt == word.npos ? v == word
                            : v.substr(0, lt) == word.substr(0, lt))
            return word;
    }
    return {};
}

bool
validDims(std::string_view s)
{
    for (;;) {
        const auto x = s.find('x');
        std::uint64_t extent = 0;
        if (!parseAll(s.substr(0, x), extent) || extent < 2 ||
            extent > UINT32_MAX)
            return false;
        if (x == s.npos)
            return true;
        s.remove_prefix(x + 1);
    }
}

std::string
typeError(const std::string &field, const char *want,
          const obs::JsonValue &got)
{
    return "field '" + field + "' expects " + want + ", got " +
           got.kindName() + " " + got.serialize();
}

/** Why @p param is no value of parameter @p kind ("<h>", ...), or
 *  empty.  <f> is a fraction, <h> a per-node and <m> a message count;
 *  every other parameter is a non-negative integer. */
std::string
paramError(std::string_view kind, std::string_view param)
{
    if (kind == "<f>")
        return parseFraction(param) ? "" : " (<f> must be a number in [0, 1])";
    const bool count = kind == "<h>" || kind == "<m>";
    const std::uint64_t lo = kind == "<m>";
    std::uint64_t n = 0;
    if (parseAll(param, n) && n >= lo && (!count || n <= UINT32_MAX))
        return "";
    return " (" + std::string(kind) + " must be " +
           (count ? "an integer in [" + std::to_string(lo) + ", 4294967295])"
                  : std::string("a non-negative integer)"));
}

/** Empty if @p v is a valid value of string row @p f, else why not.
 *  Allocation-free on success: set() runs per sweep point. */
std::string
stringError(const Field &f, const std::string &v)
{
    std::string why;
    if (f.check == Check::Dims) {
        if (validDims(v))
            return why;
        why = " (every extent an integer >= 2)";
    } else if (const auto word = matchWord(f.syntax, v);
               !word.empty()) {
        const auto lt = word.find('<');
        if (lt == word.npos)
            return why;
        const std::string_view param = std::string_view(v).substr(lt);
        const std::string_view kind = word.substr(lt);
        // rot's optional ":<m>" is a message count per source.
        const auto colon = kind == "<s>[:<m>]"
                               ? std::min(param.find(':'), param.size())
                               : param.size();
        why = paramError(kind.substr(0, 3), param.substr(0, colon));
        if (why.empty() && colon < param.size())
            why = paramError("<m>", param.substr(colon + 1));
        if (why.empty())
            return why;
    }
    return "field '" + std::string(f.name) + "' expects " + f.syntax +
           ", got '" + v + "'" + why;
}

/** Check @p v against row @p f and store it in @p slot; @return the
 *  actionable error, or empty. */
template <class T>
std::string
assign(const Field &f, T &slot, const obs::JsonValue &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        if (!v.isString())
            return typeError(f.name, "a string", v);
        std::string error = stringError(f, v.string());
        if (error.empty())
            slot = v.string();
        return error;
    } else if constexpr (std::is_same_v<T, bool>) {
        if (!v.isBool())
            return typeError(f.name, "a boolean", v);
        slot = v.boolean();
    } else if constexpr (std::is_same_v<T, double>) {
        // NaN compares false against every bound, so both range tests
        // are written to fail on it rather than silently admit it.
        const double x = v.isNumber() ? v.number() : std::nan("");
        const bool rate = f.check == Check::Rate;
        if (!(rate ? x > 0.0 && x <= 1.0 : x >= 0.0 && x <= 1.0)) {
            return typeError(f.name,
                             rate ? "a number in (0, 1]"
                                  : "a probability in [0, 1]",
                             v);
        }
        slot = x;
    } else {
        // asUint64 only accepts an exact non-negative integer token,
        // so NaN, negatives and fractions are all rejected here.
        std::uint64_t wide = 0;
        if (!v.asUint64(wide) || wide > std::numeric_limits<T>::max())
            return typeError(f.name, "a non-negative integer", v);
        slot = static_cast<T>(wide);
    }
    return "";
}

/** set() from command-line text: JSON for numbers and booleans, the
 *  raw text for strings. */
std::string
setText(PointConfig &pt, const Field &f, const std::string &text)
{
    obs::JsonValue v = obs::JsonValue::makeString(text);
    obs::JsonValue parsed;
    std::string ignored;
    if (!std::holds_alternative<std::string PointConfig::*>(f.slot) &&
        obs::jsonParse(text, parsed, ignored))
        v = std::move(parsed);
    return pt.set(f.name, v);
}

/** Does command-line @p flag (no leading "--") spell @p field? */
bool
flagSpells(std::string_view flag, std::string_view field)
{
    return std::equal(
        flag.begin(), flag.end(), field.begin(), field.end(),
        [](char a, char b) { return a == (b == '_' ? '-' : b); });
}

/** One --help line, the doc aligned at column 30. */
void
helpLine(std::string &out, const std::string &flag, const char *doc)
{
    out += "  " + flag +
           (flag.size() < 28 ? std::string(28 - flag.size(), ' ')
                             : "\n" + std::string(30, ' ')) +
           doc + "\n";
}

/** The metric names runPoint() (eval.cc) emits besides
 *  trace.events.<kind>; exp_test checks a run's names against it. */
const char *const kMetrics[] = {
    "ticks", "completed", "makespan", "offered_load", "throughput",
    "mean_latency", "p95_latency", "max_latency", "mean_setup",
    "ring_load", "injected", "delivered", "failed", "nacks", "retries",
    "mean_hops", "peak_circuits", "mean_circuits", "mean_queue_delay",
    "worst_node_queue_delay", "queue_delay_jain", "compaction_moves",
    "max_cycle_skew", "faults_injected", "faults_repaired", "buses_severed",
    "messages_recovered", "messages_lost", "watchdog_fires",
    "mean_recovery_latency", "faults_permanent", "node_faults",
    "bridge_faults", "dead_lettered", "dead_retries_exhausted",
    "dead_unreachable", "dead_stalled", "dead_bridge_dead",
    "effective_buses", "residual_bandwidth",
};

/** How an axis value reads in labels and table cells. */
std::string
display(const obs::JsonValue &v)
{
    return v.isString() ? v.string() : v.serialize();
}

/** Checks the "tables" array against the spec's axes. */
struct TableParser
{
    const std::vector<Axis> &axes;
    std::vector<std::string> &errors;

    /** The axis @p field, or nullptr after an error at @p where. */
    const Axis *
    axis(const std::string &field, const std::string &where)
    {
        std::string names;
        for (const Axis &a : axes) {
            if (a.field == field)
                return &a;
            names += (names.empty() ? "" : ", ") + a.field;
        }
        errors.push_back(where + ": unknown axis '" + field +
                         "' (axes: " + names + ")");
        return nullptr;
    }

    /** "name" or {"metric": name, "at": {axis: value}}. */
    MetricRef
    ref(const obs::JsonValue &v, const TableSpec &t,
        const std::string &where)
    {
        MetricRef ref;
        const obs::JsonValue *name = v.isString() ? &v : v.find("metric");
        const obs::JsonValue *at = v.find("at");
        const std::string events = "trace.events.";
        obs::EventKind kind;
        ref.metric = name && name->isString() ? name->string() : "";
        if (!std::count(std::begin(kMetrics), std::end(kMetrics),
                        ref.metric) &&
            !(ref.metric.rfind(events, 0) == 0 &&
              obs::eventKindFromName(ref.metric.substr(events.size()),
                                     kind)))
            errors.push_back(where + (ref.metric.empty()
                                          ? " needs a metric"
                                          : ": unknown metric '" +
                                                ref.metric + "'") +
                             " (docs/SWEEPS.md lists the point metrics)");
        if (at != nullptr && !at->isObject())
            errors.push_back(where + ": 'at' expects {axis: value}");
        for (const auto &[field, value] :
             at ? at->members() : obs::JsonValue::Members{}) {
            const Axis *a = axis(field, where + " at");
            const std::string text = value.serialize();
            if (a == nullptr)
                continue;
            if (field == t.split ||
                std::count(t.rows.begin(), t.rows.end(), field))
                errors.push_back(where + ": 'at' fixes '" + field +
                                 "', a row or split axis of the table");
            else if (std::none_of(a->values.begin(), a->values.end(),
                                  [&](const obs::JsonValue &x) {
                                      return x.serialize() == text;
                                  }))
                errors.push_back(where + ": 'at' value " + text +
                                 " is not a value of axis '" + field + "'");
            else
                ref.at.emplace_back(field, text);
        }
        return ref;
    }

    /** {"axis"}, {"metric", "at"} or {"ratio": [numerator,
     *  denominator]}, each with an optional "header" and "digits". */
    Column
    column(const obs::JsonValue &v, const TableSpec &t,
           const std::string &where)
    {
        Column col;
        const obs::JsonValue *axisName = v.find("axis");
        const obs::JsonValue *ratio = v.find("ratio");
        const obs::JsonValue *header = v.find("header");
        const obs::JsonValue *digits = v.find("digits");
        std::uint64_t n = 2;
        if ((axisName != nullptr) + (ratio != nullptr) +
                (v.find("metric") != nullptr) != 1)
            errors.push_back(where + " needs exactly one of \"axis\","
                                     " \"metric\" or \"ratio\"");
        else if (ratio && (!ratio->isArray() || ratio->array().size() != 2))
            errors.push_back(where + ": 'ratio' needs two metrics"
                                     " [numerator, denominator]");
        else if (axisName == nullptr)
            for (const obs::JsonValue &term :
                 ratio ? ratio->array() : std::vector<obs::JsonValue>{v})
                col.refs.push_back(ref(term, t, where));
        else
            col.axis = axisName->isString() ? axisName->string() : "";
        if (axisName && axis(col.axis, where) &&
            !std::count(t.rows.begin(), t.rows.end(), col.axis))
            errors.push_back(where + ": axis column '" + col.axis +
                             "' must be a row axis");
        if ((header && !header->isString()) ||
            (digits && (!digits->asUint64(n) || n > 12)))
            errors.push_back(where + ": 'header' is a string and"
                                     " 'digits' an integer in [0, 12]");
        col.digits = static_cast<int>(n);
        col.header = header && header->isString() ? header->string()
                     : col.refs.empty()           ? col.axis
                                                  : col.refs[0].metric;
        return col;
    }

    TableSpec
    table(const obs::JsonValue &v, const std::string &where)
    {
        TableSpec t;
        const obs::JsonValue *title = v.find("title");
        const obs::JsonValue *split = v.find("split");
        const obs::JsonValue *rows = v.find("rows");
        const obs::JsonValue *columns = v.find("columns");
        if ((title && !title->isString()) || (split && !split->isString()) ||
            (rows && !rows->isArray()) || !columns || !columns->isArray() ||
            columns->array().empty()) {
            errors.push_back(where + " needs a non-empty 'columns' array;"
                                     " 'title' and 'split' are strings,"
                                     " 'rows' an array of axes");
            return t;
        }
        t.title = title ? title->string() : "";
        t.split = split ? split->string() : "";
        for (const obs::JsonValue &row :
             rows ? rows->array() : std::vector<obs::JsonValue>{})
            if (axis(row.isString() ? row.string() : "", where + " rows"))
                t.rows.push_back(row.string());
        if (split && axis(t.split, where + " split") &&
            std::count(t.rows.begin(), t.rows.end(), t.split))
            errors.push_back(where + ": split axis '" + t.split +
                             "' is also a row axis; a split table holds"
                             " one value of it");
        for (std::size_t c = 0; c < columns->array().size(); ++c)
            t.columns.push_back(
                column(columns->array()[c], t,
                       where + ".columns[" + std::to_string(c) + "]"));
        return t;
    }
};

/** PointConfig::applyFlag; a @p sweep run also takes the sweep-only
 *  rows (they mean there what they mean in a spec). */
int
applyFlagTo(PointConfig &pt, const std::string &arg, const char *next,
            std::string &error, bool sweep)
{
    if (arg.rfind("--", 0) != 0)
        return -1;
    const std::string_view flag = std::string_view(arg).substr(2);
    for (const Field &f : kFields) {
        const bool alias =
            f.aliasName != nullptr && flag == f.aliasName;
        if (!alias && !flagSpells(flag, f.name))
            continue;
        if (f.sweepOnly != nullptr && !sweep) {
            error = arg + " is a sweep field: " + f.sweepOnly;
            return 0;
        }
        if (alias && f.alias == Alias::Negate) {
            error = pt.set(f.name, obs::JsonValue::makeBool(false));
            return 0;
        }
        if (next == nullptr) {
            error = arg + " needs a value (" + f.syntax + ")";
            return 0;
        }
        const std::string text = next;
        if (alias && f.alias == Alias::Pair) {
            const Field &second = (&f)[1]; // a Pair row is never last
            const auto comma = text.find(',');
            error = comma == std::string::npos
                        ? "expects " + std::string(f.syntax) + "," +
                              second.syntax
                        : setText(pt, f, text.substr(0, comma));
            if (error.empty())
                error = setText(pt, second, text.substr(comma + 1));
        } else {
            error = setText(pt, f, text);
        }
        if (!error.empty())
            error = arg + " " + text + ": " + error;
        return 1;
    }
    return -1;
}

} // namespace

std::string
PointConfig::set(const std::string &field, const obs::JsonValue &value)
{
    for (const Field &f : kFields) {
        if (field == f.name) {
            return std::visit(
                [&](auto member) {
                    return assign(f, at(*this, member), value);
                },
                f.slot);
        }
    }
    std::string known;
    for (const auto &name : knownFields())
        known += (known.empty() ? "" : ", ") + name;
    return "unknown field '" + field + "' (known fields: " + known +
           ")";
}

int
PointConfig::applyFlag(const std::string &arg, const char *next,
                       std::string &error)
{
    return applyFlagTo(*this, arg, next, error, false);
}

std::string
PointConfig::flagHelp()
{
    std::string out;
    for (const Field &f : kFields) {
        if (f.sweepOnly != nullptr)
            continue;
        std::string flag = "--" + std::string(f.name);
        std::replace(flag.begin(), flag.end(), '_', '-');
        flag += std::string(" ") + f.syntax;
        const std::string alias =
            "--" + std::string(f.aliasName ? f.aliasName : "");
        if (f.alias == Alias::Same)
            flag += ", " + alias + " " + f.syntax;
        if (f.alias == Alias::Negate)
            flag += ", " + alias;
        if (f.alias == Alias::Pair)
            helpLine(out, alias + " " + f.syntax + "," + (&f)[1].syntax,
                     "sets the next two together");
        helpLine(out, flag, f.doc);
    }
    return out;
}

const std::vector<std::string> &
PointConfig::knownFields()
{
    static const std::vector<std::string> fields = [] {
        std::vector<std::string> names;
        for (const Field &f : kFields)
            names.emplace_back(f.name);
        return names;
    }();
    return fields;
}

std::string
PointConfig::canonicalJson() const
{
    static const PointConfig defaults;
    obs::JsonWriter json;
    json.beginObject();
    for (const Field &f : kFields) {
        std::visit(
            [&](auto member) {
                const auto &v = at(*this, member);
                if (f.echo == Echo::Never ||
                    (f.echo == Echo::WhenSet &&
                     v == at(defaults, member)))
                    return;
                if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                             std::uint32_t>)
                    json.field(f.name, std::uint64_t{v});
                else
                    json.field(f.name, v);
            },
            f.slot);
    }
    json.endObject();
    return json.str();
}

std::string
PointConfig::digest(const std::string &extra) const
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : canonicalJson() + '|' + extra)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    std::ostringstream hex;
    hex << std::hex << h;
    return hex.str();
}

bool
SweepSpec::fromJson(const std::string &text, SweepSpec &out,
                    std::vector<std::string> &errors)
{
    out = SweepSpec();
    obs::JsonValue doc;
    std::string parse_error;
    if (!obs::jsonParse(text, doc, parse_error)) {
        errors.push_back("spec is not valid JSON: " + parse_error);
        return false;
    }
    if (!doc.isObject()) {
        errors.push_back("spec must be a JSON object, got " +
                         std::string(doc.kindName()));
        return false;
    }

    const obs::JsonValue *tables = nullptr;
    for (const auto &[key, value] : doc.members()) {
        if (key == "name") {
            if (!value.isString()) {
                errors.push_back(typeError("name", "a string", value));
                continue;
            }
            out.name_ = value.string();
        } else if (key == "mode") {
            if (value.isString() && value.string() == "cartesian") {
                out.mode_ = SweepMode::Cartesian;
            } else if (value.isString() && value.string() == "zip") {
                out.mode_ = SweepMode::Zip;
            } else {
                errors.push_back(
                    "field 'mode' expects \"cartesian\" or \"zip\","
                    " got " +
                    value.serialize());
            }
        } else if (key == "seed") {
            if (!value.asUint64(out.masterSeed_)) {
                errors.push_back(typeError(
                    "seed", "a non-negative integer", value));
            }
        } else if (key == "replicas") {
            std::uint64_t replicas = 0;
            if (!value.asUint64(replicas) || replicas == 0 ||
                replicas > UINT32_MAX)
                errors.push_back(typeError(
                    "replicas", "an integer >= 1 (runs per grid point)",
                    value));
            else
                out.replicas_ = static_cast<std::uint32_t>(replicas);
        } else if (key == "tables") {
            tables = &value; // parsed once the axes are known
        } else if (key == "base") {
            if (!value.isObject()) {
                errors.push_back(
                    typeError("base", "an object", value));
                continue;
            }
            for (const auto &[field, fv] : value.members()) {
                const std::string err = out.base_.set(field, fv);
                if (!err.empty())
                    errors.push_back("base: " + err);
            }
        } else if (key == "axes") {
            if (!value.isArray()) {
                errors.push_back(
                    typeError("axes", "an array", value));
                continue;
            }
            for (std::size_t i = 0; i < value.array().size(); ++i) {
                const obs::JsonValue &av = value.array()[i];
                const std::string where =
                    "axes[" + std::to_string(i) + "]";
                if (!av.isObject()) {
                    errors.push_back(where + " must be an object"
                                             " {\"field\", \"values\"}");
                    continue;
                }
                Axis axis;
                const obs::JsonValue *field = av.find("field");
                const obs::JsonValue *values = av.find("values");
                if (field == nullptr || !field->isString()) {
                    errors.push_back(where +
                                     " needs a string 'field'");
                    continue;
                }
                axis.field = field->string();
                if (values == nullptr || !values->isArray() ||
                    values->array().empty()) {
                    errors.push_back(
                        where + " ('" + axis.field +
                        "') needs a non-empty 'values' array");
                    continue;
                }
                axis.values = values->array();
                out.axes_.push_back(std::move(axis));
            }
        } else {
            errors.push_back(
                "unknown spec key '" + key +
                "' (known keys: name, mode, seed, replicas, base, axes,"
                " tables)");
        }
    }

    // Semantic checks over the assembled spec.
    std::set<std::string> seen;
    for (const Axis &axis : out.axes_) {
        if (!seen.insert(axis.field).second) {
            errors.push_back("axis field '" + axis.field +
                             "' appears more than once");
        }
        for (const obs::JsonValue &v : axis.values) {
            PointConfig probe = out.base_;
            const std::string err = probe.set(axis.field, v);
            if (!err.empty())
                errors.push_back("axis '" + axis.field +
                                 "': " + err);
        }
    }
    if (out.mode_ == SweepMode::Zip && !out.axes_.empty()) {
        const std::size_t len = out.axes_.front().values.size();
        for (const Axis &axis : out.axes_) {
            if (axis.values.size() != len) {
                errors.push_back(
                    "zip mode needs equal-length axes, but '" +
                    out.axes_.front().field + "' has " +
                    std::to_string(len) + " values and '" +
                    axis.field + "' has " +
                    std::to_string(axis.values.size()));
            }
        }
    }
    if (tables != nullptr && !tables->isArray())
        errors.push_back(typeError("tables", "an array", *tables));
    for (std::size_t i = 0; tables && i < tables->array().size(); ++i)
        out.tables_.push_back(TableParser{out.axes_, errors}.table(
            tables->array()[i], "tables[" + std::to_string(i) + "]"));
    if (errors.empty() && !out.tables_.empty()) {
        const std::vector<PointConfig> runs = out.points();
        for (const TableSpec &t : out.tables_) {
            std::string error;
            out.layout(t, runs, error);
            if (!error.empty())
                errors.push_back(error);
        }
    }
    return errors.empty();
}

int
SweepSpec::applyFlag(const std::string &arg, const char *next,
                     std::string &error)
{
    for (const Axis &axis : axes_) {
        if (arg.rfind("--", 0) == 0 &&
            flagSpells(std::string_view(arg).substr(2), axis.field)) {
            error = arg + " sets axis '" + axis.field +
                    "' of this spec, whose values would replace it";
            return 0;
        }
    }
    return applyFlagTo(base_, arg, next, error, true);
}

bool
SweepSpec::fromFile(const std::string &path, SweepSpec &out,
                    std::vector<std::string> &errors)
{
    std::ifstream in(path);
    if (!in) {
        errors.push_back("cannot open spec file '" + path + "'");
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return fromJson(text.str(), out, errors);
}

std::size_t
SweepSpec::pointCount() const
{
    if (axes_.empty())
        return 1;
    if (mode_ == SweepMode::Zip)
        return axes_.front().values.size();
    std::size_t n = 1;
    for (const Axis &axis : axes_)
        n *= axis.values.size();
    return n;
}

std::vector<PointConfig>
SweepSpec::points() const
{
    const std::size_t count = pointCount();
    std::vector<PointConfig> points;
    points.reserve(count);
    const sim::Random root(masterSeed_);

    for (std::size_t i = 0; i < count; ++i) {
        PointConfig pt = base_;
        pt.index = i;
        // Decompose i into one index per axis: cartesian treats the
        // last axis as the fastest-varying digit, zip uses i for all.
        std::size_t rest = i;
        std::vector<std::size_t> choice(axes_.size(), i);
        if (mode_ == SweepMode::Cartesian) {
            for (std::size_t a = axes_.size(); a-- > 0;) {
                choice[a] = rest % axes_[a].values.size();
                rest /= axes_[a].values.size();
            }
        }
        for (std::size_t a = 0; a < axes_.size(); ++a) {
            const obs::JsonValue &v = axes_[a].values[choice[a]];
            const std::string err = pt.set(axes_[a].field, v);
            // fromJson probed every axis value against the base, so
            // this cannot fail for a validated spec.
            if (!err.empty())
                continue;
            pt.params.emplace_back(axes_[a].field, v.serialize());
            if (!pt.label.empty())
                pt.label += ',';
            pt.label += axes_[a].field + '=' + display(v);
        }
        // One SplitMix64-derived seed per grid index, a pure
        // function of (masterSeed, index) - independent of job
        // count, completion order and which subset of points runs.
        // Replica r of every grid point shares the seed split(r).
        if (replicas_ == 0) {
            pt.seed = root.split(i).next();
            points.push_back(std::move(pt));
        }
        for (std::uint32_t r = 0; r < replicas_; ++r) {
            pt.seed = root.split(r).next();
            points.push_back(pt);
        }
    }
    return points;
}

std::vector<TableLayout>
SweepSpec::layout(const TableSpec &t, const std::vector<PointConfig> &runs,
                  std::string &error) const
{
    using Fixed = std::vector<std::pair<std::string, std::string>>;
    const std::size_t stride = std::max<std::uint32_t>(replicas_, 1);
    const Axis *split = nullptr;
    for (const Axis &a : axes_)
        split = a.field == t.split ? &a : split;
    std::vector<TableLayout> layouts;
    for (std::size_t s = 0; s < (split ? split->values.size() : 1); ++s) {
        TableLayout &lay = layouts.emplace_back();
        lay.caption = t.title;
        Fixed scope;
        if (split != nullptr) {
            lay.caption += ", " + t.split + "=" + display(split->values[s]);
            scope.emplace_back(t.split, split->values[s].serialize());
        }
        std::vector<Fixed> keys; // each row's row-axis values
        for (std::size_t g = 0; g * stride < runs.size(); ++g) {
            const auto &params = runs[g * stride].params;
            const auto holds = [&params](const Fixed &fixed) {
                return std::all_of(fixed.begin(), fixed.end(), [&](auto &f) {
                    return std::count(params.begin(), params.end(), f);
                });
            };
            Fixed key;
            for (const auto &p : params)
                if (std::count(t.rows.begin(), t.rows.end(), p.first))
                    key.push_back(p);
            const std::size_t row =
                std::find(keys.begin(), keys.end(), key) - keys.begin();
            for (std::size_t c = 0; c < t.columns.size(); ++c) {
                const std::vector<MetricRef> &refs = t.columns[c].refs;
                for (std::size_t k = 0; k < refs.size(); ++k) {
                    if (!holds(scope) || !holds(refs[k].at))
                        continue;
                    if (row == keys.size()) { // the row's first point
                        keys.push_back(key);
                        lay.text.emplace_back();
                        lay.cells.emplace_back();
                        for (const Column &col : t.columns) {
                            // A param is JSON: a string loses its quotes.
                            std::string v;
                            for (const auto &[field, value] : key)
                                v = field == col.axis ? value : v;
                            lay.text.back().push_back(
                                v.rfind('"', 0) == 0 ? v.substr(1, v.size() - 2)
                                                     : v);
                            lay.cells.back().emplace_back(col.refs.size(),
                                                          std::string::npos);
                        }
                    }
                    std::size_t &cell = lay.cells[row][c][k];
                    if (cell != std::string::npos) {
                        error = "table '" + t.title + "' column '" +
                                t.columns[c].header + "' reads two points"
                                " in one cell (" + runs[cell * stride].label +
                                " and " + runs[g * stride].label +
                                "): make the axes they differ in rows, or"
                                " fix them with 'at'";
                        return layouts;
                    }
                    cell = g;
                }
            }
        }
    }
    return layouts;
}

std::string
SweepSpec::canonicalJson() const
{
    obs::JsonWriter json;
    json.beginObject();
    json.field("name", name_);
    json.field("mode", mode_ == SweepMode::Zip
                           ? std::string("zip")
                           : std::string("cartesian"));
    json.field("seed", masterSeed_);
    if (replicas_ > 0)
        json.field("replicas", std::uint64_t{replicas_});
    json.raw("base", base_.canonicalJson());
    json.beginArray("axes");
    for (const Axis &axis : axes_) {
        json.beginObject();
        json.field("field", axis.field);
        json.beginArray("values");
        for (const obs::JsonValue &v : axis.values)
            json.elementRaw(v.serialize());
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

} // namespace exp
} // namespace rmb
