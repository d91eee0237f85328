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
                          double PointConfig::*, bool PointConfig::*,
                          std::string PointConfig::*>;

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
     "randperm|bitrev|shuffle|transpose|tornado|rot:<s>|hrel:<h>|"
     "uniform|local:<d>|hotspot:<f>",
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
    {"compaction", &P::compaction, "true|false",
     "dynamic compaction onto lower bus levels", C::Bool, Echo::Always,
     Alias::Negate, "no-compaction"},
    {"engine", &P::engine, "event|kernel",
     "RMB backend of every ring (rmb, dualring, torus, grid)",
     C::Choice},
    {"topology", &P::topology, "flat|hier",
     "one ring, or rings behind bridges (network=rmb)", C::Choice},
    {"local_rings", &P::localRings, "M", "hier: local ring count"},
    {"global_buses", &P::globalBuses, "K",
     "hier: global ring levels, 0 = same as buses"},
    {"bridge_latency", &P::bridgeLatency, "T",
     "hier: ticks per bridge hop"},
    {"bridge_buffer", &P::bridgeBuffer, "B", "hier: slots per bridge"},
    {"shard_jobs", &P::shardJobs, "N",
     "hier: shard threads, 0 = auto; result-neutral", C::Uint,
     Echo::Never, Alias::Same, "jobs"},
    {"blocking", &P::blocking, "nack|wait|wait:<t>",
     "blocked header: NACK and retry, or wait (up to t ticks)",
     C::Choice},
    {"header", &P::header, "lowest|straight",
     "header bus: lowest free level, or straight on", C::Choice},
    {"send_ports", &P::sendPorts, "S", "send ports per node", C::Uint,
     Echo::Always, Alias::Pair, "ports"},
    {"receive_ports", &P::receivePorts, "R", "receive ports per node"},
    {"detailed_flits", &P::detailedFlits, "true|false",
     "simulate every data flit", C::Bool},
    {"fault_mtbf", &P::faultMtbf, "T",
     "transient faults: mean ticks between faults, 0 = off"},
    {"fault_mttr_min", &P::faultMttrMin, "MIN", "shortest repair delay",
     C::Uint, Echo::Always, Alias::Pair, "fault-mttr"},
    {"fault_mttr_max", &P::faultMttrMax, "MAX", "longest repair delay"},
    {"fault_permanent_prob", &P::faultPermanentProb, "P",
     "chance a fault never repairs", C::Prob, Echo::WhenSet},
    {"fault_node_prob", &P::faultNodeProb, "P",
     "chance a fault takes out every level at its gap", C::Prob,
     Echo::WhenSet},
    {"fault_bridge_prob", &P::faultBridgeProb, "P",
     "hier: chance a fault lands on a bridge", C::Prob, Echo::WhenSet},
    {"watchdog", &P::watchdog, "T", "source watchdog timeout, 0 = off"},
    {"max_retries", &P::maxRetries, "N", "retry cap, 0 = unlimited"},
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
        const bool fraction = word.substr(lt) == "<f>";
        std::uint64_t n = 0;
        if (fraction ? parseFraction(param) : parseAll(param, n))
            return why;
        why = " (" + std::string(word.substr(lt)) + " must be " +
              (fraction ? "a number in [0, 1])"
                        : "a non-negative integer)");
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

} // namespace

std::string
PointConfig::set(const std::string &field, const obs::JsonValue &value)
{
    for (const Field &f : kFields) {
        if (field == f.name) {
            return std::visit(
                [&](auto member) {
                    return assign(f, this->*member, value);
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
    if (arg.rfind("--", 0) != 0)
        return -1;
    const std::string_view flag = std::string_view(arg).substr(2);
    for (const Field &f : kFields) {
        const bool alias =
            f.aliasName != nullptr && flag == f.aliasName;
        if (!alias && !flagSpells(flag, f.name))
            continue;
        if (f.sweepOnly != nullptr) {
            error = arg + " is a sweep field: " + f.sweepOnly;
            return 0;
        }
        if (alias && f.alias == Alias::Negate) {
            error = set(f.name, obs::JsonValue::makeBool(false));
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
                        : setText(*this, f, text.substr(0, comma));
            if (error.empty())
                error = setText(*this, second, text.substr(comma + 1));
        } else {
            error = setText(*this, f, text);
        }
        if (!error.empty())
            error = arg + " " + text + ": " + error;
        return 1;
    }
    return -1;
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
                const auto &v = this->*member;
                if (f.echo == Echo::Never ||
                    (f.echo == Echo::WhenSet && v == defaults.*member))
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
                "' (known keys: name, mode, seed, base, axes)");
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
    return errors.empty();
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
            pt.label += axes_[a].field + '=' +
                        (v.isString() ? v.string() : v.serialize());
        }
        // One SplitMix64-derived seed per grid index, a pure
        // function of (masterSeed, index) - independent of job
        // count, completion order and which subset of points runs.
        pt.seed = root.split(i).next();
        points.push_back(std::move(pt));
    }
    return points;
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
