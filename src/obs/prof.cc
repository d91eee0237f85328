#include "obs/prof.hh"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>

#include "common/table.hh"
#include "obs/json.hh"

namespace rmb {
namespace obs {
namespace prof {

namespace detail {

std::atomic<bool> profEnabled{false};

namespace {

/**
 * Owns every thread's tree.  Threads register a shared_ptr on first
 * use so the data outlives the thread (common::Runner pools park and
 * eventually join workers; merged() may run after either).
 */
struct Registry
{
    std::mutex mu;
    std::vector<std::shared_ptr<ThreadData>> threads;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

/** steady_clock in ns, the reference side of the calibration. */
std::int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** TSC-to-ns anchor, (re)latched by setEnabled(true); read only at
 *  quiescent points (same contract as reset()/merged()). */
std::uint64_t calibTick0 = 0;
std::int64_t calibNs0 = 0;
bool calibAnchored = false;

} // namespace

ThreadData *
registerThread()
{
    auto data = std::make_shared<ThreadData>();
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.threads.push_back(data);
    return data.get();
}

std::uint32_t
addChild(ThreadData &data, const char *name)
{
    // The inline caller only tried pointer equality; the same name
    // spelled in another TU is a different literal, so re-scan by
    // content before creating a node (keeps such phases merged).
    Node &parent = data.nodes[data.current];
    for (std::uint32_t child : parent.children) {
        if (std::strcmp(data.nodes[child].name, name) == 0)
            return child;
    }
    const auto index = static_cast<std::uint32_t>(data.nodes.size());
    Node node;
    node.name = name;
    node.parent = data.current;
    data.nodes.push_back(node);
    data.nodes[data.current].children.push_back(index);
    return index;
}

} // namespace detail

void
setEnabled(bool on)
{
    if (on) {
        detail::calibTick0 = detail::hostNow();
        detail::calibNs0 = detail::steadyNs();
        detail::calibAnchored = true;
    }
    detail::profEnabled.store(on, std::memory_order_relaxed);
}

void
reset()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto &data : r.threads) {
        data->nodes.clear();
        data->nodes.emplace_back();
        data->current = 0;
        data->generation += 1; // invalidate every SiteCache
    }
}

std::uint64_t
PhaseNode::exclusiveNs() const
{
    std::uint64_t child_ns = 0;
    for (const PhaseNode &c : children)
        child_ns += c.inclusiveNs;
    return child_ns >= inclusiveNs ? 0 : inclusiveNs - child_ns;
}

namespace {

PhaseNode &
childNamed(PhaseNode &parent, const char *name)
{
    for (PhaseNode &c : parent.children)
        if (c.name == name)
            return c;
    parent.children.emplace_back();
    parent.children.back().name = name;
    return parent.children.back();
}

void
sortTree(PhaseNode &node)
{
    std::sort(node.children.begin(), node.children.end(),
              [](const PhaseNode &a, const PhaseNode &b) {
                  return a.name < b.name;
              });
    for (PhaseNode &c : node.children)
        sortTree(c);
}

/**
 * ns per raw host tick, measured over the whole enabled interval
 * (anchor latched by setEnabled(true), second sample here).  Spins
 * out a minimum window so a merge immediately after enabling still
 * sees a stable ratio.  Falls back to 1.0 when hostNow() already
 * returns ns (non-x86) or nothing was ever anchored.
 */
double
nsPerTick()
{
    if (!detail::calibAnchored)
        return 1.0;
    std::int64_t now_ns = detail::steadyNs();
    while (now_ns - detail::calibNs0 < 100000)
        now_ns = detail::steadyNs();
    const std::uint64_t now_tick = detail::hostNow();
    if (now_tick <= detail::calibTick0)
        return 1.0;
    return static_cast<double>(now_ns - detail::calibNs0) /
           static_cast<double>(now_tick - detail::calibTick0);
}

} // namespace

PhaseNode
merged()
{
    const double ns_per_tick = nsPerTick();
    PhaseNode root;
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto &data : r.threads) {
        // Recursive fold of this thread's index-linked tree into
        // the name-keyed output tree.
        std::function<void(PhaseNode &, std::uint32_t)> fold =
            [&](PhaseNode &out, std::uint32_t index) {
                const detail::Node &node = data->nodes[index];
                for (std::uint32_t ci : node.children) {
                    const detail::Node &child = data->nodes[ci];
                    PhaseNode &slot =
                        childNamed(out, child.name);
                    slot.calls += child.calls;
                    // Sampled scopes timed only every Nth call:
                    // scale the sampled total back up to the full
                    // call count (exact scopes have calls ==
                    // timedCalls, factor 1).
                    if (child.timedCalls > 0) {
                        const double scale =
                            static_cast<double>(child.calls) /
                            static_cast<double>(child.timedCalls);
                        slot.inclusiveNs +=
                            static_cast<std::uint64_t>(
                                static_cast<double>(
                                    child.inclusiveTicks) *
                                    scale * ns_per_tick +
                                0.5);
                    }
                    fold(slot, ci);
                }
            };
        fold(root, 0);
    }
    sortTree(root);
    return root;
}

namespace {

void
writePhase(JsonWriter &json, const PhaseNode &node)
{
    json.beginObject();
    json.field("name", node.name);
    json.field("calls", node.calls);
    json.field("inclusive_ns", node.inclusiveNs);
    json.field("exclusive_ns", node.exclusiveNs());
    json.beginArray("children");
    for (const PhaseNode &c : node.children)
        writePhase(json, c);
    json.endArray();
    json.endObject();
}

} // namespace

std::string
reportJson()
{
    PhaseNode root = merged();
    JsonWriter json;
    json.beginObject();
    json.beginArray("phases");
    for (const PhaseNode &c : root.children)
        writePhase(json, c);
    json.endArray();
    json.endObject();
    return json.str();
}

void
printTable(std::ostream &os, const PhaseNode &root)
{
    TextTable t("host profile (wall-clock)",
                {"phase", "calls", "incl ms", "excl ms"});
    const std::function<void(const PhaseNode &, const std::string &)>
        walk = [&](const PhaseNode &node, const std::string &indent) {
            t.addRow({indent + node.name, TextTable::num(node.calls),
                      TextTable::num(node.inclusiveNs / 1e6, 3),
                      TextTable::num(node.exclusiveNs() / 1e6, 3)});
            for (const auto &child : node.children)
                walk(child, indent + "..");
        };
    for (const auto &child : root.children)
        walk(child, "");
    t.print(os);
}

} // namespace prof
} // namespace obs
} // namespace rmb
