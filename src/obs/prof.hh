/**
 * @file
 * Scoped host-time self-profiler.
 *
 * Sim-time observability (spans, metrics, timelines) says where the
 * *simulated* machine spends its ticks; this profiler says where the
 * *simulator* spends its wall-clock, which is the data the perf
 * backlog (SIMD candidate masks, smarter bridge scheduling,
 * speculative shard sync) needs to be prioritised.
 *
 * Design constraints, in order:
 *  - Near-zero cost when disabled: the ProfScope constructor is a
 *    single relaxed atomic load and branch, so instrumentation can
 *    stay in hot paths permanently.
 *  - Cheap when enabled: scopes sit on paths whose bodies run in
 *    ~100ns (bench_microperf gates the enabled overhead at 5%), so
 *    timestamps are raw TSC reads where available (converted to ns
 *    against steady_clock only at report time), the thread's tree is
 *    reached through a cached thread_local pointer, and the child
 *    lookup is a pointer-equality scan with the string-compare slow
 *    path out of line.
 *  - Thread-local accumulation: each thread grows its own phase tree
 *    with no shared writes, so common::Runner workers never contend.
 *    Trees are merged by name (and the merge is sorted by name) only
 *    at report time, producing deterministic *structure*; the ns
 *    values are host time and therefore nondeterministic, which is
 *    why the "profile" report section is excluded from digests and
 *    sweep baselines.
 *  - Phase names must be string literals (or otherwise outlive the
 *    profiler): nodes store the pointer and use pointer equality as
 *    the fast path when matching a child.
 *
 * Thread-safety contract: scopes are wait-free and per-thread;
 * reset()/merged()/reportJson() must only run while no other thread
 * is inside a ProfScope.  common::Runner satisfies this because forEach
 * returns only after all workers have synchronised through the pool
 * mutex (happens-before), with workers parked outside any scope.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rmb {
namespace obs {
namespace prof {

namespace detail {

/** One phase as accumulated by a single thread.  Children are kept
 *  in first-seen order; the merge sorts by name later.  Times are in
 *  raw host ticks (TSC where available) and converted to ns at
 *  report time. */
struct Node
{
    const char *name = nullptr;
    std::uint32_t parent = 0;
    std::uint64_t calls = 0;
    /** Calls that actually read the clock; equals @ref calls for
     *  plain scopes, calls/16 for sampled ones.  The merge scales
     *  inclusiveTicks by calls/timedCalls. */
    std::uint64_t timedCalls = 0;
    std::uint64_t inclusiveTicks = 0;
    std::vector<std::uint32_t> children;
};

struct ThreadData
{
    ThreadData()
    {
        nodes.emplace_back(); // index 0: per-thread root sentinel
    }

    std::vector<Node> nodes;
    std::uint32_t current = 0; //!< innermost open phase (0 = root)
    /** Bumped by reset(); invalidates every SiteCache filled under
     *  the previous tree. */
    std::uint32_t generation = 0;
};

/**
 * Per-call-site memo (one static thread_local per macro expansion):
 * a site nearly always re-opens the same phase under the same
 * parent, so caching the resolved node index turns the steady-state
 * constructor into three compares and an increment — no parent-node
 * load, no child scan.  Safe against stale hits: ThreadData objects
 * are owned by the registry and never freed (no address reuse), and
 * reset() bumps the generation the cache was filled under.
 */
struct SiteCache
{
    ThreadData *data = nullptr;
    std::uint32_t generation = 0;
    std::uint32_t parent = 0;
    std::uint32_t node = 0;
};

/** Global enable flag; relaxed is fine, enable/disable happens at
 *  quiescent points (CLI parse, bench phase boundaries). */
extern std::atomic<bool> profEnabled;

/** Cold path: allocate this thread's tree and register it with the
 *  global registry so it outlives the thread. */
ThreadData *registerThread();

/** Cold path: resolve @p name among @p data.current's children by
 *  string compare (cross-TU literals), creating the node if new. */
std::uint32_t addChild(ThreadData &data, const char *name);

inline ThreadData &
localData()
{
    thread_local ThreadData *data = registerThread();
    return *data;
}

/** Raw monotonic host timestamp: TSC on x86 (a handful of cycles,
 *  frequency calibrated against steady_clock at report time),
 *  steady_clock ns elsewhere (the calibration then finds ~1.0). */
inline std::uint64_t
hostNow()
{
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

} // namespace detail

/** One phase in the merged (cross-thread, name-sorted) tree. */
struct PhaseNode
{
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t inclusiveNs = 0;
    std::vector<PhaseNode> children; //!< sorted by name

    /** Inclusive minus children's inclusive, clamped at zero (a
     *  child timed on another thread can exceed its parent). */
    std::uint64_t exclusiveNs() const;
};

/** Turn scope recording on/off.  Only flip at quiescent points.
 *  Enabling (re)anchors the TSC-to-ns calibration. */
void setEnabled(bool on);

inline bool
enabled()
{
    return detail::profEnabled.load(std::memory_order_relaxed);
}

/** Discard every thread's accumulated tree (counts and times). */
void reset();

/**
 * Merge all per-thread trees into one, summing calls/time of
 * same-named phases at the same depth and sorting children by name.
 * The returned root is a sentinel: only its children are phases.
 */
PhaseNode merged();

/**
 * Serialised merged tree:
 * {"phases":[{"name":..,"calls":..,"inclusive_ns":..,
 *             "exclusive_ns":..,"children":[...]},...]}
 * Host-time values are nondeterministic by nature; embed only in
 * report sections that digests and baselines exclude.
 */
std::string reportJson();

/** @p root's phases as a "host profile (wall-clock)" text table, a
 *  child indented under its parent. */
void printTable(std::ostream &os, const PhaseNode &root);

/**
 * RAII phase scope.  @p name must outlive the profiler (use string
 * literals).  Nesting is tracked per thread; re-entering the same
 * name under the same parent accumulates into one node.
 *
 * @p sample_mask selects how often the clock is read: 0 times every
 * call (exact inclusive time); a power-of-two-minus-one mask times
 * call 1 and every mask+1'th after, with the merge scaling the
 * sampled time by calls/timedCalls.  Sampled scopes are for phases
 * whose bodies run in ~100ns, where even a pair of TSC reads per
 * call would violate the bench_microperf 5% overhead gate; their
 * call counts stay exact, their times become estimates.  Pass the
 * mask as a literal (via the macros) so the branch constant-folds.
 */
class ProfScope
{
  public:
    explicit ProfScope(const char *name,
                       std::uint64_t sample_mask = 0)
    {
        if (!detail::profEnabled.load(std::memory_order_relaxed)) {
            data_ = nullptr;
            return;
        }
        detail::ThreadData &data = detail::localData();
        open(data, resolve(data, name), sample_mask);
    }

    /** Macro form: @p site is this call site's static thread_local
     *  memo; a hit skips the child lookup entirely. */
    ProfScope(const char *name, std::uint64_t sample_mask,
              detail::SiteCache &site)
    {
        if (!detail::profEnabled.load(std::memory_order_relaxed)) {
            data_ = nullptr;
            return;
        }
        detail::ThreadData &data = detail::localData();
        std::uint32_t found;
        if (site.data == &data &&
            site.generation == data.generation &&
            site.parent == data.current) {
            found = site.node;
        } else {
            found = resolve(data, name);
            site.data = &data;
            site.generation = data.generation;
            site.parent = data.current;
            site.node = found;
        }
        open(data, found, sample_mask);
    }

    ~ProfScope()
    {
        if (data_ == nullptr)
            return;
        data_->current = parent_;
        if (!timed_)
            return;
        const std::uint64_t ticks = detail::hostNow() - start_;
        detail::Node &node = data_->nodes[node_];
        node.timedCalls += 1;
        node.inclusiveTicks += ticks;
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    /** Child of data.current named @p name: pointer-equality scan
     *  inline, strcmp/create slow path out of line. */
    static std::uint32_t
    resolve(detail::ThreadData &data, const char *name)
    {
        const detail::Node &parent = data.nodes[data.current];
        for (std::uint32_t child : parent.children) {
            if (data.nodes[child].name == name)
                return child;
        }
        return detail::addChild(data, name);
    }

    void
    open(detail::ThreadData &data, std::uint32_t found,
         std::uint64_t sample_mask)
    {
        detail::Node &node = data.nodes[found];
        node.calls += 1;
        data_ = &data;
        node_ = found;
        parent_ = data.current;
        data.current = found;
        timed_ = ((node.calls - 1) & sample_mask) == 0;
        if (timed_)
            start_ = detail::hostNow();
    }

    detail::ThreadData *data_;
    std::uint32_t node_;
    std::uint32_t parent_;
    std::uint64_t start_;
    bool timed_;
};

} // namespace prof
} // namespace obs
} // namespace rmb

#define RMB_PROF_CONCAT2(a, b) a##b
#define RMB_PROF_CONCAT(a, b) RMB_PROF_CONCAT2(a, b)

/** Shared body: a per-site thread_local memo (constant-initialised,
 *  so no TLS guard) plus the scope that uses it. */
#define RMB_PROF_SCOPE_AT(name, mask) \
    static thread_local ::rmb::obs::prof::detail::SiteCache \
        RMB_PROF_CONCAT(rmb_prof_site_, __LINE__); \
    ::rmb::obs::prof::ProfScope RMB_PROF_CONCAT( \
        rmb_prof_scope_, \
        __LINE__)(name, mask, \
                  RMB_PROF_CONCAT(rmb_prof_site_, __LINE__))

/** Time the rest of the enclosing block as phase @p name. */
#define RMB_PROF_SCOPE(name) RMB_PROF_SCOPE_AT(name, 0)

/** Like RMB_PROF_SCOPE but reads the clock on every 16th call only
 *  (exact call counts, estimated time) - for ~100ns-body phases
 *  where exact timing would itself dominate. */
#define RMB_PROF_SCOPE_SAMPLED(name) RMB_PROF_SCOPE_AT(name, 15)
