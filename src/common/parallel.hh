/**
 * @file
 * Parallel execution over an index range: grid points and hier
 * shards.
 *
 * Runner is a thread pool with two ways to split [0, count):
 *
 *  - forEach balances load dynamically: participants claim the next
 *    unclaimed index from a shared atomic counter, so long points
 *    never serialise behind short ones (the "work stealing" that
 *    matters for a grid of identical tasks with wildly different run
 *    times, e.g. a saturation sweep where the loaded points take 100x
 *    longer than the idle ones);
 *  - forEachBlock gives every participant one fixed contiguous block,
 *    the same block on the same thread at every call, so per-index
 *    state stays in the cache of the core that last wrote it.  The
 *    hier shard executor calls it once per lookahead window.
 *
 * The calling thread is participant 0: it works its own share, then
 * waits for the others.  Waits (a worker's for the next call, the
 * caller's for the stragglers) poll for up to half a millisecond
 * before parking on a condition variable, so back-to-back calls
 * separated by short serial phases hand work over without a futex
 * round trip.
 *
 * The pool knows nothing about simulations; it runs fn for every
 * index.  Determinism is the caller's contract: each index must touch
 * only its own state (own Simulator, own RNG substream via
 * sim::Random::split, own results slot), which is exactly how
 * exp::runSweep(), the converted benches and the hier shard executor
 * use it - so the assembled output is byte-identical for every job
 * count.
 *
 * It lives in `common` (not `exp`) because both the experiment
 * engine *and* rmb's hierarchical backend shard over it; hosting it
 * any higher would put a back-edge in the module DAG that rmblint's
 * layering check (docs/LINT.md) enforces.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace rmb {
namespace common {

/**
 * Thread pool over an index range.
 *
 * A Runner of J jobs runs the caller plus J - 1 worker threads.  The
 * workers are created lazily on the first parallel call and persist
 * for the Runner's lifetime: a sweep pays thread-creation cost once
 * per run either way; a sharded hierarchical simulation calls
 * forEachBlock once per lookahead window - thousands of times - and
 * must not spawn threads each time.
 */
class Runner
{
  public:
    /** @param jobs participating threads, the caller included;
     *  0 means defaultJobs(). */
    explicit Runner(unsigned jobs = 1);
    ~Runner();

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** std::thread::hardware_concurrency, floored at 1. */
    static unsigned defaultJobs();

    unsigned jobs() const { return jobs_; }

    /**
     * Run fn(i) for every i in [0, count), claimed dynamically by
     * the jobs() participants; with one job (or one index)
     * everything runs inline on the calling thread.  Returns when
     * all indices completed.  If fn throws, that participant stops
     * claiming, the others drain what is left, and the first
     * exception is rethrown here (callers that need per-point
     * failure capture wrap fn - runSweep() records failures in the
     * point result instead).  Not reentrant: one call at a time per
     * Runner.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &fn) const;

    /** Blocks forEachBlock splits @p count indices into:
     *  min(jobs(), count). */
    std::size_t
    blocks(std::size_t count) const
    {
        return count < jobs_ ? count : jobs_;
    }

    /**
     * Split [0, count) into blocks(count) contiguous blocks and run
     * fn(block, begin, end) once per block: block 0 on the calling
     * thread, block b on worker b - the same thread for the same
     * count at every call.  Returns when every block completed; if
     * any fn throws, the first exception is rethrown here once all
     * blocks returned.  Not reentrant, like forEach.
     */
    void forEachBlock(
        std::size_t count,
        const std::function<void(std::size_t block, std::size_t begin,
                                 std::size_t end)> &fn) const;

  private:
    struct Pool;

    unsigned jobs_;
    /** Lazily created persistent worker pool (parallel calls only). */
    mutable std::unique_ptr<Pool> pool_;
};

} // namespace common
} // namespace rmb
