#include "common/parallel.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace rmb {
namespace common {

namespace {

/** How long a waiting thread polls before it parks.  Long enough to
 *  cover a hier window's barrier and the spread between its blocks
 *  (bench_hierarchy at 131072 nodes, 4 threads: at 50 us 17% of the
 *  workers' waits still ended parked, at 500 us under 1%; a parked
 *  thread's wake-up is what a busy host delays most), short enough
 *  that a pool between calls costs nothing measurable. */
constexpr std::chrono::microseconds kSpin{500};

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Poll @p done for up to kSpin; true once it held.  After a short
 * burst of pause-polls the thread yields between polls, so on a
 * machine with more runnable threads than cores a waiting thread
 * hands its core to one that has work (a straggling block, or the
 * caller's serial phase) instead of burning its time slice.
 */
template <typename Done>
bool
spinUntil(const Done &done)
{
    constexpr unsigned kBurst = 64;
    const auto deadline = std::chrono::steady_clock::now() + kSpin;
    for (unsigned i = 1;; ++i) {
        if (done())
            return true;
        if (i < kBurst)
            cpuRelax();
        else
            std::this_thread::yield();
        if (i % kBurst == 0 &&
            std::chrono::steady_clock::now() >= deadline)
            return done();
    }
}

} // namespace

/**
 * Persistent worker pool.  run() publishes the share function, bumps
 * the generation counter and works participant 0's share itself;
 * worker p (participants 1 .. J-1) sees the new generation, works its
 * share and counts `remaining` down.  Both waits poll first (see
 * spinUntil) and only then park on a condition variable, so a call
 * whose threads are all still polling makes no system call.
 */
struct Runner::Pool
{
    using Share = std::function<void(unsigned)>;

    explicit Pool(unsigned participants)
    {
        threads.reserve(participants - 1);
        for (unsigned p = 1; p < participants; ++p)
            threads.emplace_back([this, p] { workerLoop(p); });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            shutdown = true;
            generation.fetch_add(1, std::memory_order_release);
        }
        cv.notify_all();
        for (std::thread &t : threads)
            t.join();
    }

    /** Run share(p) for every participant p; returns when all did. */
    void
    run(const Share &share_)
    {
        share = &share_;
        firstError = nullptr;
        remaining.store(static_cast<unsigned>(threads.size()),
                        std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mutex);
            generation.fetch_add(1, std::memory_order_release);
            if (sleepers > 0)
                cv.notify_all();
        }
        work(0);
        const auto done = [this] {
            return remaining.load(std::memory_order_acquire) == 0;
        };
        if (!spinUntil(done)) {
            std::unique_lock<std::mutex> lock(mutex);
            done_cv.wait(lock, done);
        }
        share = nullptr;
        if (firstError)
            std::rethrow_exception(firstError);
    }

    void
    work(unsigned participant)
    {
        try {
            (*share)(participant);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            if (!firstError)
                firstError = std::current_exception();
        }
    }

    void
    workerLoop(unsigned participant)
    {
        std::uint64_t seen = 0;
        while (true) {
            const auto published = [&] {
                return generation.load(std::memory_order_acquire) !=
                       seen;
            };
            if (!spinUntil(published)) {
                std::unique_lock<std::mutex> lock(mutex);
                ++sleepers;
                cv.wait(lock, published);
                --sleepers;
            }
            seen = generation.load(std::memory_order_acquire);
            if (shutdown)
                return;
            work(participant);
            if (remaining.fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
                // The lock orders this notify after the caller's
                // last check of `remaining` should it be parking.
                std::lock_guard<std::mutex> lock(mutex);
                done_cv.notify_one();
            }
        }
    }

    std::mutex mutex;
    std::condition_variable cv;      //!< parked workers wait here
    std::condition_variable done_cv; //!< a parked caller waits here
    std::vector<std::thread> threads;
    const Share *share = nullptr;
    /** Bumped (under the mutex) to publish a call or the shutdown. */
    std::atomic<std::uint64_t> generation{0};
    /** Workers still working the current call. */
    std::atomic<unsigned> remaining{0};
    unsigned sleepers = 0; //!< workers parked on cv (under the mutex)
    bool shutdown = false;
    std::exception_ptr firstError;
};

Runner::Runner(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs)
{
}

Runner::~Runner() = default;

unsigned
Runner::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
Runner::forEach(std::size_t count,
                const std::function<void(std::size_t)> &fn) const
{
    if (jobs_ <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    if (!pool_)
        pool_ = std::make_unique<Pool>(jobs_);
    std::atomic<std::size_t> next{0};
    pool_->run([&](unsigned) {
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            fn(i);
        }
    });
}

void
Runner::forEachBlock(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        &fn) const
{
    const std::size_t n = blocks(count);
    if (n <= 1) {
        if (n == 1)
            fn(0, 0, count);
        return;
    }
    if (!pool_)
        pool_ = std::make_unique<Pool>(jobs_);
    pool_->run([&](unsigned b) {
        if (b < n)
            fn(b, b * count / n, (b + 1) * count / n);
    });
}

} // namespace common
} // namespace rmb
