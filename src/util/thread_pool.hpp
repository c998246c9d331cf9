/**
 * @file
 * Minimal blocking thread pool. Used to parallelize the tile rasterizer
 * and the vectorized CPU Adam (the paper's CPU-side work runs across all
 * cores), and to host the dedicated CPU Adam thread of §5.4.
 */

#ifndef CLM_UTIL_THREAD_POOL_HPP
#define CLM_UTIL_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace clm {

/** Fixed-size worker pool with fork-join parallelFor. */
class ThreadPool
{
  public:
    /** Spawn @p threads workers. 0 selects the default: the CLM_THREADS
     *  environment variable when set (parsed by util/env.hpp — clamped
     *  into [1, 1024]; non-numeric values warn and fall back), else
     *  hardware concurrency — so benchmarks/CI can pin the pool size of
     *  global() without code changes. */
    explicit ThreadPool(unsigned threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threads() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Run @p body over [0, n) split into contiguous chunks across the
     * pool's workers; the calling thread only waits. Blocks until this
     * call's own chunks are done: each call counts its own completions,
     * so concurrent callers (the async-Adam thread beside a render, a
     * snapshot publisher beside a serve worker) never wait on each
     * other's chunks. @p body receives (begin, end).
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t, size_t)> &body);

    /** Enqueue one task; returns immediately. */
    void submit(std::function<void()> task);

    /** Block until every task in flight has finished, including the
     *  chunks of concurrent parallelFor calls. */
    void wait();

    /** Process-wide shared pool. */
    static ThreadPool &global();

    /** True on a worker thread of any pool: a parallelFor from there
     *  would wait on workers that may all be waiting too. */
    static bool onWorkerThread();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable task_cv_;    //!< Wakes workers.
    /** Wakes wait() and parallelFor callers; each rechecks its own
     *  count. */
    std::condition_variable done_cv_;
    size_t in_flight_ = 0;    //!< Pool-wide, for wait().
    bool stop_ = false;
};

/**
 * Threshold-gated dispatch shared by the per-entry render passes: run
 * @p body over [0, n) through the global pool when @p parallel and the
 * item count makes forking worthwhile, else inline on the caller. ONE
 * definition of the policy — callers pick their threshold constant —
 * so the render passes and the snapshot hash cannot drift apart. Only valid
 * for bodies whose items are independent (any split is bitwise
 * neutral).
 */
template <typename Body>
inline void
poolForRange(size_t n, bool parallel, size_t min_parallel,
             const Body &body)
{
    if (parallel && n >= min_parallel)
        ThreadPool::global().parallelFor(n, body);
    else
        body(0, n);
}

/** Below this many bytes zeroBytes() runs on the caller alone. */
constexpr size_t kParallelZeroBytes = size_t(1) << 20;

/**
 * Zero @p bytes at @p dst once, in page-sized chunks spread over the
 * global pool from kParallelZeroBytes up, serially below it and on a
 * pool worker. Large fresh allocations take their first page touch
 * here, on every core instead of one.
 */
void zeroBytes(void *dst, size_t bytes);

} // namespace clm

#endif // CLM_UTIL_THREAD_POOL_HPP
