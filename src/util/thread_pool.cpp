#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstring>

#include "util/env.hpp"
#include "util/logging.hpp"

namespace clm {

namespace {

thread_local bool t_pool_worker = false;

/** Chunk size of zeroBytes(): one page. */
constexpr size_t kPageBytes = 4096;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0) {
        // CLM_THREADS pins the default worker count (benchmarks and CI
        // use it for comparable runs), through the shared env-parsing
        // policy (util/env.hpp): unset or garbage (with a warning)
        // falls back to hardware concurrency, numeric values clamp
        // into [1, 1024] rather than spawn unbounded threads.
        const long fallback =
            std::max(1u, std::thread::hardware_concurrency());
        threads = static_cast<unsigned>(
            envInt("CLM_THREADS", fallback, 1, 1024));
    }
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    task_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    t_pool_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            task_cv_.wait(lock,
                          [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
            if (in_flight_ == 0)
                done_cv_.notify_all();
        }
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CLM_ASSERT(!stop_, "submit after shutdown");
        tasks_.push(std::move(task));
        ++in_flight_;
    }
    task_cv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t, size_t)> &body)
{
    if (n == 0)
        return;
    size_t chunks = std::min<size_t>(n, threads() * 2);
    if (chunks <= 1) {
        body(0, n);
        return;
    }
    size_t chunk = (n + chunks - 1) / chunks;
    // This call's own completion count, guarded by mutex_: a chunk
    // decrements it before the worker's pool-wide in_flight_ bookkeeping,
    // and the caller returns once it alone reaches zero.
    size_t remaining = (n + chunk - 1) / chunk;
    for (size_t begin = 0; begin < n; begin += chunk) {
        size_t end = std::min(begin + chunk, n);
        submit([=, &body, &remaining] {
            body(begin, end);
            std::lock_guard<std::mutex> lock(mutex_);
            if (--remaining == 0)
                done_cv_.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&remaining] { return remaining == 0; });
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

bool
ThreadPool::onWorkerThread()
{
    return t_pool_worker;
}

void
zeroBytes(void *dst, size_t bytes)
{
    auto *p = static_cast<std::byte *>(dst);
    if (bytes < kParallelZeroBytes || ThreadPool::onWorkerThread()) {
        std::memset(p, 0, bytes);
        return;
    }
    const size_t pages = (bytes + kPageBytes - 1) / kPageBytes;
    ThreadPool::global().parallelFor(pages, [&](size_t begin, size_t end) {
        const size_t lo = begin * kPageBytes;
        std::memset(p + lo, 0, std::min(end * kPageBytes, bytes) - lo);
    });
}

} // namespace clm
