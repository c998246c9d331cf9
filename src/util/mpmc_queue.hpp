/**
 * @file
 * Bounded blocking multi-producer/multi-consumer queue — the request
 * funnel of the serving subsystem (serve/render_service.hpp). Supports
 * batch pops so a consumer can drain up to N items in one wakeup, which
 * is what lets the render service coalesce queued view requests into
 * multi-view batches without any artificial batching delay.
 *
 * Two intakes, one per shed policy of ServeConfig::admission: the
 * blocking push() (Block) and the non-blocking tryPush() (Reject).
 * Neither consumes the item unless it was enqueued, so a caller holding
 * a promise inside the item can still fulfill it with a shed/rejected
 * status instead of dropping it. The one pop, popBatch(), is
 * deadline-aware: expired items are swept out of the queue (all of
 * them, not just the batch cap) and handed back separately so the
 * consumer can fail them fast without rendering.
 */

#ifndef CLM_UTIL_MPMC_QUEUE_HPP
#define CLM_UTIL_MPMC_QUEUE_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace clm {

/** Result of a queue intake attempt (see MpmcQueue). */
enum class QueuePush
{
    Ok,        //!< Item enqueued (moved from).
    Full,      //!< Queue at capacity; item untouched.
    Closed,    //!< Queue closed; item untouched.
};

/** See file comment. T must be movable. */
template <typename T>
class MpmcQueue
{
  public:
    /** @p capacity bounds the queue; push() blocks while full. */
    explicit MpmcQueue(size_t capacity = 1024) : capacity_(capacity) {}

    /**
     * Enqueue one item; blocks while the queue is at capacity.
     * @return false when the queue was closed (the item is NOT consumed;
     * the caller keeps ownership and can fail it explicitly).
     */
    bool
    push(T &item)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        not_full_.wait(lock, [&] {
            return closed_ || items_.size() < capacity_;
        });
        if (closed_)
            return false;
        items_.push_back(std::move(item));
        lock.unlock();
        not_empty_.notify_one();
        return true;
    }

    /** Rvalue convenience for callers that don't need the item back. */
    bool
    push(T &&item)
    {
        T moved = std::move(item);
        return push(moved);
    }

    /**
     * Non-blocking enqueue: @p item is moved from only on Ok. Full and
     * Closed leave it untouched so the caller can shed it explicitly.
     */
    QueuePush
    tryPush(T &item)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (closed_)
            return QueuePush::Closed;
        if (items_.size() >= capacity_)
            return QueuePush::Full;
        items_.push_back(std::move(item));
        lock.unlock();
        not_empty_.notify_one();
        return QueuePush::Ok;
    }

    /**
     * Pop up to @p max_items into @p out: blocks until at least one
     * item is available, then drains whatever is queued up to the cap
     * — the natural batch-coalescing pop. Items for which @p expired
     * returns true are swept into @p expired_out instead of @p out —
     * ALL of them, front to back, not just the batch cap, so a consumer
     * can fail every already-dead request in one wakeup. Both vectors
     * are cleared first.
     * @return false only when closed and fully drained; true otherwise
     * (note @p out may be empty when everything queued had expired).
     */
    template <typename ExpiredPred>
    bool
    popBatch(std::vector<T> &out, size_t max_items, ExpiredPred &&expired,
             std::vector<T> &expired_out)
    {
        out.clear();
        expired_out.clear();
        std::unique_lock<std::mutex> lock(mutex_);
        not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return false;    // closed and drained
        while (!items_.empty() && out.size() < max_items) {
            if (expired(items_.front()))
                expired_out.push_back(std::move(items_.front()));
            else
                out.push_back(std::move(items_.front()));
            items_.pop_front();
        }
        // Keep sweeping the remainder for expired items (they would
        // only age further waiting for the next wakeup); fresh items
        // beyond the cap stay queued.
        for (auto it = items_.begin(); it != items_.end();) {
            if (expired(*it)) {
                expired_out.push_back(std::move(*it));
                it = items_.erase(it);
            } else {
                ++it;
            }
        }
        const bool removed = !out.empty() || !expired_out.empty();
        lock.unlock();
        if (removed)
            not_full_.notify_all();
        return true;
    }

    /** Close: pushes fail from now on; pops drain the remainder. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        not_empty_.notify_all();
        not_full_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

  private:
    const size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace clm

#endif // CLM_UTIL_MPMC_QUEUE_HPP
