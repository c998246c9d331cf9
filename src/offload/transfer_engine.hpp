/**
 * @file
 * The unified offload data path (§4-§5): one engine that owns the pinned
 * gradient pool, a ring of device staging buffers, the selective
 * gather/cached-copy/RMW-scatter kernels, and the §5.4 dedicated
 * finalization (CPU Adam) thread with its pinned signal slots. It stages
 * non-critical rows straight from the master model it is built on, the
 * one host copy that CPU Adam updates in place. A batch is a pipeline
 * of up to W microbatches computing at once over a ring of W+1 buffers
 * (§5.3's double buffer, generalized): staging, carried gradients, RMW
 * scatter and finalization dispatch all run on the calling thread,
 * strictly in plan order, while the trainer's compute
 * may run on other threads. Every trainer is a thin policy over this
 * engine: CLM computes one microbatch per pool thread with caching on,
 * naive offloading stages the whole model as a single microbatch. All
 * stage wall times are stamped into a StageTimings record that
 * sim/metrics converts into the Figure 13/15 measured shapes.
 */

#ifndef CLM_OFFLOAD_TRANSFER_ENGINE_HPP
#define CLM_OFFLOAD_TRANSFER_ENGINE_HPP

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "offload/cache_planner.hpp"
#include "offload/finalization.hpp"
#include "offload/pinned_pool.hpp"
#include "offload/selective_copy.hpp"
#include "sim/stage_timings.hpp"
#include "util/timer.hpp"

namespace clm {

class GaussianModel;

/**
 * See the file comment. One runBatch() call runs a batch of B
 * microbatches with up to W = @p depth of them computing at once;
 * microbatch i lives in ring buffer i mod (W+1):
 *
 *   stage 0..W-1, launching each as soon as it is staged
 *   for j in 0..B-1:                       // commit j, in plan order
 *       carry gradients of buffer j-1 into buffer j
 *       collect(j)       // wait for j's compute, add its gradients
 *       RMW-scatter j's stored rows, dispatch F_{j+1} to CPU Adam
 *       stage j+W into buffer j-1's slot (now free), launch it
 *   drain the Adam thread
 *
 * Staging reads buffer j+W-1's parameter rows (cached copies) and the
 * master rows of set j+W; finalization writes only rows no later set
 * holds (the §4.2.2 last-touch property), so neither races with
 * in-flight compute, and staging never reads a row the Adam thread
 * writes. Every float sum keeps the same association at any W, so
 * W changes timing, never results. W = 1 is the synchronous schedule.
 */
class TransferEngine
{
  public:
    /** Runs subset CPU Adam for a finalized set; returns rows updated.
     *  Supplied by the trainer (it owns the master model + optimizer). */
    using FinalizeFn = std::function<size_t(const std::vector<uint32_t> &)>;

    /** Starts microbatch i's compute from its staged buffer and may
     *  return at once (the compute can run on another thread). The
     *  compute may read only the buffer's bound indices and parameter
     *  rows, until collect(i) returns. */
    using LaunchFn = std::function<void(size_t i, const DeviceBuffer &)>;

    /** Blocks until microbatch i's compute is done, then adds its
     *  gradients into the buffer's gradient rows. */
    using CollectFn = std::function<void(size_t i, DeviceBuffer &)>;

    /** Engine over the master @p model, whose rows it stages and whose
     *  size sets the gradient pool's. With @p async_finalize,
     *  finalization runs on the dedicated CPU Adam thread (§5.4),
     *  handshaking through the pinned signal slots; otherwise inline on
     *  the calling thread. */
    explicit TransferEngine(const GaussianModel &model,
                            bool async_finalize = false);

    ~TransferEngine();

    TransferEngine(const TransferEngine &) = delete;
    TransferEngine &operator=(const TransferEngine &) = delete;

    /** Install the finalization callback (required before any batch that
     *  dispatches finalization). */
    void setFinalizeFn(FinalizeFn fn) { finalize_fn_ = std::move(fn); }

    /** Quiesce the Adam thread and rebuild pool + buffers for the
     *  master model's current size (densification / topology changes). */
    void reset();

    /**
     * Run one batch (see class comment): microbatch i binds
     * @p ordered_sets[i] (ascending) and moves data as @p cache plans;
     * F_{i+1} of @p fin is finalized after microbatch i commits. At most
     * @p depth microbatches are launched and not yet collected. Returns
     * once every finalization has been applied. If @p collect throws,
     * the exception propagates; the caller must still wait for any
     * compute it launched before touching the buffers again.
     */
    void runBatch(std::vector<std::vector<uint32_t>> ordered_sets,
                  CachePlan cache, FinalizationSchedule fin, size_t depth,
                  const LaunchFn &launch, const CollectFn &collect);

    /** Block until the Adam thread is idle. Safe to call between
     *  batches (densification, checkpointing). */
    void drain() { drainAdamThread(); }

    /** Per-batch record counters, valid after runBatch(). */
    struct Counters
    {
        size_t records_loaded = 0;    //!< Pinned->device gathers (PCIe).
        size_t cache_hits = 0;        //!< Device-to-device cached copies.
        size_t records_stored = 0;    //!< RMW gradient scatters (PCIe).
        size_t finalized = 0;         //!< Gaussians whose Adam step ran.
    };
    const Counters &counters() const { return counters_; }

    const PinnedPool &pool() const { return pool_; }
    PinnedPool &pool() { return pool_; }

    /** Pinned bytes held: gradient records and signal slots. */
    size_t pinnedBytes() const { return pool_.bytes(); }

    /** Peak rows ever bound in one ring buffer (memory accounting). */
    size_t peakBufferRows() const { return peak_buffer_rows_; }

    /** Measured stage timers (accumulated; call between batches). */
    const StageTimings &timings() const { return timings_; }

    /** Record the caller's scheduling of the next batch (cull + plan,
     *  measured outside the engine) as TrainStage::Schedule; it counts
     *  in StageTimings::batch_seconds too, beside runBatch()'s time. */
    void addScheduleTime(double seconds);

    /** Discard accumulated stage timers. */
    void resetTimings();

  private:
    /** Record @p seconds of busy time for @p stage (any thread). */
    void addStageTime(TrainStage stage, double seconds);

    /** Ring buffer of microbatch @p i (W+1 buffers for depth W). */
    DeviceBuffer &buffer(size_t i) { return ring_[i % ring_size_]; }

    /** Stage microbatch @p i: bind, gather new records, zero gradient
     *  rows, copy cached rows from buffer i-1; then launch it. When
     *  @p exposed (no compute in flight) the staging time is recorded
     *  as the microbatch's stall. */
    void stageAndLaunch(size_t i, bool exposed, const LaunchFn &launch);

    /** Commit microbatch @p i in plan order: carry, collect, RMW
     *  scatter, finalization dispatch. */
    void commit(size_t i, const CollectFn &collect);

    /** Dispatch finalization of @p fin (inline, or signal + enqueue for
     *  the Adam thread as in §5.4). */
    void dispatchFinalize(std::vector<uint32_t> fin, size_t slot);

    /** Run the finalize callback under the Finalize stage timer. */
    size_t runFinalize(const std::vector<uint32_t> &fin);

    /** §5.4 dedicated-thread loop: wait on the signal slot, run subset
     *  Adam, repeat. */
    void adamThreadLoop();

    /** Block until every queued finalization has been applied. */
    void drainAdamThread();

    void stopAdamThread();

    const GaussianModel &model_;    //!< Master copy staged from.
    const bool async_finalize_;
    FinalizeFn finalize_fn_;
    PinnedPool pool_;
    std::vector<DeviceBuffer> ring_;    //!< Grows to the largest W+1.
    size_t ring_size_ = 1;              //!< W+1 of the current batch.

    // Batch-scoped state.
    std::vector<std::vector<uint32_t>> sets_;
    CachePlan cache_;
    FinalizationSchedule fin_;
    std::vector<double> stalls_;    //!< Exposed staging per microbatch.
    Counters counters_;
    Timer batch_timer_;
    double last_scatter_t_ = 0;     //!< Batch-clock time of last scatter.
    double last_finalize_t_ = 0;    //!< Batch-clock time of last Adam end.

    size_t peak_buffer_rows_ = 0;

    // Stage timers, written from the calling and Adam threads.
    StageTimings timings_;
    mutable std::mutex timings_mutex_;

    // Dedicated CPU Adam thread state (active when async_finalize_).
    struct FinalizeJob
    {
        std::vector<uint32_t> fin;
        size_t signal_slot;
    };
    std::thread adam_thread_;
    std::mutex adam_mutex_;
    std::condition_variable adam_cv_;
    std::queue<FinalizeJob> adam_jobs_;
    size_t adam_pending_ = 0;
    bool adam_stop_ = false;
    std::atomic<size_t> async_finalized_{0};
};

} // namespace clm

#endif // CLM_OFFLOAD_TRANSFER_ENGINE_HPP
