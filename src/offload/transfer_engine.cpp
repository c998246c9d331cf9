#include "offload/transfer_engine.hpp"

#include <algorithm>

#include "gaussian/model.hpp"
#include "util/logging.hpp"

namespace clm {

TransferEngine::TransferEngine(const GaussianModel &model,
                               bool async_finalize)
    : model_(model), async_finalize_(async_finalize), pool_(model.size())
{
    if (async_finalize_)
        adam_thread_ = std::thread([this] { adamThreadLoop(); });
}

TransferEngine::~TransferEngine()
{
    stopAdamThread();
}

void
TransferEngine::stopAdamThread()
{
    if (!adam_thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(adam_mutex_);
        adam_stop_ = true;
    }
    adam_cv_.notify_all();
    adam_thread_.join();
}

void
TransferEngine::reset()
{
    drain();
    pool_ = PinnedPool(model_.size());
    ring_.clear();
}

void
TransferEngine::addStageTime(TrainStage stage, double seconds)
{
    std::lock_guard<std::mutex> lock(timings_mutex_);
    timings_.add(stage, seconds);
}

void
TransferEngine::addScheduleTime(double seconds)
{
    std::lock_guard<std::mutex> lock(timings_mutex_);
    timings_.add(TrainStage::Schedule, seconds);
    timings_.batch_seconds += seconds;
}

void
TransferEngine::resetTimings()
{
    std::lock_guard<std::mutex> lock(timings_mutex_);
    timings_.reset();
}

void
TransferEngine::runBatch(std::vector<std::vector<uint32_t>> ordered_sets,
                         CachePlan cache, FinalizationSchedule fin,
                         size_t depth, const LaunchFn &launch,
                         const CollectFn &collect)
{
    CLM_ASSERT(cache.mb.size() == ordered_sets.size(),
               "cache plan does not cover the batch");
    CLM_ASSERT(fin.finalized_after.empty() || finalize_fn_,
               "finalization schedule without a finalize callback");
    CLM_ASSERT(pool_.size() == model_.size(),
               "model resized without TransferEngine::reset()");
    sets_ = std::move(ordered_sets);
    cache_ = std::move(cache);
    fin_ = std::move(fin);
    counters_ = {};
    last_scatter_t_ = 0;
    last_finalize_t_ = 0;
    batch_timer_.reset();
    const size_t b = sets_.size();
    const size_t w = std::min(std::max<size_t>(depth, 1), b);
    ring_size_ = w + 1;
    if (ring_.size() < ring_size_)
        ring_.resize(ring_size_);
    stalls_.assign(b, 0.0);

    // Fill the pipeline; only the first staging has nothing to overlap.
    for (size_t i = 0; i < w; ++i)
        stageAndLaunch(i, i == 0, launch);
    for (size_t j = 0; j < b; ++j) {
        commit(j, collect);
        // Buffer j-1 is free: its gradients were carried into j and its
        // parameter rows were last read when j was staged. At W = 1
        // nothing is in flight now, so the staging is exposed.
        if (j + w < b)
            stageAndLaunch(j + w, w == 1, launch);
    }

    // The batch completes only when the Adam thread has applied every
    // queued update (the next batch's culling must see them).
    drainAdamThread();
    counters_.finalized += async_finalized_.exchange(0);
    std::lock_guard<std::mutex> lock(timings_mutex_);
    timings_.trailing_adam_seconds +=
        std::max(0.0, last_finalize_t_ - last_scatter_t_);
    timings_.batch_seconds += batch_timer_.seconds();
}

void
TransferEngine::stageAndLaunch(size_t i, bool exposed,
                               const LaunchFn &launch)
{
    DeviceBuffer &buf = buffer(i);
    const MicrobatchTransfers &t = cache_.mb[i];
    Timer timer;
    // Selective load (PCIe) of the master rows (§4.2.1, §5.2) into the
    // rebound buffer, whose gradient rows start at zero.
    buf.bind(sets_[i]);
    gatherParams(model_, buf, t.load_new);
    buf.zeroGrads();
    double staged = timer.seconds();
    addStageTime(TrainStage::Gather, staged);
    counters_.records_loaded += t.load_new.size();
    // Cache copy (GPU-GPU) from the previous microbatch's buffer. Its
    // parameter rows are immutable until it is rebound, W+1 microbatches
    // later, so this is safe while microbatch i-1 still computes.
    if (i > 0 && !t.copy_cached.empty()) {
        timer.reset();
        copyCachedParams(buffer(i - 1), buf, t.copy_cached);
        const double copied = timer.seconds();
        addStageTime(TrainStage::CacheCopy, copied);
        staged += copied;
    }
    counters_.cache_hits += t.copy_cached.size();
    if (exposed)
        stalls_[i] = staged;
    peak_buffer_rows_ = std::max(peak_buffer_rows_, buf.rows());
    // Handing the microbatch to its compute (waking a pool thread) is
    // compute time on the committing thread, like waiting for it.
    timer.reset();
    launch(i, buf);
    addStageTime(TrainStage::Compute, timer.seconds());
}

void
TransferEngine::commit(size_t i, const CollectFn &collect)
{
    DeviceBuffer &buf = buffer(i);
    // Take over carried gradient accumulations from the previous
    // microbatch (§5.3) first, so every row sums as (0 + carry) + own
    // at any depth. Touches only gradient rows, which compute never
    // reads.
    if (i > 0 && !cache_.mb[i - 1].carry_grads.empty()) {
        Timer timer;
        accumulateCarriedGrads(buffer(i - 1), buf,
                               cache_.mb[i - 1].carry_grads);
        addStageTime(TrainStage::Carry, timer.seconds());
    }
    // The committing thread's exposed wait for microbatch i's compute.
    Timer compute_timer;
    collect(i, buf);
    const double compute = compute_timer.seconds();
    addStageTime(TrainStage::Compute, compute);
    {
        std::lock_guard<std::mutex> lock(timings_mutex_);
        timings_.noteMicrobatch(stalls_[i], compute);
    }

    const MicrobatchTransfers &t = cache_.mb[i];
    // Selective RMW gradient offload for rows not needed next (§5.3).
    Timer timer;
    scatterAccumulateGrads(buf, pool_, t.store_grads);
    addStageTime(TrainStage::Scatter, timer.seconds());
    counters_.records_stored += t.store_grads.size();
    last_scatter_t_ = batch_timer_.seconds();

    // Overlapped CPU Adam: everything finalized by this microbatch
    // (1-based index i+1 in the schedule).
    if (i + 1 < fin_.finalized_after.size())
        dispatchFinalize(std::move(fin_.finalized_after[i + 1]),
                         i % kSignalSlots);
}

size_t
TransferEngine::runFinalize(const std::vector<uint32_t> &fin)
{
    CLM_ASSERT(finalize_fn_, "finalize without a callback");
    Timer timer;
    size_t updated = finalize_fn_(fin);
    double secs = timer.seconds();
    double at = batch_timer_.seconds();
    {
        std::lock_guard<std::mutex> lock(timings_mutex_);
        timings_.add(TrainStage::Finalize, secs);
        timings_.finalize_inline |= !async_finalize_;
        last_finalize_t_ = std::max(last_finalize_t_, at);
    }
    return updated;
}

void
TransferEngine::dispatchFinalize(std::vector<uint32_t> fin, size_t slot)
{
    if (fin.empty())
        return;
    if (!async_finalize_) {
        counters_.finalized += runFinalize(fin);
        return;
    }
    // "DMA" the completion signal, then wake the Adam thread (§5.4).
    *pool_.signalSlot(slot) = 1;
    {
        std::lock_guard<std::mutex> lock(adam_mutex_);
        adam_jobs_.push(FinalizeJob{std::move(fin), slot});
        ++adam_pending_;
    }
    adam_cv_.notify_one();
}

void
TransferEngine::adamThreadLoop()
{
    for (;;) {
        FinalizeJob job;
        {
            std::unique_lock<std::mutex> lock(adam_mutex_);
            adam_cv_.wait(lock, [this] {
                return adam_stop_ || !adam_jobs_.empty();
            });
            if (adam_stop_ && adam_jobs_.empty())
                return;
            job = std::move(adam_jobs_.front());
            adam_jobs_.pop();
        }
        // Honour the §5.4 handshake: the communication "stream" set the
        // gradient-completion flag via DMA before enqueueing the job.
        uint32_t *signal = pool_.signalSlot(job.signal_slot);
        CLM_ASSERT(*signal == 1u, "adam thread woke before gradients");
        async_finalized_ += runFinalize(job.fin);
        *signal = 0;
        {
            std::lock_guard<std::mutex> lock(adam_mutex_);
            --adam_pending_;
            if (adam_pending_ == 0)
                adam_cv_.notify_all();
        }
    }
}

void
TransferEngine::drainAdamThread()
{
    if (!async_finalize_)
        return;
    std::unique_lock<std::mutex> lock(adam_mutex_);
    adam_cv_.wait(lock, [this] { return adam_pending_ == 0; });
}

} // namespace clm
