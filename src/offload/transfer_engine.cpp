#include "offload/transfer_engine.hpp"

#include <algorithm>
#include <cstring>

#include "gaussian/model.hpp"
#include "util/logging.hpp"

namespace clm {

void
packGradRecord(const GaussianGrads &grads, size_t i, float *out)
{
    out[0] = grads.d_position[i].x;
    out[1] = grads.d_position[i].y;
    out[2] = grads.d_position[i].z;
    out[3] = grads.d_log_scale[i].x;
    out[4] = grads.d_log_scale[i].y;
    out[5] = grads.d_log_scale[i].z;
    out[6] = grads.d_rotation[i].w;
    out[7] = grads.d_rotation[i].x;
    out[8] = grads.d_rotation[i].y;
    out[9] = grads.d_rotation[i].z;
    std::memcpy(out + kShOffset, &grads.d_sh[i * kShDim],
                kShDim * sizeof(float));
    out[kOpacityOffset] = grads.d_opacity[i];
}

TransferEngine::TransferEngine(size_t n, TransferEngineConfig config)
    : config_(config), pool_(n, config.signal_slots),
      buffers_{DeviceBuffer(n), DeviceBuffer(n)}
{
    if (config_.prefetch)
        staging_pool_ = std::make_unique<ThreadPool>(1);
    if (config_.async_finalize)
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
TransferEngine::reset(size_t n)
{
    drain();
    pool_ = PinnedPool(n, config_.signal_slots);
    buffers_ = {DeviceBuffer(n), DeviceBuffer(n)};
}

void
TransferEngine::uploadParams(const GaussianModel &model)
{
    CLM_ASSERT(model.size() == pool_.size(),
               "upload size mismatch: ", model.size(), " vs ",
               pool_.size());
    pool_.uploadParams(model);
    pool_.zeroGradients();
}

void
TransferEngine::addStageTime(TrainStage stage, double seconds)
{
    std::lock_guard<std::mutex> lock(timings_mutex_);
    timings_.add(stage, seconds);
}

void
TransferEngine::resetTimings()
{
    std::lock_guard<std::mutex> lock(timings_mutex_);
    timings_.reset();
}

void
TransferEngine::beginBatch(std::vector<std::vector<uint32_t>> ordered_sets,
                           CachePlan cache, FinalizationSchedule fin)
{
    CLM_ASSERT(!in_batch_, "beginBatch inside an open batch");
    CLM_ASSERT(cache.mb.size() == ordered_sets.size(),
               "cache plan does not cover the batch");
    CLM_ASSERT(fin.finalized_after.empty() || finalize_fn_,
               "finalization schedule without a finalize callback");
    sets_ = std::move(ordered_sets);
    cache_ = std::move(cache);
    fin_ = std::move(fin);
    counters_ = {};
    last_scatter_t_ = 0;
    last_finalize_t_ = 0;
    in_batch_ = true;
    batch_timer_.reset();
    // The first microbatch has nothing to overlap with; prefetch it now
    // so acquire(0) measures only the unavoidable stall.
    if (config_.prefetch && !sets_.empty())
        staging_pool_->submit([this] { stage(0); });
}

void
TransferEngine::stage(size_t i)
{
    DeviceBuffer &buf = buffers_[i % 2];
    const MicrobatchTransfers &t = cache_.mb[i];
    Timer timer;
    buf.bind(sets_[i]);
    // Selective load (PCIe) from the pinned pool (§4.2.1, §5.2).
    gatherParams(pool_, buf, t.load_new);
    addStageTime(TrainStage::Gather, timer.seconds());
    counters_.records_loaded += t.load_new.size();
    // Cache copy (GPU-GPU) from the previous microbatch's buffer. Its
    // parameter rows are immutable once staged, so this is safe while
    // microbatch i-1 is still computing (it only writes gradient rows).
    if (i > 0 && !t.copy_cached.empty()) {
        timer.reset();
        copyCachedParams(buffers_[(i - 1) % 2], buf, t.copy_cached);
        addStageTime(TrainStage::CacheCopy, timer.seconds());
    }
    counters_.cache_hits += t.copy_cached.size();
    buf.zeroGrads();
}

DeviceBuffer &
TransferEngine::acquire(size_t i)
{
    CLM_ASSERT(in_batch_, "acquire outside a batch");
    CLM_ASSERT(i < sets_.size(), "microbatch ", i, " of ", sets_.size());
    // Wait for staging (prefetch: the stall is the exposed transfer
    // time; synchronous: staging runs right here on the critical path).
    Timer wait_timer;
    if (config_.prefetch)
        staging_pool_->wait();
    else
        stage(i);
    pending_wait_ = wait_timer.seconds();

    DeviceBuffer &buf = buffers_[i % 2];
    // Take over carried gradient accumulations from the previous
    // microbatch (§5.3). Must happen before the previous buffer is
    // rebound by the next prefetch below.
    if (i > 0 && !cache_.mb[i - 1].carry_grads.empty()) {
        Timer timer;
        accumulateCarriedGrads(buffers_[(i - 1) % 2], buf,
                               cache_.mb[i - 1].carry_grads);
        addStageTime(TrainStage::Carry, timer.seconds());
    }
    // Stage microbatch i+1 on the worker while i computes (§5.3). Reads
    // only buf's parameter rows and the pinned parameter records — both
    // immutable until the next batch — so it overlaps compute, scatter
    // and finalization safely (finalized Gaussians never reappear in a
    // later set by the §4.2.2 finalization property).
    if (config_.prefetch && i + 1 < sets_.size())
        staging_pool_->submit([this, next = i + 1] { stage(next); });

    peak_buffer_rows_ = std::max(peak_buffer_rows_, buf.rows());
    compute_timer_.reset();
    return buf;
}

void
TransferEngine::release(size_t i)
{
    CLM_ASSERT(in_batch_, "release outside a batch");
    double compute = compute_timer_.seconds();
    addStageTime(TrainStage::Compute, compute);
    {
        std::lock_guard<std::mutex> lock(timings_mutex_);
        timings_.noteMicrobatch(pending_wait_, compute);
    }

    DeviceBuffer &buf = buffers_[i % 2];
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
                         i % config_.signal_slots);
}

void
TransferEngine::finalizeNow(std::vector<uint32_t> fin)
{
    CLM_ASSERT(in_batch_, "finalizeNow outside a batch");
    dispatchFinalize(std::move(fin), 0);
}

void
TransferEngine::endBatch()
{
    CLM_ASSERT(in_batch_, "endBatch without beginBatch");
    if (staging_pool_)
        staging_pool_->wait();
    drainAdamThread();
    counters_.finalized += async_finalized_.exchange(0);
    {
        std::lock_guard<std::mutex> lock(timings_mutex_);
        timings_.trailing_adam_seconds +=
            std::max(0.0, last_finalize_t_ - last_scatter_t_);
        timings_.batch_seconds += batch_timer_.seconds();
    }
    in_batch_ = false;
}

void
TransferEngine::drain()
{
    if (staging_pool_)
        staging_pool_->wait();
    drainAdamThread();
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
        timings_.finalize_inline |= !config_.async_finalize;
        last_finalize_t_ = std::max(last_finalize_t_, at);
    }
    return updated;
}

void
TransferEngine::dispatchFinalize(std::vector<uint32_t> fin, size_t slot)
{
    if (fin.empty())
        return;
    if (!config_.async_finalize) {
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
    if (!config_.async_finalize)
        return;
    std::unique_lock<std::mutex> lock(adam_mutex_);
    adam_cv_.wait(lock, [this] { return adam_pending_ == 0; });
}

} // namespace clm
