#include "train/clm_trainer.hpp"

#include <algorithm>
#include <future>
#include <memory>

#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace clm {

ClmTrainer::ClmTrainer(GaussianModel model, std::vector<Camera> cameras,
                       std::vector<Image> ground_truth, TrainConfig config)
    : Trainer(std::move(model), std::move(cameras),
              std::move(ground_truth), config),
      ctx_(model_, adam_, densifier_, cull_dirty_),
      engine_(model_, config_.async_adam)
{
    engine_.setFinalizeFn([this](const std::vector<uint32_t> &fin) {
        return ctx_.finalize(engine_.pool(), fin, densificationEnabled(),
                             !config_.async_adam);
    });
}

void
ClmTrainer::onModelResized()
{
    engine_.reset();
}

DensifyStats
ClmTrainer::densifyNow()
{
    // The finalization thread holds references into the offload state;
    // quiesce it before restructuring (the real system synchronizes the
    // stream and the Adam thread before densification for the same
    // reason).
    engine_.drain();
    return Trainer::densifyNow();
}

BatchStats
ClmTrainer::trainBatch(const std::vector<int> &view_ids)
{
    noteBatchStart();
    BatchStats stats;
    size_t b = view_ids.size();
    CLM_ASSERT(b > 0, "empty batch");

    // 1. Pre-rendering frustum culling (§5.1) + batch planning (§4.2):
    // ordering, caching, finalization — the Figure 13 scheduling stage,
    // part of the batch's measured total.
    Timer sched;
    BatchWorkload wl = ctx_.buildWorkload(
        cullBatch(view_ids, config_.render.parallel), cameras_, view_ids);
    PlannerConfig pc = config_.planner;
    pc.system = SystemKind::Clm;
    const BatchPlanResult &plan = ctx_.planViews(pc, wl);
    engine_.addScheduleTime(sched.seconds());

    // 2. Train the microbatches through the engine: up to W render at
    // once, each serially on a pool thread from its own slot, and the
    // engine commits them here in plan order (§5.3). W = 1 without
    // prefetch: the synchronous reference, through the same code.
    ThreadPool &pool = ThreadPool::global();
    const size_t w =
        config_.prefetch ? std::min<size_t>(pool.threads(), b) : 1;
    while (slots_.size() < w)
        slots_.push_back(std::make_unique<MicrobatchSlot>());
    RenderConfig render = activeRenderConfig();
    render.parallel = false;
    LossConfig loss = config_.loss;
    loss.parallel = false;
    const uint64_t trace_id = currentTraceId();
    std::vector<std::future<double>> losses(b);
    // Never unwind past a render still reading this frame and the ring.
    struct WaitAll
    {
        std::vector<std::future<double>> &f;
        ~WaitAll()
        {
            for (std::future<double> &x : f)
                if (x.valid())
                    x.wait();
        }
    } wait_all{losses};

    auto launch = [&](size_t i, const DeviceBuffer &buf) {
        auto task = std::make_shared<std::packaged_task<double()>>(
            [&, i, view = view_ids[plan.order[i]]] {
                TraceContext trace(trace_id);
                MicrobatchSlot &slot = *slots_[i % w];
                ctx_.gatherCompact(slot, buf, buf.indices());
                return renderAndBackprop(slot, view, render, loss);
            });
        losses[i] = task->get_future();
        pool.submit([task] { (*task)(); });
    };
    auto collect = [&](size_t i, DeviceBuffer &buf) {
        stats.loss += losses[i].get();
        TrainerContext::addCompactGrads(*slots_[i % w], buf);
        stats.gaussians_rendered += buf.rows();
    };
    engine_.runBatch(ctx_.orderedSets(wl), plan.cache, plan.fin, w,
                     launch, collect);

    const TransferEngine::Counters &c = engine_.counters();
    stats.h2d_bytes = static_cast<double>(c.records_loaded)
                      * kNonCriticalBytesPerGaussian;
    stats.d2h_bytes =
        static_cast<double>(c.records_stored) * kGradBytesPerGaussian;
    stats.cache_hits = c.cache_hits;
    stats.adam_updated = c.finalized;
    stats.loss /= b;
    return stats;
}

} // namespace clm
