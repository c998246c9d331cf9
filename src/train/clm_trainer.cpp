#include "train/clm_trainer.hpp"

#include <algorithm>
#include <future>
#include <memory>

#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace clm {

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
    std::vector<Vec3> centers;
    centers.reserve(b);
    for (int v : view_ids)
        centers.push_back(cameras_[v].eye());
    plan_ = scheduleBatch(config_.planner,
                          cullBatch(view_ids, config_.render.parallel),
                          centers, model_.size());
    engine_.addScheduleTime(sched.seconds());

    // 2. Train the microbatches through the engine: up to W render at
    // once, each serially on a pool thread from its own slot, and the
    // engine commits them here in plan order (§5.3). W = 1 without
    // prefetch: the synchronous reference, through the same code.
    ThreadPool &pool = ThreadPool::global();
    const size_t w =
        config_.prefetch ? std::min<size_t>(pool.threads(), b) : 1;
    if (slots_.size() < w)
        slots_.resize(w);
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
            [&, i, view = view_ids[plan_.order[i]]] {
                TraceContext trace(trace_id);
                MicrobatchSlot &slot = slots_[i % w];
                gatherCompact(model_, slot, buf, buf.indices());
                return renderAndBackprop(slot, view, render, loss);
            });
        losses[i] = task->get_future();
        pool.submit([task] { (*task)(); });
    };
    auto collect = [&](size_t i, DeviceBuffer &buf) {
        stats.loss += losses[i].get();
        addCompactGrads(slots_[i % w], buf);
        stats.gaussians_rendered += buf.rows();
    };
    engine_.runBatch(plan_.sets, plan_.cache, plan_.fin, w, launch,
                     collect);

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
