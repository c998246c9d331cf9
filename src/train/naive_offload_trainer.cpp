#include "train/naive_offload_trainer.hpp"

#include <algorithm>
#include <numeric>

#include "util/logging.hpp"
#include "util/timer.hpp"

namespace clm {

NaiveOffloadTrainer::NaiveOffloadTrainer(GaussianModel model,
                                         std::vector<Camera> cameras,
                                         std::vector<Image> ground_truth,
                                         TrainConfig config)
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
NaiveOffloadTrainer::onModelResized()
{
    engine_.reset();
}

DensifyStats
NaiveOffloadTrainer::densifyNow()
{
    engine_.drain();
    return Trainer::densifyNow();
}

BatchStats
NaiveOffloadTrainer::trainBatch(const std::vector<int> &view_ids)
{
    noteBatchStart();
    BatchStats stats;
    size_t n = model_.size();

    // Cull the whole batch up front in one fused sweep: the model's
    // critical rows cannot change inside a naive batch, because the
    // only finalization runs after the view loop. Cull and plan are the
    // batch's Schedule stage.
    Timer sched;
    std::vector<std::vector<uint32_t>> subsets =
        cullBatch(view_ids, config_.render.parallel);

    // CPU Adam on the master copy runs sparse over the touched
    // Gaussians, the same rule every trainer uses so trajectories are
    // comparable.
    std::vector<uint32_t> touched;
    for (const std::vector<uint32_t> &subset : subsets)
        touched.insert(touched.end(), subset.begin(), subset.end());
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    FinalizationSchedule fin;
    fin.finalized_after = {{}, std::move(touched)};

    // "Load ALL parameters" — the full CPU->GPU copy of Figure 3, as one
    // whole-model microbatch with caching disabled — then train one
    // view at a time, each from its compact microbatch, with gradient
    // accumulation into the staging rows (the "GPU" working copy;
    // buffer row = model row). Its commit is "store ALL gradients" —
    // the full GPU->CPU scatter — followed by the Adam pass. Figure 3's
    // pipeline has no overlap: with the whole model one microbatch,
    // its transfers sit on the critical path, and every record reloads
    // each batch.
    std::vector<uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    CachePlan cache = planCache({all}, /*enable_cache=*/false);
    engine_.addScheduleTime(sched.seconds());
    const RenderConfig render = activeRenderConfig();
    auto train_views = [&](size_t, DeviceBuffer &buf) {
        for (size_t k = 0; k < view_ids.size(); ++k) {
            const std::vector<uint32_t> &subset = subsets[k];
            stats.gaussians_rendered += subset.size();
            ctx_.gatherCompact(slot_, buf, subset);
            stats.loss +=
                renderAndBackprop(slot_, view_ids[k], render, config_.loss);
            TrainerContext::addCompactGrads(slot_, buf);
        }
    };
    engine_.runBatch({std::move(all)}, std::move(cache), std::move(fin), 1,
                     [](size_t, const DeviceBuffer &) {}, train_views);
    stats.loss /= view_ids.size();

    // Figure 3 moves every Gaussian's full 59-parameter record in both
    // directions; the engine's record counters scale accordingly.
    const TransferEngine::Counters &c = engine_.counters();
    stats.h2d_bytes = static_cast<double>(c.records_loaded)
                      * kParamBytesPerGaussian;
    stats.d2h_bytes = static_cast<double>(c.records_stored)
                      * kParamBytesPerGaussian;
    stats.adam_updated = c.finalized;
    return stats;
}

} // namespace clm
