#include "train/naive_offload_trainer.hpp"

#include <algorithm>
#include <numeric>

#include "util/logging.hpp"

namespace clm {

namespace {

TransferEngineConfig
naiveEngineConfig(const TrainConfig &config)
{
    // Figure 3's pipeline has no overlap: transfers sit on the critical
    // path (prefetch off) and every record reloads each batch (caching
    // is disabled per batch in the cache plan below).
    TransferEngineConfig ec;
    ec.prefetch = false;
    ec.async_finalize = config.async_adam;
    return ec;
}

} // namespace

NaiveOffloadTrainer::NaiveOffloadTrainer(GaussianModel model,
                                         std::vector<Camera> cameras,
                                         std::vector<Image> ground_truth,
                                         TrainConfig config)
    : Trainer(std::move(model), std::move(cameras),
              std::move(ground_truth), config),
      ctx_(model_, adam_, densifier_),
      engine_(model_.size(), naiveEngineConfig(config_))
{
    engine_.setFinalizeFn([this](const std::vector<uint32_t> &fin) {
        return ctx_.finalize(engine_.pool(), fin, densificationEnabled(),
                             !config_.async_adam);
    });
    engine_.uploadParams(model_);
}

void
NaiveOffloadTrainer::onModelResized()
{
    ctx_.rebuild();
    engine_.reset(model_.size());
    engine_.uploadParams(model_);
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

    // Cull the whole batch up front in one fused sweep: the critical
    // store cannot change inside a naive batch, because the only
    // finalization runs after the view loop.
    std::vector<std::vector<uint32_t>> subsets =
        ctx_.cullViews(cameras_, view_ids, config_.render.parallel);

    // "Load ALL parameters" — the full CPU->GPU copy of Figure 3, as one
    // whole-model microbatch with caching disabled.
    std::vector<uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    CachePlan cache = planCache({all}, /*enable_cache=*/false);
    engine_.beginBatch({all}, std::move(cache), FinalizationSchedule{});
    DeviceBuffer &buf = engine_.acquire(0);

    // Train one view at a time, each from its compact microbatch, with
    // gradient accumulation into the staging rows (the "GPU" working
    // copy; buffer row = model row).
    std::vector<uint32_t> touched;
    for (size_t k = 0; k < view_ids.size(); ++k) {
        const int v = view_ids[k];
        const std::vector<uint32_t> &subset = subsets[k];
        stats.gaussians_rendered += subset.size();
        stats.loss += ctx_.trainMicrobatch(
            buf, subset, [&](const GaussianModel &m,
                             const std::vector<uint32_t> &compact,
                             GaussianGrads &grads) {
                return renderAndBackprop(m, v, compact, grads);
            });
        touched.insert(touched.end(), subset.begin(), subset.end());
    }
    stats.loss /= view_ids.size();

    // "Store ALL gradients" — the full GPU->CPU scatter — then CPU Adam
    // on the master copy (sparse over touched Gaussians, the same rule
    // every trainer uses so trajectories are comparable).
    engine_.release(0);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    engine_.finalizeNow(std::move(touched));
    engine_.endBatch();

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
