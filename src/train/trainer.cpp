#include "train/trainer.hpp"

#include <algorithm>

#include "math/simd_backend.hpp"
#include "obs/trace.hpp"
#include "render/batch.hpp"
#include "serve/snapshot.hpp"
#include "train/clm_trainer.hpp"
#include "train/naive_offload_trainer.hpp"
#include "util/logging.hpp"

namespace clm {

Trainer::Trainer(GaussianModel model, std::vector<Camera> cameras,
                 std::vector<Image> ground_truth, TrainConfig config)
    : model_(std::move(model)), cameras_(std::move(cameras)),
      ground_truth_(std::move(ground_truth)), config_(config),
      adam_(config.adam), rng_(config.seed)
{
    CLM_ASSERT(cameras_.size() == ground_truth_.size(),
               "one ground-truth image per camera required");
    CLM_ASSERT(!cameras_.empty(), "need at least one view");
    adam_.reset(model_.size());
    buildCullStage(model_, arena_.cull, config_.render.parallel);
    // One startup line so training logs record which SIMD kernel table
    // the run dispatched to (CLM_SIMD can override the CPUID choice).
    static const bool logged_simd = [] {
        inform("render kernels: ", simdDispatchName(),
               " (build ", simdIsaName(), ")");
        return true;
    }();
    (void)logged_simd;
}

std::vector<BatchStats>
Trainer::trainSteps(int steps)
{
    std::vector<BatchStats> stats;
    stats.reserve(steps);
    for (int s = 0; s < steps; ++s) {
        std::vector<int> ids;
        ids.reserve(config_.batch_size);
        for (int b = 0; b < config_.batch_size; ++b)
            ids.push_back(static_cast<int>(
                rng_.uniformInt(0, cameras_.size() - 1)));
        stats.push_back(trainBatch(ids));
        // Step boundary: no batch is in flight, so the model is a
        // consistent state — safe to hand to concurrent readers.
        publishSnapshot();
    }
    return stats;
}

void
Trainer::setSnapshotSink(SnapshotSlot *slot)
{
    snapshot_sink_ = slot;
    publishSnapshot();    // readers get the pre-training state at once
}

void
Trainer::publishSnapshot()
{
    // Unconditional: a reader attaching at ANY later point must find
    // the latest step's state, so every boundary republishes. The cost
    // (one model copy + hash) is small next to a training batch at the
    // session model sizes trainers run; skipping republishes while the
    // slot is idle would hand late-attaching readers a stale model.
    if (snapshot_sink_ != nullptr) {
        ScopedSpan span("train.publish");
        snapshot_sink_->publish(model(), batches_done_);
    }
}

double
Trainer::evaluatePsnr() const
{
    const GaussianModel &m = model();
    double acc = 0.0;
    RenderArena arena;
    cullViewGroups(
        m, cameras_, config_.render.parallel,
        [&](size_t first, const std::vector<Camera> &cams,
            std::vector<std::vector<uint32_t>> &subsets) {
            renderForwardBatch(m, cams, subsets, config_.render, arena);
            for (size_t k = 0; k < cams.size(); ++k)
                acc += arena.views[k].out.image.psnr(
                    ground_truth_[first + k]);
        });
    return acc / cameras_.size();
}

void
Trainer::enableDensification(DensifyConfig config)
{
    densifier_ = Densifier(config);
    densifier_.reset(model_.size());
    densify_enabled_ = true;
}

void
Trainer::observeDensify(const GaussianGrads &grads)
{
    if (densify_enabled_)
        densifier_.observe(grads);
}

DensifyStats
Trainer::densifyNow()
{
    CLM_ASSERT(densify_enabled_, "enableDensification() first");
    DensifyStats stats = densifier_.densify(model_, adam_, rng_);
    buildCullStage(model_, arena_.cull, config_.render.parallel);
    cull_dirty_.clear();
    onModelResized();
    // Densification restructures the model; republish so serving reads
    // the new topology instead of a retired snapshot for too long.
    publishSnapshot();
    return stats;
}

int
Trainer::activeShDegree() const
{
    if (config_.sh_degree_interval <= 0)
        return config_.render.sh_degree;
    return std::min(config_.render.sh_degree,
                    batches_done_ / config_.sh_degree_interval);
}

RenderConfig
Trainer::activeRenderConfig() const
{
    RenderConfig cfg = config_.render;
    cfg.sh_degree = activeShDegree();
    return cfg;
}

std::vector<std::vector<uint32_t>>
Trainer::cullBatch(const std::vector<int> &view_ids, bool parallel)
{
    CLM_ASSERT(!view_ids.empty(), "empty batch");
    std::vector<Camera> cams;
    cams.reserve(view_ids.size());
    for (int v : view_ids)
        cams.push_back(cameras_[v]);
    // Only the dirty rows changed since the last cull.
    refreshCullStage(model_, cull_dirty_, arena_.cull, parallel);
    cull_dirty_.clear();
    std::vector<std::vector<uint32_t>> sets;
    frustumCullBatch(model_, cams, arena_.cull, sets, parallel);
    return sets;
}

GpuOnlyTrainer::GpuOnlyTrainer(GaussianModel model,
                               std::vector<Camera> cameras,
                               std::vector<Image> ground_truth,
                               TrainConfig config)
    : Trainer(std::move(model), std::move(cameras), std::move(ground_truth),
              config)
{
    grads_.resize(model_.size());
}

void
GpuOnlyTrainer::onModelResized()
{
    grads_.resize(model_.size());
}

BatchStats
GpuOnlyTrainer::trainBatch(const std::vector<int> &view_ids)
{
    noteBatchStart();
    BatchStats stats;
    grads_.zero();

    // One batched cull, one fused forward with retained staging, one
    // fused backward; the union of the views' subsets (sort+unique of
    // their concatenation) is the Adam subset.
    const size_t B = view_ids.size();
    RenderConfig render = activeRenderConfig();
    std::vector<Camera> cams;
    cams.reserve(B);
    for (int v : view_ids)
        cams.push_back(cameras_[v]);
    StageClock stage_clock;
    std::vector<std::vector<uint32_t>> subsets =
        cullBatch(view_ids, render.parallel);
    arena_.retain_staging = true;
    renderForwardBatch(model_, cams, subsets, render, arena_);
    stage_clock.lap("train.forward");
    d_images_.resize(B);
    for (size_t i = 0; i < B; ++i) {
        stats.gaussians_rendered += subsets[i].size();
        LossResult loss = computeLoss(arena_.views[i].out.image,
                                      ground_truth_[view_ids[i]],
                                      &d_images_[i], config_.loss,
                                      loss_scratch_);
        stats.loss += loss.total;
    }
    stage_clock.lap("train.loss");
    renderBackwardBatch(model_, cams, render, d_images_, grads_, arena_);
    stage_clock.lap("train.backward");
    const std::vector<uint32_t> &touched = arena_.union_indices;
    stats.loss /= view_ids.size();

    {
        ScopedSpan span("train.adam");
        adam_.updateSubset(model_, grads_, touched);
    }
    // Adam changed exactly the touched rows: the next batch's cull
    // refreshes only their lanes.
    cull_dirty_ = touched;
    stats.adam_updated = touched.size();
    observeDensify(grads_);
    return stats;
}

std::unique_ptr<Trainer>
makeTrainer(SystemKind system, GaussianModel model,
            std::vector<Camera> cameras, std::vector<Image> ground_truth,
            TrainConfig config)
{
    switch (system) {
      case SystemKind::Baseline:
      case SystemKind::EnhancedBaseline:
        return std::make_unique<GpuOnlyTrainer>(
            std::move(model), std::move(cameras), std::move(ground_truth),
            config);
      case SystemKind::NaiveOffload:
        return std::make_unique<NaiveOffloadTrainer>(
            std::move(model), std::move(cameras), std::move(ground_truth),
            config);
      case SystemKind::Clm:
        return std::make_unique<ClmTrainer>(
            std::move(model), std::move(cameras), std::move(ground_truth),
            config);
    }
    CLM_PANIC("unreachable system kind");
}

} // namespace clm
