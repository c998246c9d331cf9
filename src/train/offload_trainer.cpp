#include "train/offload_trainer.hpp"

#include <cstring>
#include <numeric>

#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

void
gatherCompact(const GaussianModel &master, MicrobatchSlot &slot,
              const DeviceBuffer &buf, const std::vector<uint32_t> &set)
{
    const size_t k = set.size();
    slot.compact.resize(k);
    slot.grads.resize(k);    // zeroed: the backward accumulates
    slot.subset.resize(k);
    std::iota(slot.subset.begin(), slot.subset.end(), 0u);
    slot.rows.resize(k);
    // Both lists are ascending: a merge walk finds each buffer row.
    const std::vector<uint32_t> &bound = buf.indices();
    size_t row = 0;
    for (size_t r = 0; r < k; ++r) {
        const uint32_t g = set[r];
        while (row < bound.size() && bound[row] < g)
            ++row;
        CLM_ASSERT(row < bound.size() && bound[row] == g,
                   "microbatch Gaussian ", g, " not bound in buffer");
        slot.rows[r] = row;
        slot.compact.position(r) = master.position(g);
        slot.compact.logScale(r) = master.logScale(g);
        slot.compact.rotation(r) = master.rotation(g);
        slot.compact.unpackNonCritical(r, buf.paramRow(row));
    }
}

void
addCompactGrads(const MicrobatchSlot &slot, DeviceBuffer &buf)
{
    float rec[kParamsPerGaussian];
    for (size_t r = 0; r < slot.rows.size(); ++r) {
        packGradRecord(slot.grads, r, rec);
        float *row = buf.gradRow(slot.rows[r]);
        for (int k = 0; k < kParamsPerGaussian; ++k)
            row[k] += rec[k];
    }
}

size_t
finalizeRows(GaussianModel &master, CpuAdam &adam, PinnedPool &pool,
             const std::vector<uint32_t> &fin, Densifier *densifier,
             bool parallel)
{
    // Gradients for the finalized set are complete in pinned memory
    // (§4.2.2): update each master row straight from its record (§5.4)
    // and reset the record for the next batch. The new attributes are
    // in place in the master rows the next cull and loads read (§4.1).
    auto finalize_rows = [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
            const uint32_t g = fin[k];
            float *grad = pool.gradRecord(g);
            if (densifier != nullptr)
                densifier->observeNorm(
                    g, Vec3{grad[0], grad[1], grad[2]}.norm());
            adam.updateRecord(master, g, grad);
            std::memset(grad, 0, kParamsPerGaussian * sizeof(float));
        }
    };
    if (parallel && adam.config().parallel && fin.size() > kParallelAdamRows)
        ThreadPool::global().parallelFor(fin.size(), finalize_rows);
    else
        finalize_rows(0, fin.size());
    return fin.size();
}

OffloadTrainer::OffloadTrainer(GaussianModel model,
                               std::vector<Camera> cameras,
                               std::vector<Image> ground_truth,
                               TrainConfig config)
    : Trainer(std::move(model), std::move(cameras),
              std::move(ground_truth), config),
      engine_(model_, config_.async_adam)
{
    // The engine makes finalize calls from one thread at a time, so the
    // cull dirty list has one writer; the finalized rows' critical
    // attributes changed, so the next cull refreshes their lanes.
    engine_.setFinalizeFn([this](const std::vector<uint32_t> &fin) {
        const size_t n = finalizeRows(
            model_, adam_, engine_.pool(), fin,
            densify_enabled_ ? &densifier_ : nullptr, !config_.async_adam);
        cull_dirty_.insert(cull_dirty_.end(), fin.begin(), fin.end());
        return n;
    });
}

DensifyStats
OffloadTrainer::densifyNow()
{
    // The finalization thread writes the model; quiesce it before
    // restructuring (the real system synchronizes the stream and the
    // Adam thread before densification for the same reason).
    engine_.drain();
    return Trainer::densifyNow();
}

double
OffloadTrainer::renderAndBackprop(MicrobatchSlot &slot, int v,
                                  const RenderConfig &render,
                                  const LossConfig &loss) const
{
    const Camera &cam = cameras_[v];
    // StageClock: per-step spans (train.forward / train.loss /
    // train.backward) with zero cost when tracing is off.
    StageClock stage_clock;
    const RenderOutput &out = renderForward(slot.compact, cam, slot.subset,
                                            render, slot.arena);
    stage_clock.lap("train.forward");
    LossResult result = computeLoss(out.image, ground_truth_[v],
                                    &slot.d_image, loss, slot.loss_scratch);
    stage_clock.lap("train.loss");
    renderBackward(slot.compact, cam, render, slot.d_image, slot.grads,
                   slot.arena);
    stage_clock.lap("train.backward");
    return result.total;
}

} // namespace clm
