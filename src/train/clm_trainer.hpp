/**
 * @file
 * The functional CLM trainer, now a thin policy over the shared offload
 * subsystem: TrainerContext holds the attribute-split state (compact
 * microbatch gather from the master model's critical rows and the
 * staged non-critical rows, finalization pass) and
 * TransferEngine owns the whole data path (pinned pool, a ring of W+1
 * staging buffers, RMW gradient scatter, dedicated finalization
 * thread). The trainer itself culls and plans (§4.2), then renders up
 * to W microbatches at once: each is a global-pool task that gathers
 * its compact model and renders it serially (forward, loss, backward)
 * in its own MicrobatchSlot, while the calling thread stages later
 * microbatches and commits finished ones strictly in plan order. With
 * prefetch on, W = min(pool threads, batch size); off, W = 1. Where the
 * paper overlaps transfers with ONE compute stream, this CPU port also
 * runs W streams (one view each), because a single ~1k-Gaussian view
 * cannot keep the whole pool busy; the in-order commit keeps every
 * float sum in its sequential association, so trajectories are
 * bitwise equal to W = 1 and equivalent to GPU-only training (verified
 * by the integration tests).
 */

#ifndef CLM_TRAIN_CLM_TRAINER_HPP
#define CLM_TRAIN_CLM_TRAINER_HPP

#include <memory>
#include <vector>

#include "offload/transfer_engine.hpp"
#include "train/trainer.hpp"
#include "train/trainer_context.hpp"

namespace clm {

/** See file comment. */
class ClmTrainer : public Trainer
{
  public:
    ClmTrainer(GaussianModel model, std::vector<Camera> cameras,
               std::vector<Image> ground_truth, TrainConfig config);

    BatchStats trainBatch(const std::vector<int> &view_ids) override;

    /** The CPU-resident master copy (updated by CPU Adam). */
    const GaussianModel &model() const override { return model_; }

    /** Pinned host memory in use (the Table 6 quantity). */
    size_t pinnedBytes() const { return engine_.pinnedBytes(); }

    /** Peak rows ever bound in one device buffer (memory accounting). */
    size_t peakBufferRows() const { return engine_.peakBufferRows(); }

    /** The planner result of the most recent batch (for inspection). */
    const BatchPlanResult &lastPlan() const { return ctx_.lastPlan(); }

    /** Measured per-stage wall times from the TransferEngine (feeds the
     *  Figure 13/15 benches through sim/metrics). */
    const StageTimings &stageTimings() const { return engine_.timings(); }

    /** Densification with offload-state rebuild: drains the Adam
     *  thread, restructures the model, then rebuilds the cull stage,
     *  pinned pool and buffer ring. */
    DensifyStats densifyNow() override;

  protected:
    void onModelResized() override;

  private:
    TrainerContext ctx_;
    TransferEngine engine_;
    /** One per microbatch in flight (grown to the largest W). */
    std::vector<std::unique_ptr<MicrobatchSlot>> slots_;
};

} // namespace clm

#endif // CLM_TRAIN_CLM_TRAINER_HPP
