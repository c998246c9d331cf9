/**
 * @file
 * The functional CLM trainer, now a thin policy over the shared offload
 * subsystem: TrainerContext holds the attribute-split state (critical
 * store, compact microbatch buffer, finalization pass) and
 * TransferEngine owns the whole data path (pinned pool, double-buffered
 * staging, prefetch overlap, RMW gradient scatter, dedicated
 * finalization thread). The
 * trainer itself only culls, plans (§4.2), renders, and feeds gradient
 * rows — and produces parameter trajectories equivalent to GPU-only
 * training (verified by the integration tests).
 */

#ifndef CLM_TRAIN_CLM_TRAINER_HPP
#define CLM_TRAIN_CLM_TRAINER_HPP

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

    /** Densification with offload-state rebuild: drains the engine's
     *  threads, restructures the model, then rebuilds the critical
     *  store, pinned pool and double buffers. */
    DensifyStats densifyNow() override;

    /**
     * Failure injection (tests only): overwrite every non-critical
     * attribute of the "GPU" critical store with NaN. Training must be
     * unaffected, because the attribute-wise offload guarantees every
     * rendered Gaussian's non-critical attributes are loaded from pinned
     * memory first (§4.1): renders read them only from the microbatch's
     * staged buffer rows — any read of an unloaded attribute poisons the
     * output and fails the test.
     */
    void debugPoisonScratchNonCritical()
    { ctx_.debugPoisonScratchNonCritical(); }

  protected:
    void onModelResized() override;

  private:
    TrainerContext ctx_;
    TransferEngine engine_;
};

} // namespace clm

#endif // CLM_TRAIN_CLM_TRAINER_HPP
