/**
 * @file
 * Functional naive offloading (§2.2, Figure 3), expressed as the
 * degenerate policy over the shared TransferEngine: caching disabled,
 * the whole model staged as a single microbatch ("load ALL
 * parameters"), per-view rendering with gradient accumulation into the
 * staging rows, one bulk RMW scatter ("store ALL gradients"), then CPU
 * Adam over the touched set. The math is identical to GPU-only training;
 * only the (fully accounted) data movement differs.
 */

#ifndef CLM_TRAIN_NAIVE_OFFLOAD_TRAINER_HPP
#define CLM_TRAIN_NAIVE_OFFLOAD_TRAINER_HPP

#include "offload/transfer_engine.hpp"
#include "train/trainer.hpp"
#include "train/trainer_context.hpp"

namespace clm {

/** See file comment. */
class NaiveOffloadTrainer : public Trainer
{
  public:
    NaiveOffloadTrainer(GaussianModel model, std::vector<Camera> cameras,
                        std::vector<Image> ground_truth,
                        TrainConfig config);

    BatchStats trainBatch(const std::vector<int> &view_ids) override;

    /** The CPU-resident master copy is the source of truth. */
    const GaussianModel &model() const override { return model_; }

    /** Measured per-stage wall times (the exposed bulk transfers show up
     *  as staging stalls — the Figure 13/15 contrast to CLM). */
    const StageTimings &stageTimings() const { return engine_.timings(); }

    /** Drains the engine before the model is restructured. */
    DensifyStats densifyNow() override;

  protected:
    void onModelResized() override;

  private:
    TrainerContext ctx_;
    TransferEngine engine_;
    MicrobatchSlot slot_;    //!< The view being trained.
};

} // namespace clm

#endif // CLM_TRAIN_NAIVE_OFFLOAD_TRAINER_HPP
