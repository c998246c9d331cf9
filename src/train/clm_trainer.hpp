/**
 * @file
 * The functional CLM trainer: a batch policy over the shared offload
 * core (OffloadTrainer: the TransferEngine, its finalization pass and
 * the compact microbatch gather from the master model's critical rows
 * and the staged non-critical rows). Each batch it culls (§5.1), runs
 * the §4.2 analysis (scheduleBatch: ordering, caching, finalization),
 * then renders up to W microbatches at once: each is a global-pool task
 * that gathers its compact model and renders it serially (forward,
 * loss, backward) in its own MicrobatchSlot, while the calling thread
 * stages later microbatches and commits finished ones strictly in plan
 * order. With prefetch on, W = min(pool threads, batch size); off,
 * W = 1. Where the paper overlaps transfers with ONE compute stream,
 * this CPU port also runs W streams (one view each), because a single
 * ~1k-Gaussian view cannot keep the whole pool busy; the in-order commit
 * keeps every float sum in its sequential association, so trajectories
 * are bitwise equal to W = 1 and equivalent to GPU-only training
 * (verified by the integration tests).
 */

#ifndef CLM_TRAIN_CLM_TRAINER_HPP
#define CLM_TRAIN_CLM_TRAINER_HPP

#include <vector>

#include "train/offload_trainer.hpp"

namespace clm {

/** See file comment. */
class ClmTrainer : public OffloadTrainer
{
  public:
    using OffloadTrainer::OffloadTrainer;

    BatchStats trainBatch(const std::vector<int> &view_ids) override;

    /** The schedule of the most recent batch (for inspection). */
    const BatchSchedule &lastPlan() const { return plan_; }

  private:
    BatchSchedule plan_;
};

} // namespace clm

#endif // CLM_TRAIN_CLM_TRAINER_HPP
