/**
 * @file
 * Functional naive offloading (§2.2, Figure 3), expressed as the
 * degenerate policy over the shared offload core (OffloadTrainer and
 * its TransferEngine): caching disabled,
 * the whole model staged as a single microbatch ("load ALL
 * parameters"), per-view rendering with gradient accumulation into the
 * staging rows, one bulk RMW scatter ("store ALL gradients"), then CPU
 * Adam over the touched set. The math is identical to GPU-only training;
 * only the (fully accounted) data movement differs.
 */

#ifndef CLM_TRAIN_NAIVE_OFFLOAD_TRAINER_HPP
#define CLM_TRAIN_NAIVE_OFFLOAD_TRAINER_HPP

#include "train/offload_trainer.hpp"

namespace clm {

/** See file comment. */
class NaiveOffloadTrainer : public OffloadTrainer
{
  public:
    using OffloadTrainer::OffloadTrainer;

    /** The exposed bulk transfers show up in stageTimings() as staging
     *  stalls — the Figure 13/15 contrast to CLM. */
    BatchStats trainBatch(const std::vector<int> &view_ids) override;
};

} // namespace clm

#endif // CLM_TRAIN_NAIVE_OFFLOAD_TRAINER_HPP
