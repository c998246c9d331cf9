/**
 * @file
 * The core both offload trainers share (§4-§5). The master model is the
 * one host copy of every attribute. Its critical attributes (position,
 * log-scale, rotation; §4.1) are the "GPU-resident" set: the cull and
 * the compact gather read them in place. Its non-critical rows are what
 * the TransferEngine stages. Gathers and staging read only rows of
 * in-flight sets, and finalization writes only rows that no later set
 * of the batch holds (§4.2.2), so the dedicated Adam thread never writes
 * a row they read.
 *
 * OffloadTrainer owns the engine, its finalize callback, the
 * microbatch slots and the drain before densification; ClmTrainer and
 * NaiveOffloadTrainer each add only their batch policy (trainBatch).
 */

#ifndef CLM_TRAIN_OFFLOAD_TRAINER_HPP
#define CLM_TRAIN_OFFLOAD_TRAINER_HPP

#include <deque>
#include <vector>

#include "offload/transfer_engine.hpp"
#include "train/trainer.hpp"

namespace clm {

/**
 * Everything one in-flight microbatch writes (§5.2): the compact model
 * it renders (row r = the r-th Gaussian of its set), the subset
 * {0..k-1}, the gradients its backward accumulates into, the buffer row
 * of each compact row, and its own render, loss and loss-gradient
 * scratch. Slots share nothing writable, so W of them can train at once
 * on different threads; every buffer is reused across microbatches.
 */
struct MicrobatchSlot
{
    GaussianModel compact;
    std::vector<uint32_t> subset;
    GaussianGrads grads;
    std::vector<size_t> rows;
    RenderArena arena;
    LossScratch loss_scratch;
    Image d_image;
};

/**
 * Fill @p slot with the compact microbatch of @p set (§5.2, every entry
 * bound in @p buf, ascending): compact row r takes the critical
 * attributes of set[r] from @p master and the non-critical ones from its
 * bound row of @p buf; the gradients are zeroed. Rendering the compact
 * model over slot.subset is bitwise identical to rendering the full
 * model over @p set (a render depends only on subset position), while
 * touching k contiguous rows instead of k rows scattered over the whole
 * model. Reads only @p master's critical attributes of @p set's rows, so
 * concurrent calls for different slots are safe beside finalization of
 * rows in no in-flight set.
 */
void gatherCompact(const GaussianModel &master, MicrobatchSlot &slot,
                   const DeviceBuffer &buf,
                   const std::vector<uint32_t> &set);

/** Add compact gradient row r of @p slot into @p buf's gradient row
 *  slot.rows[r] (after any carried gradients: (0 + carry) + own). */
void addCompactGrads(const MicrobatchSlot &slot, DeviceBuffer &buf);

/**
 * Finalize @p fin (§4.2.2, §5.4) in one pass per row, straight from its
 * pinned gradient record in @p pool: feed @p densifier's statistics
 * (when non-null), run @p adam on @p master in place (later stagings
 * read the updated rows from it), and zero the gradient record. Rows
 * are independent; with @p parallel large sets spread over the global
 * thread pool (the dedicated Adam thread passes false so it never
 * competes with the render pool).
 *
 * @return Number of Gaussians updated.
 */
size_t finalizeRows(GaussianModel &master, CpuAdam &adam, PinnedPool &pool,
                    const std::vector<uint32_t> &fin, Densifier *densifier,
                    bool parallel);

/** See file comment. */
class OffloadTrainer : public Trainer
{
  public:
    OffloadTrainer(GaussianModel model, std::vector<Camera> cameras,
                   std::vector<Image> ground_truth, TrainConfig config);

    /** Measured per-stage wall times from the TransferEngine (feeds the
     *  Figure 13/15 benches through sim/metrics). */
    const StageTimings &stageTimings() const { return engine_.timings(); }

    /** Pinned host memory in use: n·gradStride() + the signal slots.
     *  Parameters stay in the master model, so this is less than the
     *  GPU system's PinnedLayout::totalBytes (Table 6). */
    size_t pinnedBytes() const { return engine_.pinnedBytes(); }

    /** Peak rows ever bound in one device buffer (memory accounting). */
    size_t peakBufferRows() const { return engine_.peakBufferRows(); }

    /** Densification with offload-state rebuild: drains the Adam
     *  thread (whose finalization writes the model), restructures the
     *  model, then rebuilds the cull stage, pinned gradient pool and
     *  buffer ring. */
    DensifyStats densifyNow() override;

  protected:
    void onModelResized() override { engine_.reset(); }

    /** Render view @p v from @p slot's compact model (over its subset)
     *  as a batch of one, compute the loss gradient and backpropagate
     *  into its gradients, all in the slot's own scratch. Reads no
     *  mutable trainer state, so slots may run concurrently.
     *  @return the loss. */
    double renderAndBackprop(MicrobatchSlot &slot, int v,
                             const RenderConfig &render,
                             const LossConfig &loss) const;

    TransferEngine engine_;

    /** One per microbatch in flight, grown to the largest W between
     *  batches (a deque: growing keeps the slots in place). */
    std::deque<MicrobatchSlot> slots_;
};

} // namespace clm

#endif // CLM_TRAIN_OFFLOAD_TRAINER_HPP
