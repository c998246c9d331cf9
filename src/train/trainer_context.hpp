/**
 * @file
 * Shared per-trainer offload state that ClmTrainer and NaiveOffloadTrainer
 * previously duplicated: the compact microbatch gather each view renders
 * from (§5.2) into a caller-owned MicrobatchSlot, batch workload
 * construction around the trainer's pre-rendering cull (§5.1), planner
 * invocation, and the finalization pass (CPU Adam straight from the
 * pinned gradient records plus parameter write-back, §4.2.2/§5.4).
 *
 * The master model's critical attributes (position, log-scale,
 * rotation; §4.1) are the "GPU-resident" set: the cull and the gather
 * read them in place, so there is no second copy to keep in step.
 * Gathers read only rows of in-flight sets, and finalization writes
 * only rows that no later set of the batch holds (§4.2.2), so the
 * dedicated Adam thread never writes a row a gather reads.
 */

#ifndef CLM_TRAIN_TRAINER_CONTEXT_HPP
#define CLM_TRAIN_TRAINER_CONTEXT_HPP

#include <vector>

#include "gaussian/adam.hpp"
#include "gaussian/densify.hpp"
#include "gaussian/model.hpp"
#include "offload/planner.hpp"
#include "offload/transfer_engine.hpp"
#include "render/arena.hpp"
#include "render/camera.hpp"
#include "render/loss.hpp"

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

/** See file comment. Holds references to the owning trainer's master
 *  model, optimizer and cull dirty list; owns every derived
 *  offload-side structure. */
class TrainerContext
{
  public:
    TrainerContext(GaussianModel &model, CpuAdam &adam,
                   Densifier &densifier, std::vector<uint32_t> &cull_dirty);

    /** Build the planner workload for a batch of views from their culled
     *  @p sets (element k is view_ids[k]'s) plus the camera centers the
     *  ordering reads. */
    BatchWorkload buildWorkload(std::vector<std::vector<uint32_t>> sets,
                                const std::vector<Camera> &cameras,
                                const std::vector<int> &view_ids) const;

    /** Run the batch planner and stash the result. */
    const BatchPlanResult &planViews(const PlannerConfig &config,
                                     const BatchWorkload &workload);

    /** The planner result of the most recent batch (for inspection). */
    const BatchPlanResult &lastPlan() const { return last_plan_; }

    /** The workload's per-view sets reordered into processing order. */
    std::vector<std::vector<uint32_t>>
    orderedSets(const BatchWorkload &workload) const;

    /**
     * Fill @p slot with the compact microbatch of @p set (§5.2, every
     * entry bound in @p buf, ascending): compact row r takes the
     * critical attributes of set[r] from the master model and the
     * non-critical ones from its bound row of @p buf; the gradients are
     * zeroed. Rendering the compact model over slot.subset is bitwise
     * identical to rendering the full model over @p set (a render
     * depends only on subset position), while touching k contiguous
     * rows instead of k rows scattered over the whole model. Reads only
     * the master model's critical attributes of @p set's rows, so
     * concurrent calls for different slots are safe beside finalization
     * of rows in no in-flight set.
     */
    void gatherCompact(MicrobatchSlot &slot, const DeviceBuffer &buf,
                       const std::vector<uint32_t> &set) const;

    /** Add compact gradient row r of @p slot into @p buf's gradient row
     *  slot.rows[r] (after any carried gradients: (0 + carry) + own). */
    static void addCompactGrads(const MicrobatchSlot &slot,
                                DeviceBuffer &buf);

    /**
     * Finalize @p fin (§4.2.2, §5.4) in one pass per row, straight from
     * its pinned gradient record in @p pool: feed the densification
     * statistics when @p observe_densify, run CPU Adam on the master
     * model, write the updated non-critical parameters into the pool
     * record, and zero the gradient record. Rows are independent; with
     * @p parallel large sets spread over the global thread pool (the
     * dedicated Adam thread passes false so it never competes with the
     * render pool). Calls must not overlap (the engine makes them from
     * one thread); the rows are marked in the cull dirty list, since
     * their critical attributes changed.
     *
     * @return Number of Gaussians updated.
     */
    size_t finalize(PinnedPool &pool, const std::vector<uint32_t> &fin,
                    bool observe_densify, bool parallel);

  private:
    GaussianModel &model_;      //!< Master copy (CPU, Adam-updated).
    CpuAdam &adam_;
    Densifier &densifier_;
    std::vector<uint32_t> &cull_dirty_;    //!< Trainer::cull_dirty_.
    BatchPlanResult last_plan_;
};

} // namespace clm

#endif // CLM_TRAIN_TRAINER_CONTEXT_HPP
