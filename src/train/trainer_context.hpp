/**
 * @file
 * Shared per-trainer offload state that ClmTrainer and NaiveOffloadTrainer
 * previously duplicated: the GPU-resident critical store (position,
 * log-scale, rotation; §4.1), the compact microbatch gather each view
 * renders from (§5.2) into a caller-owned MicrobatchSlot, batch workload
 * construction (pre-rendering frustum culling of the whole batch in one
 * fused sweep, §5.1), planner invocation, and the finalization pass (CPU
 * Adam straight from the pinned gradient records plus parameter
 * write-back, §4.2.2/§5.4).
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
#include "render/batch.hpp"
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
 *  model and optimizer; owns every derived offload-side structure. */
class TrainerContext
{
  public:
    TrainerContext(GaussianModel &model, CpuAdam &adam,
                   Densifier &densifier);

    /** (Re)build the critical store and its full cull stage for the
     *  master model's current topology (construction, densification). */
    void rebuild();

    /**
     * Pre-rendering frustum culling (§5.1) of every view in @p view_ids
     * from the critical store, in one fused frustumCullBatch sweep:
     * element k is exactly frustumCull(model, cameras[view_ids[k]]).
     * First refreshes the cull stage's lanes of the rows finalized
     * since the last cull — the previous batch's touched union, which
     * its sets F_1..F_b partition — instead of rebuilding it. Call only
     * while no finalization is in flight (between batches).
     */
    std::vector<std::vector<uint32_t>>
    cullViews(const std::vector<Camera> &cameras,
              const std::vector<int> &view_ids, bool parallel);

    /** Build the planner workload for a batch of views (cullViews()
     *  plus the camera centers the ordering reads). */
    BatchWorkload buildWorkload(const std::vector<Camera> &cameras,
                                const std::vector<int> &view_ids,
                                bool parallel);

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
     * critical attributes of set[r] from the critical store and the
     * non-critical ones from its bound row of @p buf; the gradients are
     * zeroed. Rendering the compact model over slot.subset is bitwise
     * identical to rendering the full model over @p set (a render
     * depends only on subset position), while touching k contiguous
     * rows instead of k rows scattered over the whole model. Reads only
     * the critical store rows of @p set, so concurrent calls for
     * different slots are safe beside finalization of rows in no
     * in-flight set.
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
     * record, zero the gradient record, and push the updated critical
     * attributes to the critical store. Rows are independent; with
     * @p parallel large sets spread over the global thread pool (the
     * dedicated Adam thread passes false so it never competes with the
     * render pool). Calls must not overlap (the engine makes them from
     * one thread); the rows are recorded for the next cullViews().
     *
     * @return Number of Gaussians updated.
     */
    size_t finalize(PinnedPool &pool, const std::vector<uint32_t> &fin,
                    bool observe_densify, bool parallel);

    /** Failure injection (tests only): overwrite every non-critical
     *  attribute of the critical store with NaN; see
     *  ClmTrainer::debugPoisonScratchNonCritical(). */
    void debugPoisonScratchNonCritical();

  private:
    GaussianModel &model_;      //!< Master copy (CPU, Adam-updated).
    CpuAdam &adam_;
    Densifier &densifier_;
    /** The "GPU" critical store: its critical fields are always valid
     *  (culling reads them); its non-critical arrays are never read. */
    GaussianModel scratch_;
    /** Cull stage of scratch_: built by rebuild(), refreshed per batch
     *  with dirty_. */
    BatchCullScratch cull_;
    /** Rows finalize() updated since the last cull (duplicate-free:
     *  one batch's finalization sets partition its touched union). */
    std::vector<uint32_t> dirty_;
    BatchPlanResult last_plan_;
};

} // namespace clm

#endif // CLM_TRAIN_TRAINER_CONTEXT_HPP
