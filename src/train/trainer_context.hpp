/**
 * @file
 * Shared per-trainer offload state that ClmTrainer and NaiveOffloadTrainer
 * previously duplicated: the GPU-resident critical store (position,
 * log-scale, rotation; §4.1), the compact microbatch buffer each view
 * renders from (§5.2), batch workload construction (pre-rendering
 * frustum culling of the whole batch in one fused sweep, §5.1), planner
 * invocation, and the finalization pass (CPU Adam straight from the
 * pinned gradient records plus parameter write-back, §4.2.2/§5.4).
 */

#ifndef CLM_TRAIN_TRAINER_CONTEXT_HPP
#define CLM_TRAIN_TRAINER_CONTEXT_HPP

#include <vector>

#include "gaussian/adam.hpp"
#include "gaussian/densify.hpp"
#include "gaussian/model.hpp"
#include "offload/planner.hpp"
#include "offload/transfer_engine.hpp"
#include "render/batch.hpp"
#include "render/camera.hpp"

namespace clm {

/** See file comment. Holds references to the owning trainer's master
 *  model and optimizer; owns every derived offload-side structure.
 *  (Render scratch is NOT here: every offload-trainer render is a
 *  batch of one through Trainer::renderAndBackprop, into the one
 *  RenderArena the Trainer base owns.) */
class TrainerContext
{
  public:
    TrainerContext(GaussianModel &model, CpuAdam &adam,
                   Densifier &densifier);

    /** (Re)build the critical store for the master model's current
     *  topology (construction, densification). */
    void rebuild();

    /**
     * Pre-rendering frustum culling (§5.1) of every view in @p view_ids
     * from the critical store, in one fused frustumCullBatch sweep:
     * element k is exactly frustumCull(model, cameras[view_ids[k]]).
     * Call only while no finalization is in flight (between batches).
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
     * One compact microbatch step (§5.2). Row r of the reused compact
     * model is the r-th Gaussian of @p set (ascending, every entry bound
     * in @p buf): critical attributes from the critical store,
     * non-critical ones from its bound row of @p buf. Then
     * `render(compact, {0..k-1}, compact_grads)` runs forward + backward
     * (compact_grads arrives zeroed) and compact gradient row r is added
     * into @p buf's gradient row of set[r]. A render depends only on
     * subset position, so this is bitwise identical to rendering the
     * full model over @p set, while touching k contiguous rows instead
     * of k rows scattered over the whole model.
     *
     * @return What @p render returns (the view loss).
     */
    template <typename RenderFn>
    double
    trainMicrobatch(DeviceBuffer &buf, const std::vector<uint32_t> &set,
                    RenderFn &&render)
    {
        gatherCompact(buf, set);
        const GaussianModel &compact = compact_;
        double loss = render(compact, compact_subset_, compact_grads_);
        addCompactGrads(buf);
        return loss;
    }

    /**
     * Finalize @p fin (§4.2.2, §5.4) in one pass per row, straight from
     * its pinned gradient record in @p pool: feed the densification
     * statistics when @p observe_densify, run CPU Adam on the master
     * model, write the updated non-critical parameters into the pool
     * record, zero the gradient record, and push the updated critical
     * attributes to the critical store. Rows are independent; with
     * @p parallel large sets spread over the global thread pool (the
     * dedicated Adam thread passes false so it never competes with the
     * render pool).
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
    /** Fill the compact model, subset and row map for @p set. */
    void gatherCompact(const DeviceBuffer &buf,
                       const std::vector<uint32_t> &set);

    /** Add compact gradient row r into @p buf's row compact_rows_[r]. */
    void addCompactGrads(DeviceBuffer &buf);

    GaussianModel &model_;      //!< Master copy (CPU, Adam-updated).
    CpuAdam &adam_;
    Densifier &densifier_;
    /** The "GPU" critical store: its critical fields are always valid
     *  (culling reads them); its non-critical arrays are never read. */
    GaussianModel scratch_;
    /** Fused cull stage, rebuilt every batch (the model changes every
     *  batch, so it is never cached across batches). */
    BatchCullScratch cull_;
    /** The current microbatch, compacted: render input, its subset
     *  {0..k-1}, its backprop target, and the buffer row of each row. */
    GaussianModel compact_;
    std::vector<uint32_t> compact_subset_;
    GaussianGrads compact_grads_;
    std::vector<size_t> compact_rows_;
    BatchPlanResult last_plan_;
};

} // namespace clm

#endif // CLM_TRAIN_TRAINER_CONTEXT_HPP
