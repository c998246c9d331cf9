/**
 * @file
 * Shared per-trainer offload state that ClmTrainer and NaiveOffloadTrainer
 * previously duplicated: the scratch render model, whose critical fields
 * (position, log-scale, rotation) are the GPU-resident critical store
 * (§4.1) and whose non-critical rows are materialized from staged device
 * buffers, the gradient staging buffers, batch workload construction
 * (pre-rendering frustum culling of the whole batch in one fused sweep,
 * §5.1), planner invocation, and the finalization step (subset CPU Adam
 * from pinned gradient records plus parameter write-back, §4.2.2/§5.4).
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
 *  (Render scratch is NOT here: every render of the offload trainers
 *  goes through Trainer::renderAndBackprop, so the reusable RenderArena
 *  lives once in the Trainer base.) */
class TrainerContext
{
  public:
    TrainerContext(GaussianModel &model, CpuAdam &adam,
                   Densifier &densifier);

    /** (Re)build the critical store and scratch buffers for the master
     *  model's current topology (construction, densification). */
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

    /** Materialize the staged non-critical parameter rows of @p buf into
     *  the scratch render model. */
    void materialize(const DeviceBuffer &buf);

    /** The render-input model: critical attributes always valid,
     *  non-critical rows valid only after materialize(). */
    GaussianModel &scratch() { return scratch_; }

    /** Per-microbatch backprop target. */
    GaussianGrads &scratchGrads() { return scratch_grads_; }

    /**
     * Finalize @p fin (§4.2.2, §5.4): unpack the completed gradient
     * records from @p pool, feed densification statistics when
     * @p observe_densify, run subset CPU Adam on the master model, write
     * updated non-critical parameters back into the pool records, zero
     * the gradient records, and push updated critical attributes to the
     * critical store + scratch model.
     *
     * @return Number of Gaussians updated.
     */
    size_t finalize(PinnedPool &pool, const std::vector<uint32_t> &fin,
                    bool observe_densify);

    /** Failure injection (tests only): overwrite every non-critical
     *  attribute of the scratch model with NaN; see
     *  ClmTrainer::debugPoisonScratchNonCritical(). */
    void debugPoisonScratchNonCritical();

  private:
    /** Push master's critical attributes for @p indices to the critical
     *  store (the scratch model's critical fields). */
    void writeBackCritical(const std::vector<uint32_t> &indices);

    GaussianModel &model_;      //!< Master copy (CPU, Adam-updated).
    CpuAdam &adam_;
    Densifier &densifier_;
    /** Render inputs: critical fields always valid (the "GPU"
     *  critical store), non-critical rows valid once materialized. */
    GaussianModel scratch_;
    /** Fused cull stage, rebuilt every batch (the model changes every
     *  batch, so it is never cached across batches). */
    BatchCullScratch cull_;
    GaussianGrads scratch_grads_;    //!< Per-microbatch backprop target.
    GaussianGrads cpu_grads_;        //!< Staging for subset Adam.
    BatchPlanResult last_plan_;
};

} // namespace clm

#endif // CLM_TRAIN_TRAINER_CONTEXT_HPP
