/**
 * @file
 * Functional training drivers. All three trainers (GPU-only, naive
 * offload, CLM) implement the same minibatch-SGD-with-gradient-
 * accumulation algorithm over the shared differentiable rasterizer, so
 * their parameter trajectories are equivalent — the paper's offloading
 * techniques change *where* state lives and *when* updates run, never the
 * math. Both offloaded trainers are thin policies over one offload
 * core (OffloadTrainer, train/offload_trainer.hpp, which owns the
 * TransferEngine): CLM enables caching, overlapped microbatches and
 * finalization-driven subset Adam; naive offloading stages the whole
 * model synchronously each batch.
 */

#ifndef CLM_TRAIN_TRAINER_HPP
#define CLM_TRAIN_TRAINER_HPP

#include <memory>
#include <vector>

#include "gaussian/adam.hpp"
#include "gaussian/densify.hpp"
#include "gaussian/model.hpp"
#include "math/rng.hpp"
#include "offload/planner.hpp"
#include "render/arena.hpp"
#include "render/camera.hpp"
#include "render/loss.hpp"
#include "render/rasterizer.hpp"

namespace clm {

class SnapshotSlot;

/** Shared trainer settings. */
struct TrainConfig
{
    int batch_size = 4;
    RenderConfig render;
    LossConfig loss;
    AdamConfig adam;
    /** CLM's §4.2 planning knobs: ordering, caching, TSP budget and
     *  seed (scheduleBatch). Its system and overlap_adam shape only the
     *  simulator's DAG. */
    PlannerConfig planner;
    /** Every this many batches the active SH degree increases by one,
     *  up to render.sh_degree (reference 3DGS ramps every 1000 iters);
     *  0 disables the ramp. */
    int sh_degree_interval = 0;
    /** Run CLM's CPU Adam on a real dedicated thread (§5.4), overlapped
     *  with subsequent microbatches. Safe by the finalization property:
     *  a finalized Gaussian is never touched again within the batch, so
     *  the Adam thread and the render path access disjoint rows. */
    bool async_adam = false;
    /** CLM's copy/compute overlap switch (§5.3). On, up to one
     *  microbatch per global pool thread (at most the batch size)
     *  renders at once, each serially on its own thread, while the
     *  calling thread stages later microbatches and commits finished
     *  ones in plan order. Off, one microbatch at a time with staging
     *  on the critical path: the synchronous reference. Results are
     *  bit-identical either way; the naive trainer has no overlap. */
    bool prefetch = true;
    uint64_t seed = 42;
};

/** Per-batch outcome and accounting. */
struct BatchStats
{
    double loss = 0.0;              //!< Mean loss over the batch's views.
    double h2d_bytes = 0.0;         //!< CPU->GPU traffic this batch.
    double d2h_bytes = 0.0;         //!< GPU->CPU traffic this batch.
    size_t gaussians_rendered = 0;  //!< Sum of |S_i| over the batch.
    size_t adam_updated = 0;        //!< Gaussians whose Adam step ran.
    size_t cache_hits = 0;          //!< PCIe loads avoided (CLM).
};

/** Abstract training system over a fixed set of posed views. */
class Trainer
{
  public:
    /**
     * @param model Initial scene representation (copied).
     * @param cameras Training views.
     * @param ground_truth One image per camera.
     */
    Trainer(GaussianModel model, std::vector<Camera> cameras,
            std::vector<Image> ground_truth, TrainConfig config);

    virtual ~Trainer() = default;

    /** Run one batch over the given view indices. */
    virtual BatchStats trainBatch(const std::vector<int> &view_ids) = 0;

    /** Run @p steps batches of randomly sampled views. */
    std::vector<BatchStats> trainSteps(int steps);

    /** Mean PSNR of the current model over all training views,
     *  rendered in fused groups from a cull stage local to the call
     *  (cullViewGroups, render/batch.hpp). */
    double evaluatePsnr() const;

    /** Current model (the trainer's source of truth; the CPU-resident
     *  master copy for the offload trainers). */
    const GaussianModel &model() const { return model_; }

    /** @name Adaptive density control (§2.1)
     * Enable observation, then call densifyNow() periodically; it
     * rebuilds the cull stage, and trainers rebuild their internal
     * (offloaded) state after topology changes.
     */
    /// @{
    void enableDensification(DensifyConfig config = {});
    bool densificationEnabled() const { return densify_enabled_; }
    virtual DensifyStats densifyNow();
    /// @}

    const TrainConfig &config() const { return config_; }
    size_t viewCount() const { return cameras_.size(); }
    const Camera &camera(size_t i) const { return cameras_[i]; }
    const Image &groundTruth(size_t i) const { return ground_truth_[i]; }

    /** SH degree active for the next batch (ramp-up, standard 3DGS
     *  practice when sh_degree_interval > 0). */
    int activeShDegree() const;

    /** Number of completed training batches. */
    int batchesDone() const { return batches_done_; }

    /** @name Train-time model snapshots (serving hand-off)
     * With a sink installed, the trainer publishes an immutable copy of
     * the model into it at every step boundary — once immediately, then
     * after every trainSteps() batch and after densifyNow() — so a
     * RenderService can serve the live model concurrently without ever
     * observing torn parameters. @p slot must outlive the trainer
     * (nullptr detaches).
     */
    /// @{
    void setSnapshotSink(SnapshotSlot *slot);

    /** Publish the current model now (no-op without a sink). */
    void publishSnapshot();
    /// @}

  protected:
    /** Called by trainers at the start of every batch. */
    void noteBatchStart() { ++batches_done_; }

    /** Render settings with the ramped SH degree applied. */
    RenderConfig activeRenderConfig() const;

    /** Called by trainers after a batch to feed densify statistics. */
    void observeDensify(const GaussianGrads &grads);

    /** Rebuild trainer-local buffers after the model was restructured. */
    virtual void onModelResized() {}

    /**
     * Pre-rendering frustum culling (§5.1) of every view in @p view_ids
     * from the master model, in one frustumCullBatch sweep of
     * arena_.cull: element k is exactly frustumCull(model_,
     * cameras_[view_ids[k]]). First refreshes the stage's lanes of the
     * rows in cull_dirty_ instead of rebuilding it. Call only while
     * nothing writes model_ (between batches).
     */
    std::vector<std::vector<uint32_t>>
    cullBatch(const std::vector<int> &view_ids, bool parallel);

    GaussianModel model_;
    std::vector<Camera> cameras_;
    std::vector<Image> ground_truth_;
    TrainConfig config_;
    CpuAdam adam_;
    Rng rng_;
    Densifier densifier_;
    bool densify_enabled_ = false;
    int batches_done_ = 0;
    SnapshotSlot *snapshot_sink_ = nullptr;    //!< Non-owning.

    /** Rows whose critical attributes changed since the last
     *  cullBatch() (duplicate-free: each batch's Adam rows are, and the
     *  list is cleared at every cull). One writer at a time: the
     *  GPU-only trainer after its Adam step, or an offload trainer's
     *  finalization, whose calls never overlap. */
    std::vector<uint32_t> cull_dirty_;

    /** Render scratch of the GPU-only trainer's fused batches
     *  (offload trainers render microbatches in their
     *  MicrobatchSlots), plus every trainer's cull stage (arena_.cull),
     *  built at construction and densification. */
    RenderArena arena_;
};

/**
 * GPU-only training (the paper's "baseline" and "enhanced baseline" —
 * functionally identical; the enhanced flag only changes the modeled
 * kernel input size, which the performance simulator accounts for).
 * Every batch, a batch of one included, runs one frustumCullBatch and
 * the fused forward/backward pair (render/batch.hpp) with retained
 * staging; the Adam subset is the union of the views' subsets, which
 * it marks dirty for the next batch's cull.
 */
class GpuOnlyTrainer : public Trainer
{
  public:
    GpuOnlyTrainer(GaussianModel model, std::vector<Camera> cameras,
                   std::vector<Image> ground_truth, TrainConfig config);

    BatchStats trainBatch(const std::vector<int> &view_ids) override;

  protected:
    void onModelResized() override;

    GaussianGrads grads_;

    /** Per-view loss gradients, reused across steps. */
    std::vector<Image> d_images_;

    /** SAT-loss scratch reused across views and steps. */
    LossScratch loss_scratch_;
};

/** Factory helpers for the quality harness and examples. */
std::unique_ptr<Trainer> makeTrainer(SystemKind system, GaussianModel model,
                                     std::vector<Camera> cameras,
                                     std::vector<Image> ground_truth,
                                     TrainConfig config);

} // namespace clm

#endif // CLM_TRAIN_TRAINER_HPP
