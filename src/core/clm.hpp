/**
 * @file
 * The CLM public facade and umbrella header. Downstream users include
 * this one header, construct a Clm session from a ClmConfig, and call
 * train() / evaluatePsnr() / renderView(); the offloading machinery runs
 * underneath exactly as in §4-§5.
 */

#ifndef CLM_CORE_CLM_HPP
#define CLM_CORE_CLM_HPP

#include <memory>

#include "core/config.hpp"
#include "gaussian/model.hpp"
#include "render/arena.hpp"
#include "render/image.hpp"
#include "scene/camera_path.hpp"
#include "scene/synthetic.hpp"
#include "train/quality_harness.hpp"

namespace clm {

class SnapshotSlot;

/** One training session over a synthetic scene. */
class Clm
{
  public:
    /** Build a session: scene, cameras, ground truth and trainer. */
    explicit Clm(ClmConfig config);

    ~Clm();

    /** Run @p steps training batches; returns per-batch stats. */
    std::vector<BatchStats> train(int steps);

    /** Mean PSNR over all training views. */
    double evaluatePsnr() const;

    /** Render view @p index from the current model. */
    Image renderView(size_t index) const;

    /** Render a *novel* view (not in the training set) — the task of
     *  Figure 1 — from the given camera. */
    Image renderNovelView(const Camera &camera) const;

    /** The current model. */
    const GaussianModel &model() const;

    /** The underlying trainer (system-specific accounting). */
    Trainer &trainer() { return *trainer_; }
    const Trainer &trainer() const { return *trainer_; }

    const ClmConfig &config() const { return config_; }
    size_t viewCount() const { return cameras_.size(); }
    const Camera &camera(size_t i) const { return cameras_[i]; }

    /** Live model snapshots for serving (serve/snapshot.hpp): the
     *  pre-training state is published at construction and the trainer
     *  republishes after every train() batch and densification, so a
     *  RenderService can serve this session concurrently with training
     *  without ever observing torn parameters. */
    SnapshotSlot &snapshots() { return *snapshots_; }
    const SnapshotSlot &snapshots() const { return *snapshots_; }

  private:
    ClmConfig config_;
    std::vector<Camera> cameras_;
    std::unique_ptr<SnapshotSlot> snapshots_;
    std::unique_ptr<Trainer> trainer_;
    /** Render scratch for the facade's view renders (mutable: scratch
     *  only — reuse never changes results). */
    mutable RenderArena arena_;
};

} // namespace clm

#endif // CLM_CORE_CLM_HPP
