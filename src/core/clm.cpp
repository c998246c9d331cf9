#include "core/clm.hpp"

#include "render/culling.hpp"
#include "serve/snapshot.hpp"
#include "util/logging.hpp"

namespace clm {

Clm::Clm(ClmConfig config) : config_(std::move(config))
{
    config_.applySceneDefaults();
    config_.validate();

    const SceneSpec &scene = config_.scene;
    cameras_ = trainCameras(scene);

    // Ground truth: a reference reconstruction of the scene rendered
    // through the same pipeline (the synthetic stand-in for the posed
    // photographs of the real datasets).
    GaussianModel gt =
        generateGroundTruth(scene, scene.train.n_gaussians);
    std::vector<Image> gt_images =
        renderGroundTruth(gt, cameras_, config_.train.render);

    GaussianModel trainee =
        makeTrainee(gt, config_.model_size, scene.seed);
    trainer_ = makeTrainer(config_.system, std::move(trainee), cameras_,
                           std::move(gt_images), config_.train);

    // Serving hand-off: publish the initial model and keep republishing
    // at every step boundary (see Trainer::setSnapshotSink).
    snapshots_ = std::make_unique<SnapshotSlot>();
    trainer_->setSnapshotSink(snapshots_.get());
}

Clm::~Clm() = default;

std::vector<BatchStats>
Clm::train(int steps)
{
    return trainer_->trainSteps(steps);
}

double
Clm::evaluatePsnr() const
{
    return trainer_->evaluatePsnr();
}

Image
Clm::renderView(size_t index) const
{
    CLM_ASSERT(index < cameras_.size(), "view index out of range");
    return renderNovelView(cameras_[index]);
}

Image
Clm::renderNovelView(const Camera &camera) const
{
    const GaussianModel &m = trainer_->model();
    auto subset = frustumCull(m, camera);
    return renderForward(m, camera, subset, config_.train.render, arena_)
        .image;
}

const GaussianModel &
Clm::model() const
{
    return trainer_->model();
}

} // namespace clm
