#include "train/quality_harness.hpp"

#include <algorithm>
#include <numeric>

#include "render/arena.hpp"
#include "render/batch.hpp"
#include "scene/camera_path.hpp"
#include "scene/synthetic.hpp"
#include "util/logging.hpp"

namespace clm {

std::vector<Image>
renderGroundTruth(const GaussianModel &gt_model,
                  const std::vector<Camera> &cameras,
                  const RenderConfig &render)
{
    std::vector<Image> images(cameras.size());
    RenderArena arena;    // reused across the groups
    cullViewGroups(
        gt_model, cameras, render.parallel,
        [&](size_t first, const std::vector<Camera> &cams,
            std::vector<std::vector<uint32_t>> &subsets) {
            renderForwardBatch(gt_model, cams, subsets, render, arena);
            for (size_t k = 0; k < cams.size(); ++k)
                images[first + k] = std::move(arena.views[k].out.image);
        });
    return images;
}

GaussianModel
makeTrainee(const GaussianModel &gt, size_t size, uint64_t seed)
{
    CLM_ASSERT(size > 0, "empty trainee");
    Rng rng(seed);
    GaussianModel m(size);

    // Deterministic stratified subset: every (n/size)-th GT Gaussian, so
    // small trainees still cover the whole scene.
    size_t n = gt.size();
    for (size_t i = 0; i < size; ++i) {
        size_t src = std::min(n - 1, i * n / size);
        m.position(i) = gt.position(src);
        m.logScale(i) = gt.logScale(src);
        m.rotation(i) = gt.rotation(src);
        std::copy_n(gt.sh(src), kShDim, m.sh(i));
        // Perturb so training must recover the scene.
        m.position(i) += rng.normal3({0, 0, 0}, 0.05f);
        float *sh = m.sh(i);
        for (int c = 0; c < 3; ++c)
            sh[c] = 0.6f * sh[c] + rng.normal(0.0f, 0.05f);
        m.rawOpacity(i) = gt.rawOpacity(src) - 0.5f;
    }
    return m;
}

std::vector<QualityPoint>
runQualitySweep(const SceneSpec &spec, const QualityConfig &config)
{
    GaussianModel gt = generateGroundTruth(spec, config.gt_gaussians);
    std::vector<Camera> cameras = trainCameras(spec);
    std::vector<Image> gt_images =
        renderGroundTruth(gt, cameras, config.train.render);

    std::vector<QualityPoint> points;
    for (size_t size : config.model_sizes) {
        GaussianModel trainee = makeTrainee(gt, size, spec.seed + size);
        auto trainer = makeTrainer(config.system, std::move(trainee),
                                   cameras, gt_images, config.train);
        QualityPoint p;
        p.model_size = size;
        p.psnr_initial = trainer->evaluatePsnr();
        auto stats = trainer->trainSteps(config.steps);
        p.psnr_final = trainer->evaluatePsnr();
        p.loss_final = stats.empty() ? 0.0 : stats.back().loss;
        points.push_back(p);
    }
    return points;
}

} // namespace clm
