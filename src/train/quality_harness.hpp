/**
 * @file
 * Quality-scaling harness (Figure 9): renders ground-truth images from a
 * reference model, then trains models of increasing capacity and reports
 * PSNR — the "larger models improve reconstruction quality" experiment,
 * scaled to CPU-feasible sizes.
 */

#ifndef CLM_TRAIN_QUALITY_HARNESS_HPP
#define CLM_TRAIN_QUALITY_HARNESS_HPP

#include <vector>

#include "scene/scene_spec.hpp"
#include "train/trainer.hpp"

namespace clm {

/** Sweep settings. */
struct QualityConfig
{
    /** Trainee model sizes (Gaussians); Figure 9 doubles them. */
    std::vector<size_t> model_sizes{1000, 2000, 4000, 8000};
    /** Ground-truth model size (the "scene"). */
    size_t gt_gaussians = 8000;
    /** Training steps per size. */
    int steps = 30;
    /** Training system to use (Figure 9 trains with CLM). */
    SystemKind system = SystemKind::Clm;
    TrainConfig train;
};

/** One point of the Figure 9 curve. */
struct QualityPoint
{
    size_t model_size = 0;
    double psnr_initial = 0;
    double psnr_final = 0;
    double loss_final = 0;
};

/**
 * Run the sweep on @p spec's train profile. The trainee of size k is
 * seeded with a k-subset of the ground-truth Gaussians (perturbed), so
 * capacity maps to representable detail exactly as in the paper.
 */
std::vector<QualityPoint> runQualitySweep(const SceneSpec &spec,
                                          const QualityConfig &config);

/**
 * Render ground-truth images for @p cameras from @p gt_model: one cull
 * stage, then fused batches of kViewGroupSize views (cullViewGroups +
 * renderForwardBatch, render/batch.hpp). Image v is bitwise
 * renderForward(gt_model, cameras[v], frustumCull(gt_model,
 * cameras[v]), render).image.
 */
std::vector<Image> renderGroundTruth(const GaussianModel &gt_model,
                                     const std::vector<Camera> &cameras,
                                     const RenderConfig &render);

/**
 * Build a trainee of @p size from the ground truth: a subset of the GT
 * Gaussians with perturbed parameters (position jitter, flattened colors,
 * reduced opacity) so training has real work to do.
 */
GaussianModel makeTrainee(const GaussianModel &gt, size_t size,
                          uint64_t seed);

} // namespace clm

#endif // CLM_TRAIN_QUALITY_HARNESS_HPP
