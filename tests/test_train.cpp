/**
 * @file
 * Integration tests: the three functional trainers must be equivalent —
 * CLM's offloading (attribute split, caching, carried gradients, subset
 * Adam) is a pure systems transformation of GPU-only training — and
 * training must actually reconstruct scenes (loss down, PSNR up). Also
 * covers the fused multi-view GpuOnlyTrainer step (bitwise a test-local
 * view-at-a-time trajectory), the Clm facade and the quality harness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/clm.hpp"
#include "render/culling.hpp"
#include "render/simd_kernels.hpp"
#include "scene/camera_path.hpp"
#include "train/clm_trainer.hpp"
#include "train/naive_offload_trainer.hpp"
#include "train/quality_harness.hpp"

namespace clm {
namespace {

struct Fixture
{
    SceneSpec spec;
    GaussianModel gt;
    std::vector<Camera> cameras;
    std::vector<Image> gt_images;
    TrainConfig config;

    explicit Fixture(size_t gt_size = 700, int views = 8, int wh = 48)
        : spec(SceneSpec::bicycle())
    {
        spec.train = {gt_size, views, wh, wh};
        gt = generateGroundTruth(spec, gt_size);
        cameras = trainCameras(spec);
        config.batch_size = 4;
        config.render.sh_degree = 1;
        config.loss.ssim_window = 5;
        config.planner.tsp.kick_patience = 32;
        gt_images = renderGroundTruth(gt, cameras, config.render);
    }

    GaussianModel
    trainee(size_t size) const
    {
        return makeTrainee(gt, size, 1234);
    }
};

void
expectModelsClose(const GaussianModel &a, const GaussianModel &b,
                  float tol)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a.position(i).x, b.position(i).x, tol);
        EXPECT_NEAR(a.position(i).y, b.position(i).y, tol);
        EXPECT_NEAR(a.logScale(i).z, b.logScale(i).z, tol);
        EXPECT_NEAR(a.rotation(i).w, b.rotation(i).w, tol);
        EXPECT_NEAR(a.rawOpacity(i), b.rawOpacity(i), tol);
        EXPECT_NEAR(a.sh(i)[0], b.sh(i)[0], tol);
        EXPECT_NEAR(a.sh(i)[5], b.sh(i)[5], tol);
    }
}

TEST(TrainerEquivalence, ClmMatchesGpuOnlyTrajectory)
{
    // The core systems claim: CLM's offloaded execution computes the
    // same training step as GPU-only training.
    Fixture f;
    GpuOnlyTrainer gpu(f.trainee(300), f.cameras, f.gt_images, f.config);
    ClmTrainer clm(f.trainee(300), f.cameras, f.gt_images, f.config);

    std::vector<int> batch1{0, 3, 5, 6};
    std::vector<int> batch2{1, 2, 4, 7};
    for (const auto &ids : {batch1, batch2}) {
        BatchStats sg = gpu.trainBatch(ids);
        BatchStats sc = clm.trainBatch(ids);
        EXPECT_NEAR(sg.loss, sc.loss, 1e-4);
        EXPECT_EQ(sg.gaussians_rendered, sc.gaussians_rendered);
    }
    expectModelsClose(gpu.model(), clm.model(), 2e-4f);
}

TEST(TrainerEquivalence, NaiveMatchesGpuOnlyTrajectory)
{
    Fixture f;
    GpuOnlyTrainer gpu(f.trainee(300), f.cameras, f.gt_images, f.config);
    NaiveOffloadTrainer naive(f.trainee(300), f.cameras, f.gt_images,
                              f.config);
    std::vector<int> ids{0, 2, 4, 6};
    gpu.trainBatch(ids);
    naive.trainBatch(ids);
    expectModelsClose(gpu.model(), naive.model(), 1e-5f);
}

/** Equivalence must hold for every ordering strategy and with caching
 *  and Adam overlap toggled — they are performance knobs, not math. */
class ClmAblationEquivalence
    : public ::testing::TestWithParam<std::tuple<OrderingStrategy, bool>>
{
};

TEST_P(ClmAblationEquivalence, TrajectoryUnchanged)
{
    auto [ordering, enable_cache] = GetParam();
    Fixture f;
    TrainConfig cfg = f.config;
    cfg.planner.ordering = ordering;
    cfg.planner.enable_cache = enable_cache;

    GpuOnlyTrainer gpu(f.trainee(250), f.cameras, f.gt_images, f.config);
    ClmTrainer clm(f.trainee(250), f.cameras, f.gt_images, cfg);
    std::vector<int> ids{0, 1, 4, 7};
    gpu.trainBatch(ids);
    clm.trainBatch(ids);
    expectModelsClose(gpu.model(), clm.model(), 2e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, ClmAblationEquivalence,
    ::testing::Combine(::testing::Values(OrderingStrategy::Random,
                                         OrderingStrategy::Camera,
                                         OrderingStrategy::GsCount,
                                         OrderingStrategy::Tsp),
                       ::testing::Bool()));

TEST(ClmTrainerAccounting, CacheReducesTrafficNotResults)
{
    Fixture f;
    TrainConfig no_cache = f.config;
    no_cache.planner.enable_cache = false;
    no_cache.planner.ordering = OrderingStrategy::Tsp;
    TrainConfig cache = f.config;
    cache.planner.enable_cache = true;
    cache.planner.ordering = OrderingStrategy::Tsp;

    ClmTrainer a(f.trainee(300), f.cameras, f.gt_images, cache);
    ClmTrainer b(f.trainee(300), f.cameras, f.gt_images, no_cache);
    std::vector<int> ids{0, 1, 2, 3};
    BatchStats sa = a.trainBatch(ids);
    BatchStats sb = b.trainBatch(ids);
    EXPECT_LT(sa.h2d_bytes, sb.h2d_bytes);
    EXPECT_GT(sa.cache_hits, 0u);
    EXPECT_EQ(sb.cache_hits, 0u);
    expectModelsClose(a.model(), b.model(), 2e-4f);
}

TEST(ClmTrainerAccounting, PinnedBytesMatchLayout)
{
    Fixture f;
    ClmTrainer t(f.trainee(300), f.cameras, f.gt_images, f.config);
    EXPECT_EQ(t.pinnedBytes(), PinnedLayout::totalBytes(300));
}

TEST(ClmTrainerAccounting, AdamUpdatesEveryTouchedGaussianOnce)
{
    Fixture f;
    ClmTrainer t(f.trainee(300), f.cameras, f.gt_images, f.config);
    std::vector<int> ids{0, 1, 2, 3};
    BatchStats s = t.trainBatch(ids);
    EXPECT_EQ(s.adam_updated, t.lastPlan().fin.touched());
}

TEST(Training, LossDecreasesOverSteps)
{
    Fixture f;
    ClmTrainer t(f.trainee(400), f.cameras, f.gt_images, f.config);
    auto stats = t.trainSteps(10);
    double first = stats.front().loss;
    double last = stats.back().loss;
    EXPECT_LT(last, first);
}

TEST(Training, PsnrImprovesFromPerturbedInit)
{
    Fixture f;
    ClmTrainer t(f.trainee(500), f.cameras, f.gt_images, f.config);
    double before = t.evaluatePsnr();
    t.trainSteps(10);
    double after = t.evaluatePsnr();
    EXPECT_GT(after, before);
}

TEST(QualityHarness, LargerModelsScoreHigher)
{
    SceneSpec spec = SceneSpec::bicycle();
    spec.train = {600, 6, 40, 40};
    QualityConfig qc;
    qc.gt_gaussians = 600;
    qc.model_sizes = {60, 600};
    qc.steps = 4;
    qc.train.batch_size = 3;
    qc.train.render.sh_degree = 1;
    qc.train.loss.ssim_window = 5;
    auto points = runQualitySweep(spec, qc);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_GT(points[1].psnr_final, points[0].psnr_final);
    // Training never hurts a converged-seeded model much; final PSNR
    // should beat the perturbed initialization.
    EXPECT_GT(points[1].psnr_final, points[1].psnr_initial);
}

/** True when @p a and @p b hold the same floats bit for bit. */
bool
sameBits(const float *a, const float *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(QualityHarness, GroundTruthMatchesPerViewRenders)
{
    // Whole groups, a partial last group and a group of one, under the
    // dispatched and the forced-scalar kernel table, serial and
    // parallel: every image is bitwise the per-view cull + render.
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel gt = generateGroundTruth(spec, 600);
    for (int views : {1, 15, 16, 17, 33}) {
        std::vector<Camera> cams = generateCameraPath(spec, views, 37, 29);
        for (const RenderKernels *kern :
             {static_cast<const RenderKernels *>(nullptr),
              renderKernelsFor(SimdBackend::kScalar)}) {
            for (bool parallel : {true, false}) {
                RenderConfig cfg;
                cfg.sh_degree = 1;
                cfg.kernels = kern;
                cfg.parallel = parallel;
                std::vector<Image> images =
                    renderGroundTruth(gt, cams, cfg);
                ASSERT_EQ(images.size(), cams.size());
                for (size_t v = 0; v < cams.size(); ++v) {
                    Image ref =
                        renderForward(gt, cams[v],
                                      frustumCull(gt, cams[v]), cfg)
                            .image;
                    ASSERT_EQ(images[v].data().size(), ref.data().size());
                    EXPECT_TRUE(sameBits(images[v].data().data(),
                                         ref.data().data(),
                                         ref.data().size()))
                        << views << " views, view " << v << ", "
                        << (kern ? kern->name : "dispatched")
                        << ", parallel " << parallel;
                }
            }
        }
    }
}

/** The trainee as an append loop built it: one row at a time. */
GaussianModel
appendedTrainee(const GaussianModel &gt, size_t size, uint64_t seed)
{
    Rng rng(seed);
    GaussianModel m;
    size_t n = gt.size();
    for (size_t k = 0; k < size; ++k) {
        size_t src = std::min(n - 1, k * n / size);
        m.append(gt.position(src), gt.logScale(src), gt.rotation(src),
                 gt.sh(src), gt.rawOpacity(src));
        size_t i = m.size() - 1;
        m.position(i) += rng.normal3({0, 0, 0}, 0.05f);
        float *sh = m.sh(i);
        for (int c = 0; c < 3; ++c)
            sh[c] = 0.6f * sh[c] + rng.normal(0.0f, 0.05f);
        m.rawOpacity(i) = gt.rawOpacity(src) - 0.5f;
    }
    return m;
}

TEST(QualityHarness, MakeTraineeMatchesAppendLoop)
{
    GaussianModel gt = generateGroundTruth(SceneSpec::rubble(), 300);
    for (size_t size : {size_t(7), size_t(299), size_t(300), size_t(301),
                        size_t(777)}) {
        GaussianModel a = makeTrainee(gt, size, 42);
        GaussianModel b = appendedTrainee(gt, size, 42);
        ASSERT_EQ(a.size(), size);
        ASSERT_EQ(b.size(), size);
        // Whole attribute arrays: Vec3 is 3 floats, Quat 4.
        EXPECT_TRUE(sameBits(&a.position(0).x, &b.position(0).x, 3 * size))
            << size;
        EXPECT_TRUE(sameBits(&a.logScale(0).x, &b.logScale(0).x, 3 * size))
            << size;
        EXPECT_TRUE(sameBits(&a.rotation(0).w, &b.rotation(0).w, 4 * size))
            << size;
        EXPECT_TRUE(sameBits(a.sh(0), b.sh(0), kShDim * size)) << size;
        EXPECT_TRUE(sameBits(&a.rawOpacity(0), &b.rawOpacity(0), size))
            << size;
    }
}

TEST(Training, EvaluatePsnrMatchesPerViewReference)
{
    // 20 views: one whole group of kViewGroupSize and a partial one.
    Fixture f(700, 20, 40);
    GpuOnlyTrainer gpu(f.trainee(400), f.cameras, f.gt_images, f.config);
    ClmTrainer clm(f.trainee(400), f.cameras, f.gt_images, f.config);
    for (Trainer *t : {static_cast<Trainer *>(&gpu),
                       static_cast<Trainer *>(&clm)}) {
        t->trainSteps(2);
        const GaussianModel &m = t->model();
        double acc = 0.0;
        for (size_t v = 0; v < f.cameras.size(); ++v)
            acc += renderForward(m, f.cameras[v],
                                 frustumCull(m, f.cameras[v]),
                                 f.config.render)
                       .image.psnr(f.gt_images[v]);
        const double ref = acc / f.cameras.size();
        const double got = t->evaluatePsnr();
        EXPECT_EQ(std::memcmp(&got, &ref, sizeof(double)), 0)
            << got << " vs " << ref;
    }
}

TEST(ClmFacade, QuickstartFlow)
{
    ClmConfig cfg;
    cfg.scene = SceneSpec::bicycle();
    cfg.scene.train = {400, 6, 40, 40};
    cfg.model_size = 200;
    cfg.train.render.sh_degree = 1;
    cfg.train.loss.ssim_window = 5;
    Clm session(cfg);
    EXPECT_EQ(session.viewCount(), 6u);
    double before = session.evaluatePsnr();
    session.train(3);
    EXPECT_GE(session.evaluatePsnr(), before - 0.5);
    Image img = session.renderView(0);
    EXPECT_EQ(img.width(), 40);
    // Novel view renders without crashing and produces finite pixels.
    Camera novel = Camera::lookAt({8, 8, 4}, {0, 0, 1}, {0, 0, 1}, 40,
                                  40, 1.0f);
    Image nv = session.renderNovelView(novel);
    for (float v : nv.data())
        EXPECT_TRUE(std::isfinite(v));
}

TEST(ClmFacade, ConfigValidation)
{
    ClmConfig cfg;
    cfg.scene.train.n_views = 0;
    EXPECT_ANY_THROW(Clm{cfg});
}

/**
 * Test-local view-at-a-time reference of GpuOnlyTrainer's step: every
 * view is culled and rendered alone as a batch of one, gradients
 * accumulate view by view, and the Adam subset is the sort+unique of
 * the concatenated subsets.
 */
struct ViewAtATimeReference
{
    GaussianModel model;
    const std::vector<Camera> &cameras;
    const std::vector<Image> &gt_images;
    TrainConfig config;
    CpuAdam adam;
    GaussianGrads grads;
    RenderArena arena;
    LossScratch loss_scratch;

    ViewAtATimeReference(GaussianModel m, const std::vector<Camera> &cams,
                         const std::vector<Image> &gts, TrainConfig cfg)
        : model(std::move(m)), cameras(cams), gt_images(gts), config(cfg),
          adam(cfg.adam)
    {
        adam.reset(model.size());
        grads.resize(model.size());
    }

    BatchStats
    trainBatch(const std::vector<int> &view_ids)
    {
        BatchStats stats;
        grads.zero();
        std::vector<uint32_t> touched;
        for (int v : view_ids) {
            std::vector<uint32_t> subset = frustumCull(model, cameras[v]);
            const RenderOutput &out = renderForward(
                model, cameras[v], subset, config.render, arena);
            Image d_image;
            stats.loss += computeLoss(out.image, gt_images[v], &d_image,
                                      config.loss, loss_scratch)
                              .total;
            renderBackward(model, cameras[v], config.render, d_image,
                           grads, arena);
            stats.gaussians_rendered += subset.size();
            touched.insert(touched.end(), subset.begin(), subset.end());
        }
        stats.loss /= view_ids.size();
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        adam.updateSubset(model, grads, touched);
        stats.adam_updated = touched.size();
        return stats;
    }
};

TEST(FusedTrainer, TrajectoryMatchesViewAtATime)
{
    // The fused multi-view training step must reproduce the
    // view-at-a-time trajectory bit for bit: same per-batch loss, same
    // parameters after several steps — including a batch with a
    // DUPLICATE view id (the fused chain accumulates per model row in
    // batch-slot order, which is the view-at-a-time order) and a batch
    // of one.
    SceneSpec spec = SceneSpec::bicycle();
    spec.train = {500, 6, 48, 48};
    GaussianModel gt = generateGroundTruth(spec, 500);
    std::vector<Camera> cameras = trainCameras(spec);
    TrainConfig config;
    config.batch_size = 4;
    config.render.sh_degree = 1;
    config.loss.ssim_window = 5;
    std::vector<Image> gt_images =
        renderGroundTruth(gt, cameras, config.render);
    GaussianModel trainee = makeTrainee(gt, 300, 1234);

    GpuOnlyTrainer fused(trainee, cameras, gt_images, config);
    ViewAtATimeReference seq(trainee, cameras, gt_images, config);

    const std::vector<std::vector<int>> batches = {
        {0, 1, 2, 3}, {4, 5, 0, 1}, {2, 2, 4, 5}, {3}};
    for (const auto &ids : batches) {
        BatchStats a = fused.trainBatch(ids);
        BatchStats b = seq.trainBatch(ids);
        EXPECT_EQ(a.loss, b.loss);
        EXPECT_EQ(a.gaussians_rendered, b.gaussians_rendered);
        EXPECT_EQ(a.adam_updated, b.adam_updated);
    }
    const GaussianModel &ma = fused.model();
    const GaussianModel &mb = seq.model;
    ASSERT_EQ(ma.size(), mb.size());
    for (size_t i = 0; i < ma.size(); ++i) {
        EXPECT_EQ(ma.position(i).x, mb.position(i).x) << i;
        EXPECT_EQ(ma.position(i).y, mb.position(i).y) << i;
        EXPECT_EQ(ma.position(i).z, mb.position(i).z) << i;
        EXPECT_EQ(ma.logScale(i).x, mb.logScale(i).x) << i;
        EXPECT_EQ(ma.rotation(i).w, mb.rotation(i).w) << i;
        EXPECT_EQ(ma.rawOpacity(i), mb.rawOpacity(i)) << i;
        EXPECT_EQ(ma.sh(i)[0], mb.sh(i)[0]) << i;
    }
}

} // namespace
} // namespace clm
