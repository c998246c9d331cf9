/**
 * @file
 * Cross-scene integration sweeps: for every scene preset, CLM's offloaded
 * trainer must match GPU-only training, batch statistics must obey their
 * conservation identities, checkpoints must resume identically, and the
 * full train -> densify -> save -> load -> continue lifecycle must hold
 * together.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "gaussian/io.hpp"
#include "render/culling.hpp"
#include "scene/camera_path.hpp"
#include "scene/synthetic.hpp"
#include "sim/metrics.hpp"
#include "train/clm_trainer.hpp"
#include "train/naive_offload_trainer.hpp"
#include "train/quality_harness.hpp"

namespace clm {
namespace {

struct SceneFixture
{
    SceneSpec spec;
    GaussianModel gt;
    std::vector<Camera> cameras;
    std::vector<Image> gt_images;
    TrainConfig config;

    explicit SceneFixture(int scene_index)
        : spec(SceneSpec::all()[scene_index])
    {
        spec.train = {900, 8, 48, 32};
        gt = generateGroundTruth(spec, 900);
        cameras = trainCameras(spec);
        config.batch_size = 4;
        config.render.sh_degree = 1;
        config.loss.ssim_window = 5;
        config.planner.tsp.kick_patience = 32;
        gt_images = renderGroundTruth(gt, cameras, config.render);
    }
};

class CrossSceneEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(CrossSceneEquivalence, ClmMatchesGpuOnlyOnEveryScene)
{
    SceneFixture f(GetParam());
    GpuOnlyTrainer gpu(makeTrainee(f.gt, 350, 21), f.cameras,
                       f.gt_images, f.config);
    ClmTrainer clm(makeTrainee(f.gt, 350, 21), f.cameras, f.gt_images,
                   f.config);
    std::vector<int> ids{0, 2, 5, 7};
    BatchStats sg = gpu.trainBatch(ids);
    BatchStats sc = clm.trainBatch(ids);
    EXPECT_NEAR(sg.loss, sc.loss, 1e-4) << f.spec.name;
    EXPECT_EQ(sg.gaussians_rendered, sc.gaussians_rendered);
    for (size_t i = 0; i < gpu.model().size(); i += 11) {
        EXPECT_NEAR(gpu.model().position(i).x, clm.model().position(i).x,
                    2e-4f)
            << f.spec.name << " gaussian " << i;
        EXPECT_NEAR(gpu.model().sh(i)[1], clm.model().sh(i)[1], 2e-4f);
    }
}

TEST_P(CrossSceneEquivalence, BatchStatsObeyConservation)
{
    SceneFixture f(GetParam());
    ClmTrainer clm(makeTrainee(f.gt, 350, 22), f.cameras, f.gt_images,
                   f.config);
    std::vector<int> ids{1, 3, 4, 6};
    BatchStats s = clm.trainBatch(ids);
    const BatchPlanResult &plan = clm.lastPlan();

    // Loads + cache hits == total in-frustum rows rendered.
    EXPECT_EQ(static_cast<size_t>(s.h2d_bytes
                                  / kNonCriticalBytesPerGaussian)
                  + s.cache_hits,
              s.gaussians_rendered);
    // Every touched Gaussian got exactly one Adam update.
    EXPECT_EQ(s.adam_updated, plan.fin.touched());
    // Stored gradient bytes cover the batch's distinct store events.
    EXPECT_EQ(static_cast<size_t>(s.d2h_bytes / kGradBytesPerGaussian),
              plan.cache.gradStoreBytes() / kGradBytesPerGaussian);
}

INSTANTIATE_TEST_SUITE_P(AllScenes, CrossSceneEquivalence,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(CheckpointResume, SaveLoadContinuesIdentically)
{
    SceneFixture f(0);
    ClmTrainer a(makeTrainee(f.gt, 300, 23), f.cameras, f.gt_images,
                 f.config);
    std::vector<int> ids{0, 2, 4, 6};
    a.trainBatch(ids);

    // Snapshot, reload into a fresh trainer, and compare renderings.
    std::string path = "/tmp/clm_integration_ckpt.bin";
    saveModel(a.model(), path);
    GaussianModel restored = loadModel(path);
    std::remove(path.c_str());

    ClmTrainer b(restored, f.cameras, f.gt_images, f.config);
    for (size_t v = 0; v < 2; ++v) {
        Image ia = renderForward(a.model(), f.cameras[v],
                                 frustumCull(a.model(), f.cameras[v]),
                                 f.config.render)
                       .image;
        Image ib = renderForward(b.model(), f.cameras[v],
                                 frustumCull(b.model(), f.cameras[v]),
                                 f.config.render)
                       .image;
        EXPECT_LT(ia.mse(ib), 1e-12);
    }
}

TEST(Lifecycle, TrainDensifySaveLoadContinue)
{
    SceneFixture f(1);    // Rubble
    ClmTrainer t(makeTrainee(f.gt, 250, 24), f.cameras, f.gt_images,
                 f.config);
    DensifyConfig dc;
    dc.grad_threshold = 1e-7f;
    t.enableDensification(dc);

    t.trainSteps(2);
    double psnr_mid = t.evaluatePsnr();
    DensifyStats ds = t.densifyNow();
    EXPECT_GT(ds.resulting_size, 0u);
    t.trainSteps(2);

    std::string path = "/tmp/clm_lifecycle_ckpt.bin";
    saveModel(t.model(), path);
    GaussianModel restored = loadModel(path);
    std::remove(path.c_str());
    ASSERT_EQ(restored.size(), t.model().size());

    ClmTrainer resumed(restored, f.cameras, f.gt_images, f.config);
    double psnr_resumed = resumed.evaluatePsnr();
    // The resumed model reproduces the trained quality.
    EXPECT_NEAR(psnr_resumed, t.evaluatePsnr(), 1e-6);
    // And training did not regress across the topology change.
    EXPECT_GT(psnr_resumed, psnr_mid - 1.0);
    auto stats = resumed.trainSteps(1);
    EXPECT_GT(stats.back().adam_updated, 0u);
}

TEST(Lifecycle, AsyncAdamWithDensification)
{
    SceneFixture f(2);    // Alameda
    TrainConfig cfg = f.config;
    cfg.async_adam = true;
    ClmTrainer t(makeTrainee(f.gt, 250, 25), f.cameras, f.gt_images,
                 cfg);
    DensifyConfig dc;
    dc.grad_threshold = 1e-7f;
    t.enableDensification(dc);
    t.trainSteps(2);
    DensifyStats ds = t.densifyNow();    // must drain the Adam thread
    EXPECT_EQ(ds.resulting_size, t.model().size());
    auto stats = t.trainSteps(2);
    EXPECT_GT(stats.back().adam_updated, 0u);
    EXPECT_EQ(t.pinnedBytes(),
              t.model().size() * PinnedLayout::gradStride()
                  + kSignalSlots * kCacheLineBytes);
}

/** Rows of @p a and @p b whose parameters differ in any bit. */
size_t
bitwiseDifferentRows(const GaussianModel &a, const GaussianModel &b)
{
    EXPECT_EQ(a.size(), b.size());
    size_t differ = 0;
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        float ra[kParamsPerGaussian], rb[kParamsPerGaussian];
        a.packCritical(i, ra);
        a.packNonCritical(i, ra + kCriticalDim);
        b.packCritical(i, rb);
        b.packNonCritical(i, rb + kCriticalDim);
        differ += std::memcmp(ra, rb, sizeof(ra)) != 0 ? 1 : 0;
    }
    return differ;
}

TEST(TransferEnginePolicy, PrefetchMatchesSynchronousTrajectory)
{
    // Overlap is pure scheduling: with prefetch on, up to one microbatch
    // per pool thread renders at once and the engine commits them in
    // plan order, so every parameter and every batch loss must be
    // byte-identical to the synchronous one-at-a-time schedule. Covered:
    // both finalization modes, a 7-view batch (the W+1 buffer ring
    // wraps) and a batch repeating a view.
    SceneFixture f(0);
    const std::vector<std::vector<int>> batches{
        {0, 3, 5, 6}, {1, 2, 4, 5, 6, 7, 0}, {2, 6, 2, 4}, {7, 1, 3}};
    for (bool async : {false, true}) {
        TrainConfig sync_cfg = f.config;
        sync_cfg.async_adam = async;
        sync_cfg.prefetch = false;
        TrainConfig pre_cfg = sync_cfg;
        pre_cfg.prefetch = true;
        ClmTrainer sync_t(makeTrainee(f.gt, 350, 28), f.cameras,
                          f.gt_images, sync_cfg);
        ClmTrainer pre_t(makeTrainee(f.gt, 350, 28), f.cameras,
                         f.gt_images, pre_cfg);
        for (const std::vector<int> &ids : batches) {
            BatchStats ss = sync_t.trainBatch(ids);
            BatchStats sp = pre_t.trainBatch(ids);
            EXPECT_EQ(std::memcmp(&ss.loss, &sp.loss, sizeof(double)), 0)
                << "async=" << async << " batch of " << ids.size();
            EXPECT_EQ(ss.cache_hits, sp.cache_hits);
            EXPECT_EQ(ss.h2d_bytes, sp.h2d_bytes);
            EXPECT_EQ(ss.d2h_bytes, sp.d2h_bytes);
            EXPECT_EQ(ss.adam_updated, sp.adam_updated);
            EXPECT_EQ(ss.gaussians_rendered, sp.gaussians_rendered);
            EXPECT_EQ(bitwiseDifferentRows(sync_t.model(), pre_t.model()),
                      0u)
                << "async=" << async << " batch of " << ids.size();
        }
    }
}

TEST(TransferEnginePolicy, StageTimingsCoverTheBatch)
{
    // Both offload trainers stamp their cull + plan as the Schedule
    // stage inside the batch clock, so the measured total covers the
    // schedule and the compute reported beside it.
    SceneFixture f(0);
    ClmTrainer clm(makeTrainee(f.gt, 350, 29), f.cameras, f.gt_images,
                   f.config);
    NaiveOffloadTrainer naive(makeTrainee(f.gt, 350, 29), f.cameras,
                              f.gt_images, f.config);
    clm.trainBatch({0, 2, 5, 7});
    naive.trainBatch({0, 2, 5, 7});
    EXPECT_EQ(clm.stageTimings().microbatches.size(), 4u);
    EXPECT_EQ(naive.stageTimings().microbatches.size(), 1u);
    for (const StageTimings *st :
         {&clm.stageTimings(), &naive.stageTimings()}) {
        SCOPED_TRACE(st == &clm.stageTimings() ? "clm" : "naive");
        EXPECT_GT((*st)[TrainStage::Schedule], 0.0);
        EXPECT_GT((*st)[TrainStage::Compute], 0.0);
        EXPECT_GT((*st)[TrainStage::Finalize], 0.0);
        EXPECT_GE(st->batch_seconds,
                  (*st)[TrainStage::Schedule] + (*st)[TrainStage::Compute]);
        // Every stage the calling thread times is a disjoint interval of
        // the batch clock; only a dedicated Adam thread's finalization
        // runs beside it.
        double on_caller = st->total();
        if (!st->finalize_inline)
            on_caller -= (*st)[TrainStage::Finalize];
        EXPECT_GE(st->batch_seconds, on_caller);
        RuntimeBreakdown b = computeBreakdown(*st);
        EXPECT_EQ(b.compute, (*st)[TrainStage::Compute]);
        EXPECT_EQ(b.scheduling, (*st)[TrainStage::Schedule]);
        EXPECT_GE(b.total, b.compute + b.scheduling);
        auto idle = gpuIdleSamples(*st, 500);
        ASSERT_EQ(idle.size(), 500u);
        for (double v : idle)
            EXPECT_TRUE(v == 0.0 || v == 100.0);
    }
}

TEST(Determinism, SameSeedSameTrajectory)
{
    SceneFixture f(0);
    auto run = [&] {
        ClmTrainer t(makeTrainee(f.gt, 300, 26), f.cameras, f.gt_images,
                     f.config);
        t.trainSteps(3);
        return t.model().position(17).x;
    };
    EXPECT_FLOAT_EQ(run(), run());
}

TEST(Robustness, SingleViewBatchAndRepeatedViews)
{
    SceneFixture f(0);
    ClmTrainer t(makeTrainee(f.gt, 300, 27), f.cameras, f.gt_images,
                 f.config);
    // Batch of one microbatch: no caching possible, trailing Adam only.
    BatchStats s1 = t.trainBatch({3});
    EXPECT_EQ(s1.cache_hits, 0u);
    EXPECT_GT(s1.adam_updated, 0u);
    // Batch repeating a view: the duplicate set overlaps 100%.
    BatchStats s2 = t.trainBatch({5, 5});
    EXPECT_GT(s2.cache_hits, 0u);
}

} // namespace
} // namespace clm
