/**
 * @file
 * Tests for the extensions beyond the paper's core: the thread pool,
 * parallel rasterization/Adam determinism, the dedicated asynchronous
 * CPU Adam thread (§5.4), densification integrated with the offloaded
 * trainer, and model I/O. (The spatially chunked cull stage, §8's
 * spatial structure, is tested in test_serve.cpp.)
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "gaussian/io.hpp"
#include "math/rng.hpp"
#include "render/culling.hpp"
#include "scene/camera_path.hpp"
#include "scene/synthetic.hpp"
#include "train/clm_trainer.hpp"
#include "train/quality_harness.hpp"
#include "util/thread_pool.hpp"

namespace clm {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            hits[i]++;
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitAndWait)
{
    ThreadPool pool(3);
    std::atomic<int> counter{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&] { counter++; });
    pool.wait();
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, EmptyAndTinyRanges)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [&](size_t, size_t) { FAIL(); });
    std::atomic<int> n{0};
    pool.parallelFor(1, [&](size_t b, size_t e) {
        n += static_cast<int>(e - b);
    });
    EXPECT_EQ(n.load(), 1);
}

TEST(ParallelRender, IdenticalToSerial)
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 800);
    auto cams = generateCameraPath(spec, 2, 96, 64);
    for (const Camera &cam : cams) {
        auto subset = frustumCull(m, cam);
        RenderConfig serial;
        serial.parallel = false;
        RenderConfig parallel;
        parallel.parallel = true;
        RenderOutput a = renderForward(m, cam, subset, serial);
        RenderOutput b = renderForward(m, cam, subset, parallel);
        EXPECT_EQ(a.image.data(), b.image.data());    // bitwise
        EXPECT_EQ(a.n_contrib, b.n_contrib);
    }
}

TEST(ParallelRender, BackwardIdenticalToSerial)
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 600);
    auto cams = generateCameraPath(spec, 1, 96, 64);
    auto subset = frustumCull(m, cams[0]);
    Image d_image(96, 64, {0.3f, -0.2f, 0.1f});

    auto run = [&](bool parallel) {
        RenderConfig cfg;
        cfg.parallel = parallel;
        RenderArena arena;
        renderForward(m, cams[0], subset, cfg, arena);
        GaussianGrads g;
        g.resize(m.size());
        renderBackward(m, cams[0], cfg, d_image, g, arena);
        return g;
    };
    GaussianGrads a = run(false);
    GaussianGrads b = run(true);
    double max_rel = 0;
    for (size_t i = 0; i < m.size(); ++i) {
        double denom =
            std::max(1e-12, std::abs(double(a.d_position[i].x)));
        max_rel = std::max(
            max_rel,
            std::abs(double(a.d_position[i].x) - b.d_position[i].x)
                / denom);
    }
    // Chunked reduction can reorder float sums across tiles; the drift
    // must stay at rounding level.
    EXPECT_LT(max_rel, 1e-4);
}

/** Bit-pattern equality of @p n floats. */
bool
sameBits(const float *a, const float *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/** Bitwise equality of Gaussian @p i's parameters in two models. */
bool
sameRow(const GaussianModel &a, const GaussianModel &b, size_t i)
{
    float ra[kParamsPerGaussian], rb[kParamsPerGaussian];
    a.packCritical(i, ra);
    a.packNonCritical(i, ra + kShOffset);
    b.packCritical(i, rb);
    b.packNonCritical(i, rb + kShOffset);
    return sameBits(ra, rb, kParamsPerGaussian);
}

/** Bitwise equality of Gaussian @p i's step and m and v records. */
bool
sameAdamRow(const CpuAdam &a, const CpuAdam &b, size_t i)
{
    return a.stepCount(i) == b.stepCount(i)
           && sameBits(a.firstMoments(i), b.firstMoments(i),
                       2 * kParamsPerGaussian);
}

TEST(ParallelAdam, IdenticalToSerial)
{
    // Well above kParallelAdamRows, so the parallel sweep really splits.
    constexpr size_t kRows = 3000;
    Rng rng(6);
    GaussianModel m1 = GaussianModel::random(kRows, {-5, -5, -5},
                                             {5, 5, 5}, 0.1f, rng);
    GaussianModel m2 = m1;
    GaussianGrads g;
    g.resize(kRows);

    AdamConfig serial_cfg;
    serial_cfg.parallel = false;
    AdamConfig parallel_cfg;
    parallel_cfg.parallel = true;
    CpuAdam a(serial_cfg), b(parallel_cfg);
    a.reset(kRows);
    b.reset(kRows);
    std::vector<uint32_t> all(kRows);
    std::iota(all.begin(), all.end(), 0u);
    for (int round = 0; round < 2; ++round) {
        for (size_t i = 0; i < kRows; ++i) {
            g.d_position[i] = rng.normal3({0, 0, 0}, 1.0f);
            g.d_log_scale[i] = rng.normal3({0, 0, 0}, 0.1f);
            g.d_rotation[i] = Quat{rng.normal(), rng.normal(),
                                   rng.normal(), rng.normal()};
            for (int k = 0; k < kShDim; ++k)
                g.d_sh[i * kShDim + k] = rng.normal(0.0f, 0.01f);
            g.d_opacity[i] = rng.normal();
        }
        a.updateSubset(m1, g, all);
        b.updateSubset(m2, g, all);
    }
    for (size_t i = 0; i < kRows; ++i) {
        ASSERT_TRUE(sameRow(m1, m2, i)) << "row " << i;
        ASSERT_TRUE(sameAdamRow(a, b, i)) << "row " << i;
    }
}

TEST(ParallelFinalize, IdenticalToSerial)
{
    // finalizeRows over a fin set larger than kParallelAdamRows: the
    // pool-spread pass must leave the model rows, the moments and the
    // zeroed gradient records bitwise equal to the serial pass.
    constexpr size_t kRows = 4000;
    const GaussianModel init =
        generateGroundTruth(SceneSpec::bicycle(), kRows);
    std::vector<uint32_t> fin;
    for (uint32_t g = 0; g < kRows; ++g)
        if (g % 5 != 2)
            fin.push_back(g);
    ASSERT_GT(fin.size(), kParallelAdamRows);

    struct Side
    {
        GaussianModel model;
        CpuAdam adam;
        Densifier densifier;
        PinnedPool pool;

        explicit Side(const GaussianModel &m) : model(m), pool(m.size())
        {
            adam.reset(m.size());
            densifier.reset(m.size());
        }
    };
    Side serial(init), parallel(init);
    Rng rng(7);
    for (int round = 0; round < 2; ++round) {
        for (uint32_t g : fin)
            for (int k = 0; k < kParamsPerGaussian; ++k) {
                const float v = rng.normal(0.0f, k < kShOffset ? 1.0f
                                                               : 0.01f);
                serial.pool.gradRecord(g)[k] = v;
                parallel.pool.gradRecord(g)[k] = v;
            }
        EXPECT_EQ(finalizeRows(serial.model, serial.adam, serial.pool, fin,
                               &serial.densifier, false),
                  fin.size());
        EXPECT_EQ(finalizeRows(parallel.model, parallel.adam, parallel.pool,
                               fin, &parallel.densifier, true),
                  fin.size());
    }
    const float zero[kParamsPerGaussian] = {};
    for (size_t g = 0; g < kRows; ++g) {
        SCOPED_TRACE("row " + std::to_string(g));
        ASSERT_TRUE(sameRow(serial.model, parallel.model, g));
        ASSERT_TRUE(sameAdamRow(serial.adam, parallel.adam, g));
        ASSERT_TRUE(sameBits(parallel.pool.gradRecord(g), zero,
                             kParamsPerGaussian));
        ASSERT_TRUE(sameBits(serial.pool.gradRecord(g), zero,
                             kParamsPerGaussian));
    }
    // Finalization updated exactly the rows it was given.
    for (uint32_t g = 0; g < kRows; ++g) {
        const unsigned want = g % 5 != 2 ? 2u : 0u;
        ASSERT_EQ(serial.adam.stepCount(g), want) << "row " << g;
        ASSERT_EQ(parallel.adam.stepCount(g), want) << "row " << g;
    }
}

struct TrainFixture
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel gt;
    std::vector<Camera> cameras;
    std::vector<Image> gt_images;
    TrainConfig config;

    TrainFixture()
    {
        spec.train = {700, 8, 48, 48};
        gt = generateGroundTruth(spec, 700);
        cameras = trainCameras(spec);
        config.batch_size = 4;
        config.render.sh_degree = 1;
        config.loss.ssim_window = 5;
        gt_images = renderGroundTruth(gt, cameras, config.render);
    }
};

TEST(AsyncAdam, MatchesSynchronousClmTrainer)
{
    TrainFixture f;
    TrainConfig sync_cfg = f.config;
    TrainConfig async_cfg = f.config;
    async_cfg.async_adam = true;

    ClmTrainer sync_t(makeTrainee(f.gt, 300, 9), f.cameras, f.gt_images,
                      sync_cfg);
    ClmTrainer async_t(makeTrainee(f.gt, 300, 9), f.cameras, f.gt_images,
                       async_cfg);
    for (int step = 0; step < 3; ++step) {
        std::vector<int> ids{step % 8, (step + 2) % 8, (step + 4) % 8,
                             (step + 6) % 8};
        BatchStats ss = sync_t.trainBatch(ids);
        BatchStats sa = async_t.trainBatch(ids);
        EXPECT_EQ(ss.adam_updated, sa.adam_updated);
        EXPECT_NEAR(ss.loss, sa.loss, 1e-6);
    }
    for (size_t i = 0; i < sync_t.model().size(); i += 13) {
        EXPECT_FLOAT_EQ(sync_t.model().position(i).x,
                        async_t.model().position(i).x);
        EXPECT_FLOAT_EQ(sync_t.model().rawOpacity(i),
                        async_t.model().rawOpacity(i));
    }
}

TEST(DensifyTraining, GpuOnlyGrowsAndKeepsTraining)
{
    TrainFixture f;
    GpuOnlyTrainer t(makeTrainee(f.gt, 200, 10), f.cameras, f.gt_images,
                     f.config);
    DensifyConfig dc;
    dc.grad_threshold = 1e-7f;    // aggressive for the test
    dc.prune_opacity = 1e-4f;
    t.enableDensification(dc);
    t.trainSteps(3);
    size_t before = t.model().size();
    DensifyStats stats = t.densifyNow();
    EXPECT_EQ(stats.resulting_size, t.model().size());
    EXPECT_GT(t.model().size(), before);    // clones/splits happened
    // Training continues after the topology change.
    auto s = t.trainSteps(2);
    EXPECT_GT(s.back().adam_updated, 0u);
}

TEST(DensifyTraining, ClmRebuildsOffloadStateAndStaysEquivalent)
{
    TrainFixture f;
    DensifyConfig dc;
    dc.grad_threshold = 1e-7f;

    GpuOnlyTrainer gpu(makeTrainee(f.gt, 200, 11), f.cameras, f.gt_images,
                       f.config);
    ClmTrainer clm(makeTrainee(f.gt, 200, 11), f.cameras, f.gt_images,
                   f.config);
    gpu.enableDensification(dc);
    clm.enableDensification(dc);

    std::vector<int> ids{0, 2, 4, 6};
    gpu.trainBatch(ids);
    clm.trainBatch(ids);
    DensifyStats sg = gpu.densifyNow();
    DensifyStats sc = clm.densifyNow();
    // Same observations + same seed -> same densification decisions.
    EXPECT_EQ(sg.cloned, sc.cloned);
    EXPECT_EQ(sg.split, sc.split);
    EXPECT_EQ(sg.pruned, sc.pruned);
    ASSERT_EQ(gpu.model().size(), clm.model().size());
    EXPECT_EQ(clm.pinnedBytes(),
              clm.model().size() * PinnedLayout::gradStride()
                  + kSignalSlots * kCacheLineBytes);

    // Both keep training and stay equivalent afterwards.
    std::vector<int> ids2{1, 3, 5, 7};
    gpu.trainBatch(ids2);
    clm.trainBatch(ids2);
    for (size_t i = 0; i < gpu.model().size(); i += 17) {
        EXPECT_NEAR(gpu.model().position(i).x, clm.model().position(i).x,
                    2e-4f);
    }
}

TEST(ModelIo, SaveLoadRoundTrip)
{
    Rng rng(12);
    GaussianModel m = GaussianModel::random(50, {-2, -2, -2}, {2, 2, 2},
                                            0.2f, rng);
    for (size_t i = 0; i < m.size(); ++i)
        for (int k = 0; k < kShDim; ++k)
            m.sh(i)[k] = rng.normal();
    std::string path = "/tmp/clm_test_checkpoint.bin";
    saveModel(m, path);
    GaussianModel loaded = loadModel(path);
    ASSERT_EQ(loaded.size(), m.size());
    for (size_t i = 0; i < m.size(); ++i) {
        EXPECT_FLOAT_EQ(loaded.position(i).x, m.position(i).x);
        EXPECT_FLOAT_EQ(loaded.logScale(i).y, m.logScale(i).y);
        EXPECT_FLOAT_EQ(loaded.rotation(i).z, m.rotation(i).z);
        EXPECT_FLOAT_EQ(loaded.sh(i)[47], m.sh(i)[47]);
        EXPECT_FLOAT_EQ(loaded.rawOpacity(i), m.rawOpacity(i));
    }
    std::remove(path.c_str());
}

TEST(ModelIo, RejectsGarbageFiles)
{
    std::string path = "/tmp/clm_test_garbage.bin";
    std::FILE *file = std::fopen(path.c_str(), "wb");
    std::fputs("not a checkpoint", file);
    std::fclose(file);
    EXPECT_ANY_THROW(loadModel(path));
    EXPECT_ANY_THROW(loadModel("/nonexistent/path/x.bin"));
    std::remove(path.c_str());
}

TEST(ModelIo, RejectsHeaderCountBeyondFileSize)
{
    // A bare 16-byte header claiming 2^40 rows: the count is checked
    // against the file size before any row is allocated (2^40 rows
    // would need ~236 TiB).
    std::string path = "/tmp/clm_test_hostile_count.bin";
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const char magic[4] = {'C', 'L', 'M', 'G'};
    const uint32_t version = 1;
    const uint64_t count = uint64_t(1) << 40;
    std::fwrite(magic, 1, sizeof(magic), file);
    std::fwrite(&version, sizeof(version), 1, file);
    std::fwrite(&count, sizeof(count), 1, file);
    std::fclose(file);
    EXPECT_THROW(loadModel(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(ModelIo, PlyExportHasHeaderAndRows)
{
    Rng rng(13);
    GaussianModel m = GaussianModel::random(10, {-1, -1, -1}, {1, 1, 1},
                                            0.1f, rng);
    std::string path = "/tmp/clm_test_points.ply";
    exportPly(m, path);
    std::FILE *file = std::fopen(path.c_str(), "r");
    ASSERT_NE(file, nullptr);
    char line[256];
    ASSERT_NE(std::fgets(line, sizeof(line), file), nullptr);
    EXPECT_STREQ(line, "ply\n");
    int lines = 0;
    while (std::fgets(line, sizeof(line), file))
        ++lines;
    std::fclose(file);
    // 10 more header lines (format, element, 7 properties, end_header)
    // + 10 vertex rows.
    EXPECT_EQ(lines, 10 + 10);
    std::remove(path.c_str());
}


TEST(LrSchedule, PositionLrDecaysExponentially)
{
    AdamConfig cfg;
    cfg.lr_position = 1.6e-4f;
    cfg.lr_position_final = 1.6e-6f;
    cfg.position_lr_max_steps = 100;
    cfg.parallel = false;
    CpuAdam adam(cfg);
    adam.reset(1);
    GaussianModel m(1);
    GaussianGrads g;
    g.resize(1);
    g.d_position[0] = {1.0f, 0, 0};

    // With a constant gradient, Adam's bias-corrected step magnitude
    // approaches lr; later steps must therefore shrink with the
    // schedule. Compare early vs late step sizes.
    float prev = m.position(0).x;
    adam.updateSubset(m, g, {0});
    float early_step = std::abs(m.position(0).x - prev);
    for (int t = 0; t < 120; ++t)
        adam.updateSubset(m, g, {0});
    prev = m.position(0).x;
    adam.updateSubset(m, g, {0});
    float late_step = std::abs(m.position(0).x - prev);
    EXPECT_LT(late_step, early_step / 20.0f);    // ~100x LR decay

    // Disabled schedule keeps the step size flat.
    AdamConfig flat = cfg;
    flat.lr_position_final = flat.lr_position;
    CpuAdam adam2(flat);
    adam2.reset(1);
    GaussianModel m2(1);
    adam2.updateSubset(m2, g, {0});
    float first = std::abs(m2.position(0).x);
    for (int t = 0; t < 120; ++t)
        adam2.updateSubset(m2, g, {0});
    prev = m2.position(0).x;
    adam2.updateSubset(m2, g, {0});
    EXPECT_NEAR(std::abs(m2.position(0).x - prev), first, first * 0.2f);
}

TEST(ShRamp, DegreeIncreasesWithBatches)
{
    TrainFixture f;
    TrainConfig cfg = f.config;
    cfg.render.sh_degree = 2;
    cfg.sh_degree_interval = 2;    // +1 degree every 2 batches
    GpuOnlyTrainer t(makeTrainee(f.gt, 200, 30), f.cameras, f.gt_images,
                     cfg);
    EXPECT_EQ(t.activeShDegree(), 0);
    t.trainSteps(2);
    EXPECT_EQ(t.activeShDegree(), 1);
    t.trainSteps(2);
    EXPECT_EQ(t.activeShDegree(), 2);
    t.trainSteps(4);
    EXPECT_EQ(t.activeShDegree(), 2);    // capped at render.sh_degree
}

TEST(AttributeOffload, GatherTakesCriticalFromMasterNonCriticalFromBuffer)
{
    // The §4.1 split at the gather: a compact row's critical attributes
    // come from the master model's row (the resident set the cull also
    // reads), its non-critical ones only from the staged buffer row.
    // Buffer rows hold markers that differ from every master
    // non-critical value, so reading either half from the wrong place
    // breaks bitwise equality.
    const GaussianModel model =
        generateGroundTruth(SceneSpec::bicycle(), 300);

    // Bind every third row; gather every sixth, so the merge walk must
    // skip bound rows the set does not hold.
    std::vector<uint32_t> bound, set;
    for (uint32_t g = 0; g < model.size(); g += 3) {
        bound.push_back(g);
        if (g % 6 == 0)
            set.push_back(g);
    }
    DeviceBuffer buf;
    buf.bind(bound);
    for (size_t r = 0; r < buf.rows(); ++r)
        for (int k = 0; k < kNonCriticalDim; ++k)
            buf.paramRow(r)[k] =
                -1000.0f - static_cast<float>(r * kNonCriticalDim + k);

    MicrobatchSlot slot;
    gatherCompact(model, slot, buf, set);
    ASSERT_EQ(slot.compact.size(), set.size());
    ASSERT_EQ(slot.rows.size(), set.size());
    ASSERT_EQ(slot.subset.size(), set.size());
    float master[kNonCriticalDim], compact[kNonCriticalDim];
    for (size_t r = 0; r < set.size(); ++r) {
        SCOPED_TRACE("compact row " + std::to_string(r));
        const uint32_t g = set[r];
        EXPECT_EQ(slot.subset[r], r);
        ASSERT_EQ(slot.rows[r], static_cast<size_t>(buf.boundRow(g)));
        slot.compact.packNonCritical(r, compact);
        EXPECT_EQ(std::memcmp(compact, buf.paramRow(slot.rows[r]),
                              sizeof(compact)),
                  0);
        model.packNonCritical(g, master);
        EXPECT_NE(std::memcmp(compact, master, sizeof(compact)), 0);
        EXPECT_EQ(std::memcmp(&slot.compact.position(r), &model.position(g),
                              sizeof(Vec3)),
                  0);
        EXPECT_EQ(std::memcmp(&slot.compact.logScale(r), &model.logScale(g),
                              sizeof(Vec3)),
                  0);
        EXPECT_EQ(std::memcmp(&slot.compact.rotation(r), &model.rotation(g),
                              sizeof(Quat)),
                  0);
    }
    // Gradients start at zero (the backward accumulates).
    for (size_t r = 0; r < set.size(); ++r) {
        float rec[kParamsPerGaussian];
        packGradRecord(slot.grads, r, rec);
        for (float v : rec)
            EXPECT_EQ(v, 0.0f);
    }
}

TEST(Robustness, ViewWithEmptyFrustumSet)
{
    // A camera pointing away from all content: |S_i| == 0. The whole
    // pipeline (planner, buffers, rasterizer, Adam) must cope.
    TrainFixture f;
    auto cameras = f.cameras;
    cameras.push_back(Camera::lookAt({0, 0, 50}, {0, 0, 100}, {0, 1, 0},
                                     48, 48, 0.6f, 0.1f, 20.0f));
    auto gt_images = f.gt_images;
    gt_images.push_back(Image(48, 48, {0, 0, 0}));

    ClmTrainer t(makeTrainee(f.gt, 200, 31), cameras, gt_images,
                 f.config);
    int empty_view = static_cast<int>(cameras.size()) - 1;
    BatchStats s = t.trainBatch({0, empty_view, 2, empty_view});
    EXPECT_GT(s.adam_updated, 0u);
    // And a batch of only empty views updates nothing but still runs.
    BatchStats s2 = t.trainBatch({empty_view, empty_view});
    EXPECT_EQ(s2.adam_updated, 0u);
    EXPECT_EQ(s2.gaussians_rendered, 0u);
}

} // namespace
} // namespace clm
