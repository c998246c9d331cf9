/**
 * @file
 * Serving-subsystem tests: the fused batch cull against per-view
 * frustumCull (exact membership in every build flavor), the fused
 * multi-view forward against per-view renderForward batches of one
 * (bitwise, SIMD and scalar configs, mixed resolutions, arena reuse),
 * model snapshots
 * (versioning, hashing, buffer reuse), and the RenderService end to end
 * — including snapshot-swap-under-load: every served frame must be
 * reproducible from exactly the published snapshot it claims, which a
 * torn read could not satisfy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "math/rng.hpp"
#include "render/batch.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"
#include "serve/render_service.hpp"
#include "serve/snapshot.hpp"
#include "train/clm_trainer.hpp"
#include "train/naive_offload_trainer.hpp"
#include "train/quality_harness.hpp"

namespace clm {
namespace {

/** Bitwise comparison of two forward-pass outputs. */
void
expectOutputsIdentical(const RenderOutput &a, const RenderOutput &b)
{
    ASSERT_EQ(a.image.width(), b.image.width());
    ASSERT_EQ(a.image.height(), b.image.height());
    EXPECT_EQ(a.image.data(), b.image.data());
    EXPECT_EQ(a.final_t, b.final_t);
    EXPECT_EQ(a.n_contrib, b.n_contrib);
    EXPECT_EQ(a.isect_vals, b.isect_vals);
    ASSERT_EQ(a.tile_ranges.size(), b.tile_ranges.size());
    for (size_t t = 0; t < a.tile_ranges.size(); ++t) {
        EXPECT_EQ(a.tile_ranges[t].begin, b.tile_ranges[t].begin);
        EXPECT_EQ(a.tile_ranges[t].end, b.tile_ranges[t].end);
    }
    EXPECT_EQ(a.tiles_x, b.tiles_x);
    EXPECT_EQ(a.tiles_y, b.tiles_y);
}

struct BatchFixture
{
    GaussianModel model;
    std::vector<Camera> cameras;

    explicit BatchFixture(size_t n_gaussians = 1500, int width = 96,
                          int height = 61)
    {
        SceneSpec spec = SceneSpec::bicycle();
        model = generateSceneGaussians(spec, n_gaussians);
        cameras = generateCameraPath(spec, 6, width, height);
    }
};

TEST(FrustumCullBatch, MatchesPerViewCullExactly)
{
    BatchFixture fix;
    BatchCullScratch stage;
    buildCullStage(fix.model, stage);
    for (size_t batch : {size_t(1), size_t(3), size_t(5)}) {
        std::vector<Camera> cams(fix.cameras.begin(),
                                 fix.cameras.begin() + batch);
        std::vector<std::vector<uint32_t>> subsets;
        frustumCullBatch(fix.model, cams, stage, subsets);
        ASSERT_EQ(subsets.size(), batch);
        for (size_t v = 0; v < batch; ++v)
            EXPECT_EQ(subsets[v], frustumCull(fix.model, cams[v]))
                << "batch " << batch << " view " << v;
    }
}

TEST(FrustumCullBatch, SerialAndParallelIdentical)
{
    BatchFixture fix;
    std::vector<Camera> cams(fix.cameras.begin(), fix.cameras.begin() + 4);
    BatchCullScratch s1, s2;
    buildCullStage(fix.model, s1, /*parallel=*/false);
    buildCullStage(fix.model, s2, /*parallel=*/true);
    EXPECT_EQ(s1.row_of_lane, s2.row_of_lane);
    std::vector<std::vector<uint32_t>> a, b;
    frustumCullBatch(fix.model, cams, s1, a, /*parallel=*/false);
    frustumCullBatch(fix.model, cams, s2, b, /*parallel=*/true);
    EXPECT_EQ(a, b);
}

/** Cull @p model through a fresh stage, expect frustumCull's sets and
 *  return them. */
std::vector<std::vector<uint32_t>>
expectStageMatchesFrustumCull(const GaussianModel &model,
                              const std::vector<Camera> &cams)
{
    BatchCullScratch stage;
    buildCullStage(model, stage);
    std::vector<std::vector<uint32_t>> subsets;
    frustumCullBatch(model, cams, stage, subsets);
    EXPECT_EQ(subsets.size(), cams.size());
    for (size_t v = 0; v < cams.size(); ++v)
        EXPECT_EQ(subsets[v], frustumCull(model, cams[v])) << "view " << v;
    return subsets;
}

TEST(CullStage, ChunkedCullMatchesFrustumCullOnEveryScene)
{
    for (const SceneSpec &spec : SceneSpec::all()) {
        SCOPED_TRACE(spec.name);
        GaussianModel m = generateSceneGaussians(spec, 6000);
        expectStageMatchesFrustumCull(
            m, generateCameraPath(spec, 6, spec.sim.width,
                                  spec.sim.height));
    }
}

TEST(CullStage, ChunkBoundsPruneMostChunksOnSparseScenes)
{
    // The Morton order keeps chunks spatially tight: on BigCity a view
    // reaches only a few percent of the model, so most chunk boxes
    // (grown by their largest bounding radius) lie wholly outside some
    // frustum plane — the chunks the culler skips without a sweep.
    SceneSpec spec = SceneSpec::bigCity();
    GaussianModel m = generateSceneGaussians(spec, 20000);
    BatchCullScratch stage;
    buildCullStage(m, stage);
    ASSERT_EQ(stage.chunks.size(),
              (m.size() + kCullChunkLanes - 1) / kCullChunkLanes);
    const Camera cam = generateCameraPath(spec, 4, 64, 48)[0];
    size_t outside = 0;
    for (const BatchCullScratch::Chunk &ch : stage.chunks) {
        for (int j = 0; j < 6; ++j) {
            const Plane &pl = cam.frustum().plane(j);
            const Vec3 corner{pl.n.x >= 0 ? ch.box.hi.x : ch.box.lo.x,
                              pl.n.y >= 0 ? ch.box.hi.y : ch.box.lo.y,
                              pl.n.z >= 0 ? ch.box.hi.z : ch.box.lo.z};
            if (pl.signedDistance(corner) < ch.min_thresh) {
                ++outside;
                break;
            }
        }
    }
    EXPECT_GT(outside, stage.chunks.size() * 3 / 4);
}

TEST(CullStage, EmptyAndSingletonModels)
{
    Camera cam = Camera::lookAt({0, 0, 0}, {0, 0, 5}, {0, 1, 0}, 32, 32,
                                1.0f);
    GaussianModel empty;
    BatchCullScratch stage;
    buildCullStage(empty, stage);
    EXPECT_EQ(stage.size(), 0u);
    EXPECT_TRUE(stage.chunks.empty());
    std::vector<std::vector<uint32_t>> subsets;
    frustumCullBatch(empty, {cam, cam}, stage, subsets);
    ASSERT_EQ(subsets.size(), 2u);
    EXPECT_TRUE(subsets[0].empty());
    EXPECT_TRUE(subsets[1].empty());
    refreshCullStage(empty, {}, stage);

    GaussianModel one(1);
    one.position(0) = {0, 0, 3};
    one.logScale(0) = {-1, -1, -1};
    one.rotation(0) = {1, 0, 0, 0};
    buildCullStage(one, stage);    // the same stage, rebuilt
    frustumCullBatch(one, {cam}, stage, subsets);
    EXPECT_EQ(subsets[0], (std::vector<uint32_t>{0}));
    // Behind the camera: culled, through the refresh path.
    one.position(0) = {0, 0, -3};
    refreshCullStage(one, {0}, stage);
    frustumCullBatch(one, {cam}, stage, subsets);
    EXPECT_TRUE(subsets[0].empty());
}

/** A BigCity model salted with degenerate rows: NaN and Inf positions
 *  and log-scales, zero (log-scale -inf) and huge scales, zero and
 *  far-from-unit quaternions — spread over many chunks. */
GaussianModel
degenerateModel(size_t n, uint64_t seed)
{
    SceneSpec spec = SceneSpec::bigCity();
    GaussianModel m = generateSceneGaussians(spec, n);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    Rng rng(seed);
    for (size_t i = 0; i < n; i += 1 + rng.uniformInt(0, 40)) {
        switch (rng.uniformInt(0, 9)) {
          case 0: m.position(i).x = nan; break;
          case 1: m.position(i).z = -inf; break;
          case 2: m.logScale(i).y = nan; break;
          case 3: m.logScale(i) = {inf, 0, 0}; break;
          case 4: m.logScale(i) = {-inf, -inf, -inf}; break;    // zero
          case 5: m.logScale(i) = {95, 1, 1}; break;    // exp overflows
          case 6: m.logScale(i) = {30, 30, 30}; break;  // ~1e13
          case 7: m.rotation(i) = {0, 0, 0, 0}; break;
          case 8: m.rotation(i) = {40, -3, 7, 0.5f}; break;
          default: m.position(i) = {3e30f, -2e35f, 1e38f}; break;
        }
    }
    return m;
}

TEST(CullStage, DegenerateRowsMatchFrustumCull)
{
    SceneSpec spec = SceneSpec::bigCity();
    GaussianModel m = degenerateModel(9000, 3);
    std::vector<Camera> cams =
        generateCameraPath(spec, 5, spec.sim.width, spec.sim.height);
    // A camera inside a large ellipsoid: the row is in every plane's
    // half-space reach.
    const Vec3 eye = m.position(17);
    m.logScale(17) = {2, 2, 2};
    m.rotation(17) = {0.3f, 0.5f, -0.2f, 0.9f};
    cams.push_back(Camera::lookAt(eye, eye + Vec3{0, 0, 1}, {0, 1, 0}, 48,
                                  32, 1.0f));
    const std::vector<std::vector<uint32_t>> subsets =
        expectStageMatchesFrustumCull(m, cams);
    EXPECT_TRUE(std::binary_search(subsets.back().begin(),
                                   subsets.back().end(), 17u));
}

/** Every row's lane in @p a holds the same bytes as its lane in @p b. */
void
expectLanesEqual(const BatchCullScratch &a, const BatchCullScratch &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const uint32_t la = a.lane_of_row[i], lb = b.lane_of_row[i];
        ASSERT_EQ(a.row_of_lane[la], i);
        const float va[4] = {a.cx[la], a.cy[la], a.cz[la],
                             a.neg_thresh[la]};
        const float vb[4] = {b.cx[lb], b.cy[lb], b.cz[lb],
                             b.neg_thresh[lb]};
        ASSERT_EQ(std::memcmp(va, vb, sizeof(va)), 0) << "row " << i;
    }
}

TEST(CullStage, RefreshAfterRowMutationsEqualsFreshBuild)
{
    // Rows move across the scene, drift slightly, turn NaN and come
    // back; after each round the refreshed stage (built once, lane order
    // kept) must hold exactly a fresh build's lane values and cull the
    // same sets as a fresh build and the linear sweep.
    SceneSpec spec = SceneSpec::bigCity();
    GaussianModel m = generateSceneGaussians(spec, 8000);
    std::vector<Camera> cams =
        generateCameraPath(spec, 6, spec.sim.width, spec.sim.height);
    BatchCullScratch refreshed;
    buildCullStage(m, refreshed);
    Rng rng(11);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (int round = 0; round < 6; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        std::vector<uint32_t> rows;
        for (uint32_t i = 0; i < m.size(); ++i) {
            const bool all = round == 3;    // parameter drift everywhere
            if (!all && rng.uniform() > 0.1f)
                continue;
            rows.push_back(i);
            switch (all ? 1 : rng.uniformInt(0, 3)) {
              case 0:    // across the scene
                m.position(i) = rng.uniformInBox(spec.world_lo,
                                                 spec.world_hi);
                break;
              case 1:    // drift
                m.position(i) += rng.normal3({0, 0, 0}, 0.5f);
                m.logScale(i).x += rng.uniform(-0.5f, 0.5f);
                break;
              case 2:    // non-finite
                m.position(i).y = nan;
                break;
              default:    // back to a finite, rotated state
                m.position(i) = rng.uniformInBox(spec.world_lo,
                                                 spec.world_hi);
                m.rotation(i) = {rng.uniform(-1, 1), rng.uniform(-1, 1),
                                 rng.uniform(-1, 1), rng.uniform(-1, 1)};
                break;
            }
        }
        std::shuffle(rows.begin(), rows.end(), rng.engine());
        refreshCullStage(m, rows, refreshed, round % 2 == 0);

        BatchCullScratch fresh;
        buildCullStage(m, fresh);
        expectLanesEqual(refreshed, fresh);
        std::vector<std::vector<uint32_t>> a, b;
        frustumCullBatch(m, cams, refreshed, a);
        frustumCullBatch(m, cams, fresh, b);
        EXPECT_EQ(a, b);
        for (size_t v = 0; v < cams.size(); ++v)
            EXPECT_EQ(a[v], frustumCull(m, cams[v])) << "view " << v;
    }
}

/** A small Bicycle training setup whose large position and scale steps
 *  move rows across view boundaries every batch, so a cull stage that
 *  lagged the model by one batch would change some view's set. */
struct MovingTrainFixture
{
    std::vector<Camera> cams;
    std::vector<Image> gt_images;
    GaussianModel trainee;
    TrainConfig cfg;

    MovingTrainFixture()
    {
        SceneSpec spec = SceneSpec::bicycle();
        spec.train = {700, 8, 48, 48};
        GaussianModel gt = generateGroundTruth(spec, 700);
        cams = trainCameras(spec);
        cfg.batch_size = 4;
        cfg.render.sh_degree = 1;
        cfg.loss.ssim_window = 5;
        cfg.async_adam = true;
        cfg.adam.lr_position = cfg.adam.lr_position_final = 0.05f;
        cfg.adam.lr_log_scale = 0.2f;
        gt_images = renderGroundTruth(gt, cams, cfg.render);
        trainee = makeTrainee(gt, 300, 9);
    }

    static std::vector<int> batch(int step)
    {
        return {step % 8, (step + 3) % 8, (step + 5) % 8, (step + 6) % 8};
    }
};

TEST(CullStage, ClmTrainerPlanSetsEqualFrustumCull)
{
    // Trainer level: with async Adam and densification, every batch's
    // microbatch sets (rebuilt from the cache plan: loaded plus cached
    // rows) equal frustumCull of the model the batch started from, so
    // the incrementally refreshed stage never lags the master model.
    MovingTrainFixture f;
    ClmTrainer t(f.trainee, f.cams, f.gt_images, f.cfg);
    DensifyConfig dc;
    dc.grad_threshold = 1e-7f;
    t.enableDensification(dc);
    size_t sizes_seen = 0;
    for (int step = 0; step < 6; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        if (step == 2 || step == 4) {
            const size_t before = t.model().size();
            t.densifyNow();
            sizes_seen += t.model().size() != before;
        }
        const GaussianModel before = t.model();
        const std::vector<int> ids = MovingTrainFixture::batch(step);
        t.trainBatch(ids);
        const BatchSchedule &plan = t.lastPlan();
        ASSERT_EQ(plan.order.size(), ids.size());
        for (size_t k = 0; k < ids.size(); ++k) {
            const MicrobatchTransfers &mb = plan.cache.mb[k];
            std::vector<uint32_t> set = mb.load_new;
            set.insert(set.end(), mb.copy_cached.begin(),
                       mb.copy_cached.end());
            std::sort(set.begin(), set.end());
            EXPECT_EQ(set, frustumCull(before, f.cams[ids[plan.order[k]]]))
                << "microbatch " << k;
        }
    }
    EXPECT_GT(sizes_seen, 0u);    // densification changed the topology
}

/** Train @p t over MovingTrainFixture's batches with a densification
 *  before step @p densify_step: every batch must render exactly
 *  frustumCull's sets of the model it started from — their total size
 *  and their union, the Adam subset. */
void
expectTrainerCullsTheCurrentModel(Trainer &t, const MovingTrainFixture &f,
                                  int densify_step)
{
    DensifyConfig dc;
    dc.grad_threshold = 1e-7f;
    t.enableDensification(dc);
    size_t sizes_seen = 0;
    for (int step = 0; step < 6; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        if (step == densify_step) {
            const size_t before = t.model().size();
            t.densifyNow();
            sizes_seen += t.model().size() != before;
        }
        const GaussianModel before = t.model();
        const std::vector<int> ids = MovingTrainFixture::batch(step);
        size_t total = 0;
        std::vector<uint32_t> all;
        for (int v : ids) {
            const std::vector<uint32_t> s = frustumCull(before, f.cams[v]);
            total += s.size();
            all.insert(all.end(), s.begin(), s.end());
        }
        std::sort(all.begin(), all.end());
        all.erase(std::unique(all.begin(), all.end()), all.end());
        const BatchStats stats = t.trainBatch(ids);
        EXPECT_EQ(stats.gaussians_rendered, total);
        EXPECT_EQ(stats.adam_updated, all.size());
    }
    EXPECT_GT(sizes_seen, 0u);    // densification changed the topology
}

TEST(CullStage, GpuOnlyTrainerCullsTheCurrentModel)
{
    // The GPU-only trainer marks each batch's Adam subset dirty for the
    // next cull's refresh.
    MovingTrainFixture f;
    GpuOnlyTrainer t(f.trainee, f.cams, f.gt_images, f.cfg);
    expectTrainerCullsTheCurrentModel(t, f, 3);
}

TEST(CullStage, NaiveOffloadTrainerCullsTheCurrentModel)
{
    // The naive trainer's finalization (on the async Adam thread here)
    // marks the rows it updated dirty for the next cull's refresh.
    MovingTrainFixture f;
    NaiveOffloadTrainer t(f.trainee, f.cams, f.gt_images, f.cfg);
    expectTrainerCullsTheCurrentModel(t, f, 3);
}

void
checkBatchAgainstSequential(const BatchFixture &fix,
                            const std::vector<Camera> &cams,
                            const RenderConfig &cfg)
{
    std::vector<std::vector<uint32_t>> subsets(cams.size());
    for (size_t v = 0; v < cams.size(); ++v)
        subsets[v] = frustumCull(fix.model, cams[v]);

    RenderArena batch_arena;
    renderForwardBatch(fix.model, cams, subsets, cfg, batch_arena);

    for (size_t v = 0; v < cams.size(); ++v) {
        RenderOutput seq =
            renderForward(fix.model, cams[v], subsets[v], cfg);
        SCOPED_TRACE("view " + std::to_string(v));
        expectOutputsIdentical(batch_arena.views[v].out, seq);
    }
}

TEST(RenderForwardBatch, BitwiseIdenticalToSequentialSimd)
{
    BatchFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 2;
    // B=3, and the one-view batch every lone serving request renders as.
    for (size_t b : {size_t(3), size_t(1)}) {
        SCOPED_TRACE("batch " + std::to_string(b));
        std::vector<Camera> cams(fix.cameras.begin(),
                                 fix.cameras.begin() + b);
        checkBatchAgainstSequential(fix, cams, cfg);
    }
}

TEST(RenderForwardBatch, MixedResolutionsAndEmptySubset)
{
    BatchFixture fix;
    std::vector<Camera> cams;
    cams.push_back(fix.cameras[0]);
    // A different resolution in the same batch (different tile grid).
    cams.push_back(Camera::lookAt(Vec3{6, 0, 2}, Vec3{0, 0, 1},
                                  Vec3{0, 0, 1}, 64, 48, 0.9f, 0.05f,
                                  11.0f));
    // Looking straight away from the scene: empty subset.
    cams.push_back(Camera::lookAt(Vec3{40, 0, 2}, Vec3{80, 0, 2},
                                  Vec3{0, 0, 1}, 48, 32, 0.9f, 0.05f,
                                  11.0f));
    RenderConfig cfg;
    cfg.sh_degree = 1;
    std::vector<std::vector<uint32_t>> subsets(cams.size());
    for (size_t v = 0; v < cams.size(); ++v)
        subsets[v] = frustumCull(fix.model, cams[v]);
    EXPECT_TRUE(subsets[2].empty());

    RenderArena arena;
    renderForwardBatch(fix.model, cams, subsets, cfg, arena);
    for (size_t v = 0; v < cams.size(); ++v) {
        RenderOutput seq =
            renderForward(fix.model, cams[v], subsets[v], cfg);
        SCOPED_TRACE("view " + std::to_string(v));
        expectOutputsIdentical(arena.views[v].out, seq);
    }
}

TEST(RenderForwardBatch, AllSubsetsEmptyRendersBackgrounds)
{
    // Regression: a coalesced batch whose every view sees no Gaussians
    // must render plain backgrounds (the flat pair list is empty; the
    // view-probe of each fused pass has nothing to walk).
    BatchFixture fix(200);
    std::vector<Camera> cams;
    for (int v = 0; v < 3; ++v)
        cams.push_back(Camera::lookAt(Vec3{40.0f + v, 0, 2},
                                      Vec3{80, 0, 2}, Vec3{0, 0, 1}, 48,
                                      32, 0.9f, 0.05f, 11.0f));
    RenderConfig cfg;
    cfg.background = {0.25f, 0.5f, 0.75f};
    std::vector<std::vector<uint32_t>> subsets(cams.size());
    for (size_t v = 0; v < cams.size(); ++v) {
        subsets[v] = frustumCull(fix.model, cams[v]);
        ASSERT_TRUE(subsets[v].empty());
    }
    RenderArena arena;
    renderForwardBatch(fix.model, cams, subsets, cfg, arena);
    for (size_t v = 0; v < cams.size(); ++v) {
        RenderOutput seq =
            renderForward(fix.model, cams[v], subsets[v], cfg);
        SCOPED_TRACE("view " + std::to_string(v));
        expectOutputsIdentical(arena.views[v].out, seq);
        const Vec3 px = arena.views[v].out.image.pixel(0, 0);
        EXPECT_EQ(px.x, 0.25f);
        EXPECT_EQ(px.y, 0.5f);
        EXPECT_EQ(px.z, 0.75f);
    }
}

TEST(RenderForwardBatch, ArenaReuseIsBitwiseNeutral)
{
    BatchFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 2;
    RenderArena reused;
    // Render a larger batch first so every scratch buffer is dirty and
    // over-sized for the second call.
    {
        std::vector<Camera> warm(fix.cameras.begin(),
                                 fix.cameras.begin() + 4);
        std::vector<std::vector<uint32_t>> subsets(4);
        for (size_t v = 0; v < 4; ++v)
            subsets[v] = frustumCull(fix.model, warm[v]);
        renderForwardBatch(fix.model, warm, subsets, cfg, reused);
    }
    std::vector<Camera> cams(fix.cameras.begin() + 4,
                             fix.cameras.begin() + 6);
    std::vector<std::vector<uint32_t>> subsets(2);
    for (size_t v = 0; v < 2; ++v)
        subsets[v] = frustumCull(fix.model, cams[v]);
    renderForwardBatch(fix.model, cams, subsets, cfg, reused);

    RenderArena fresh;
    renderForwardBatch(fix.model, cams, subsets, cfg, fresh);
    for (size_t v = 0; v < 2; ++v) {
        SCOPED_TRACE("view " + std::to_string(v));
        expectOutputsIdentical(reused.views[v].out, fresh.views[v].out);
    }
}

TEST(SnapshotSlot, PublishesVersionsAndHashes)
{
    BatchFixture fix(300);
    SnapshotSlot slot;
    EXPECT_EQ(slot.version(), 0u);
    EXPECT_EQ(slot.acquire(), nullptr);

    slot.publish(fix.model, 0);
    auto s1 = slot.acquire();
    ASSERT_NE(s1, nullptr);
    EXPECT_EQ(s1->version, 1u);
    EXPECT_EQ(s1->train_step, 0);
    EXPECT_EQ(s1->model.size(), fix.model.size());
    EXPECT_EQ(s1->param_hash, hashModelParams(fix.model));

    // A parameter change must land in a NEW snapshot with a new hash;
    // the acquired one stays frozen.
    const uint64_t old_hash = s1->param_hash;
    fix.model.position(0).x += 1.0f;
    slot.publish(fix.model, 7);
    auto s2 = slot.acquire();
    ASSERT_NE(s2, nullptr);
    EXPECT_EQ(s2->version, 2u);
    EXPECT_EQ(s2->train_step, 7);
    EXPECT_NE(s2->param_hash, old_hash);
    EXPECT_EQ(s1->param_hash, old_hash);
    EXPECT_EQ(s1->version, 1u);
}

/** A model spanning two full 4096-row hash chunks and a partial third,
 *  filled with exactly representable values (so the pinned hash below
 *  cannot depend on floating-point contraction). */
GaussianModel
hashFixtureModel()
{
    const size_t n = 2 * 4096 + 123;
    GaussianModel m(n);
    for (size_t i = 0; i < n; ++i) {
        const float f = static_cast<float>(i % 1000);
        m.position(i) = {f * 0.5f, -f * 0.25f, f};
        m.logScale(i) = {-f * 0.125f, 0.5f, -1.0f};
        m.rotation(i) = {1.0f, f * 0.0625f, 0.0f, -0.5f};
        for (int k = 0; k < kShDim; ++k)
            m.sh(i)[k] = static_cast<float>((i * 7 + k) % 64) * 0.125f;
        m.rawOpacity(i) = f * -0.5f;
    }
    return m;
}

TEST(HashModelParams, CopyHashesEqual)
{
    const GaussianModel m = hashFixtureModel();
    const GaussianModel copy = m;
    EXPECT_EQ(hashModelParams(copy), hashModelParams(m));
    EXPECT_NE(hashModelParams(m), hashModelParams(GaussianModel()));
}

TEST(HashModelParams, AnyOneFloatChangeChangesTheHash)
{
    GaussianModel m = hashFixtureModel();
    const uint64_t base = hashModelParams(m);
    // One float in each of the five attribute arrays, in the first row,
    // mid-way through the second chunk, and in the final partial chunk.
    const size_t n = m.size();
    for (size_t row : {size_t(0), size_t(4096 + 5), n - 1}) {
        std::vector<float *> fields = {
            &m.position(row).y, &m.logScale(row).z, &m.rotation(row).w,
            &m.sh(row)[kShDim - 1], &m.rawOpacity(row)};
        for (size_t a = 0; a < fields.size(); ++a) {
            const float saved = *fields[a];
            *fields[a] = saved + 1.0f;
            EXPECT_NE(hashModelParams(m), base)
                << "array " << a << " row " << row;
            *fields[a] = saved;
        }
    }
    EXPECT_EQ(hashModelParams(m), base);
}

TEST(HashModelParams, ValueIsPinnedAtEveryThreadCount)
{
    // The chunking is fixed, so the value depends only on the
    // parameters. ctest also runs this test with CLM_THREADS=1
    // (test_serve_one_thread), which must reproduce the same constant.
    EXPECT_EQ(hashModelParams(hashFixtureModel()), 0xa38dddfb1b5d816bull);
}

TEST(SnapshotSlot, ReusesRetiredBuffersWhenUnreferenced)
{
    BatchFixture fix(200);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);
    slot.publish(fix.model, 1);
    const ModelSnapshot *retired = slot.acquire().get();
    // With no outside readers, the buffer retired by the next publish
    // must be recycled by the one after it (double buffering).
    slot.publish(fix.model, 2);
    slot.publish(fix.model, 3);
    EXPECT_EQ(slot.acquire().get(), retired);
    EXPECT_EQ(slot.acquire()->version, 4u);
}

TEST(RenderService, ServesFramesIdenticalToDirectRenders)
{
    BatchFixture fix(800);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

    ServeConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 4;
    cfg.render.sh_degree = 1;
    RenderService service(slot, cfg);

    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 12; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6]));
    for (int r = 0; r < 12; ++r) {
        RenderResponse resp = futs[r].get();
        EXPECT_EQ(resp.snapshot_version, 1u);
        EXPECT_GE(resp.batch_size, 1);
        auto subset = frustumCull(fix.model, fix.cameras[r % 6]);
        Image direct = renderForward(fix.model, fix.cameras[r % 6],
                                     subset, cfg.render)
                           .image;
        EXPECT_EQ(resp.image.data(), direct.data()) << "request " << r;
    }
    service.stop();
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.requests, 12u);
    EXPECT_GE(stats.batches, 3u);    // 12 requests, batches of <= 4
    EXPECT_LE(stats.p50_ms, stats.p99_ms);
    EXPECT_EQ(stats.min_snapshot_version, 1u);
    EXPECT_EQ(stats.max_snapshot_version, 1u);
}

TEST(RenderService, EveryBatchSizeServesDirectFramesAndCountsBatches)
{
    // One render path for every wakeup: serving the same requests with
    // max_batch 1 (every request a batch of one) and 4 must yield frames
    // equal to a direct frustumCull + renderForward, and the occupancy
    // histogram must account for every request and every batch.
    BatchFixture fix(600);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);
    constexpr int kRequests = 10;

    std::vector<Image> direct;
    RenderConfig render;
    render.sh_degree = 1;
    for (int r = 0; r < kRequests; ++r) {
        const Camera &cam = fix.cameras[r % 6];
        direct.push_back(
            renderForward(fix.model, cam, frustumCull(fix.model, cam),
                          render)
                .image);
    }

    for (int max_batch : {1, 4}) {
        SCOPED_TRACE("max_batch " + std::to_string(max_batch));
        ServeConfig cfg;
        cfg.workers = 1;    // single worker => batches actually coalesce
        cfg.max_batch = max_batch;
        cfg.render = render;
        RenderService service(slot, cfg);
        std::vector<std::future<RenderResponse>> futs;
        for (int r = 0; r < kRequests; ++r)
            futs.push_back(service.submit(fix.cameras[r % 6]));
        for (int r = 0; r < kRequests; ++r) {
            RenderResponse resp = futs[r].get();
            ASSERT_TRUE(resp.ok());
            EXPECT_LE(resp.batch_size, max_batch);
            EXPECT_EQ(resp.image.data(), direct[r].data())
                << "request " << r;
        }
        service.stop();
        ServeStats stats = service.stats();
        EXPECT_EQ(stats.requests, uint64_t(kRequests));
        ASSERT_FALSE(stats.batch_occupancy.empty());
        EXPECT_LE(stats.batch_occupancy.size(), size_t(max_batch));
        uint64_t hist_requests = 0, hist_batches = 0;
        for (size_t k = 0; k < stats.batch_occupancy.size(); ++k) {
            hist_requests += (k + 1) * stats.batch_occupancy[k];
            hist_batches += stats.batch_occupancy[k];
        }
        EXPECT_EQ(hist_requests, stats.requests);
        EXPECT_EQ(hist_batches, stats.batches);
    }
}

/**
 * Snapshot-swap-under-load: a publisher thread keeps mutating the model
 * and republishing while client threads hammer the service. Every
 * response must be bitwise reproducible from the *published* model copy
 * of the version it claims — a torn or half-published snapshot could
 * not satisfy this for any version. Runs under ASan/UBSan via
 * scripts/verify.sh like every suite.
 */
TEST(RenderService, SnapshotSwapUnderLoadIsRaceFree)
{
    BatchFixture fix(400, 64, 48);
    SnapshotSlot slot;

    // Deterministic model sequence; keep a private copy per version.
    std::map<uint64_t, GaussianModel> published;
    std::map<uint64_t, uint64_t> published_hash;
    GaussianModel work = fix.model;
    auto publish_next = [&](int step) {
        Rng rng(1000 + step);
        for (int k = 0; k < 50; ++k) {
            size_t i = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(work.size()) - 1));
            work.position(i).x += 0.01f * static_cast<float>(step % 7);
            work.rawOpacity(i) += 0.01f;
        }
        slot.publish(work, step);
        const uint64_t v = slot.version();
        published.emplace(v, work);
        published_hash[v] = hashModelParams(work);
    };
    publish_next(0);

    ServeConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 4;
    cfg.render.sh_degree = 1;
    RenderService service(slot, cfg);

    std::atomic<bool> stop_publishing{false};
    std::thread publisher([&] {
        // Capped + throttled: each publish stores a full model copy for
        // later verification, so keep the version count bounded.
        for (int step = 1; step <= 300 && !stop_publishing.load();
             ++step) {
            publish_next(step);
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
    });

    constexpr int kClients = 3;
    constexpr int kPerClient = 20;
    std::vector<RenderResponse> responses(kClients * kPerClient);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int r = 0; r < kPerClient; ++r) {
                const Camera &cam = fix.cameras[(c + r) % 6];
                responses[c * kPerClient + r] =
                    service.submit(cam).get();
            }
        });
    }
    for (auto &t : clients)
        t.join();
    stop_publishing = true;
    publisher.join();
    service.stop();

    // Verify every served frame against the recorded publish of its
    // claimed version.
    for (int c = 0; c < kClients; ++c) {
        for (int r = 0; r < kPerClient; ++r) {
            const RenderResponse &resp = responses[c * kPerClient + r];
            auto it = published.find(resp.snapshot_version);
            ASSERT_NE(it, published.end())
                << "served an unpublished version "
                << resp.snapshot_version;
            EXPECT_EQ(resp.snapshot_hash,
                      published_hash[resp.snapshot_version]);
            const Camera &cam = fix.cameras[(c + r) % 6];
            auto subset = frustumCull(it->second, cam);
            Image direct =
                renderForward(it->second, cam, subset, cfg.render).image;
            EXPECT_EQ(resp.image.data(), direct.data())
                << "client " << c << " request " << r << " version "
                << resp.snapshot_version;
        }
    }
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.requests,
              static_cast<uint64_t>(kClients * kPerClient));
    EXPECT_GE(stats.max_snapshot_version, stats.min_snapshot_version);
}

/**
 * Satellite regression: submit() after stop() must fulfill a
 * RejectedShutdown response — future::get() never throws
 * std::future_error (the old contract silently dropped the promise).
 */
TEST(RenderService, SubmitAfterStopResolvesRejectedShutdown)
{
    BatchFixture fix(300);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

    ServeConfig cfg;
    cfg.render.sh_degree = 1;
    RenderService service(slot, cfg);
    RenderResponse ok = service.submit(fix.cameras[0]).get();
    EXPECT_TRUE(ok.ok());
    service.stop();

    for (int i = 0; i < 3; ++i) {
        std::future<RenderResponse> fut = service.submit(fix.cameras[1]);
        ASSERT_TRUE(fut.valid());
        RenderResponse resp;
        EXPECT_NO_THROW(resp = fut.get());    // never std::future_error
        EXPECT_EQ(resp.status, ServeStatus::RejectedShutdown);
        EXPECT_FALSE(resp.ok());
        EXPECT_GT(resp.request_id, 0u);
        EXPECT_STREQ(serveStatusName(resp.status), "rejected_shutdown");
    }
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.rejected_shutdown, 3u);
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_EQ(stats.submitted, 4u);
}

TEST(RenderService, DropOldestEvictsStalestAndServesNewest)
{
    BatchFixture fix(400);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

    FaultPlan plan;
    plan.at(FaultPoint::WorkerStall).every_n = 1;
    plan.at(FaultPoint::WorkerStall).hold = true;
    FaultInjector faults(plan);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.queue_capacity = 3;
    cfg.render.sh_degree = 1;
    cfg.admission.shed = ShedPolicy::DropOldest;
    cfg.faults = &faults;
    RenderService service(slot, cfg);

    // Worker pinned: 6 submits through a 3-deep queue evict ids 1-3.
    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 6; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6]));
    faults.release(FaultPoint::WorkerStall);
    for (int r = 0; r < 6; ++r) {
        RenderResponse resp = futs[r].get();
        if (r < 3) {
            EXPECT_EQ(resp.status, ServeStatus::ShedQueueFull)
                << "request " << r;
        } else {
            ASSERT_TRUE(resp.ok()) << "request " << r;
            // Admitted frames stay bitwise identical to direct renders.
            auto subset = frustumCull(fix.model, fix.cameras[r % 6]);
            Image direct = renderForward(fix.model, fix.cameras[r % 6],
                                         subset, cfg.render)
                               .image;
            EXPECT_EQ(resp.image.data(), direct.data());
        }
    }
    service.stop();
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.shed_queue_full, 3u);
    EXPECT_EQ(stats.requests, 3u);
}

TEST(RenderService, DeadlineExpiredRequestsAreShedAtDequeue)
{
    BatchFixture fix(400);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

    FaultPlan plan;
    plan.at(FaultPoint::WorkerStall).every_n = 1;
    plan.at(FaultPoint::WorkerStall).hold = true;
    FaultInjector faults(plan);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.render.sh_degree = 1;
    cfg.admission.deadline_s = 0.02;
    cfg.faults = &faults;
    RenderService service(slot, cfg);

    // Queue 6 requests behind a pinned worker, outlive their deadline,
    // then release: the sweep fails all of them without rendering.
    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 6; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6]));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    faults.release(FaultPoint::WorkerStall);
    for (auto &f : futs) {
        RenderResponse resp = f.get();
        EXPECT_EQ(resp.status, ServeStatus::ShedDeadline);
        EXPECT_GE(resp.queue_s, 0.02);
    }
    // The service is still healthy: a fresh request renders Ok.
    RenderResponse fresh = service.submit(fix.cameras[0]).get();
    EXPECT_TRUE(fresh.ok());
    service.stop();
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.shed_deadline, 6u);
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_EQ(stats.submitted, 7u);
}

TEST(RenderService, TokenBucketThrottlesPerClientDeterministically)
{
    BatchFixture fix(300);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.render.sh_degree = 1;
    // No refill: exactly the first burst=2 requests per client admit —
    // the deterministic fairness configuration.
    cfg.admission.client_burst = 2;
    cfg.admission.client_rate = 0;
    RenderService service(slot, cfg);

    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 4; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6],
                                      /*client_id=*/10));
    for (int r = 0; r < 3; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6],
                                      /*client_id=*/20));
    std::vector<ServeStatus> statuses;
    for (auto &f : futs)
        statuses.push_back(f.get().status);
    // Client 10: 2 admitted then 2 throttled; client 20: 2 then 1 —
    // one client's burst never eats another's.
    EXPECT_EQ(statuses,
              (std::vector<ServeStatus>{
                  ServeStatus::Ok, ServeStatus::Ok,
                  ServeStatus::ThrottledClient,
                  ServeStatus::ThrottledClient, ServeStatus::Ok,
                  ServeStatus::Ok, ServeStatus::ThrottledClient}));
    service.stop();
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.throttled_client, 3u);
    EXPECT_EQ(stats.requests, 4u);

    // With a refill rate, a drained bucket recovers.
    SnapshotSlot slot2;
    slot2.publish(fix.model, 0);
    ServeConfig cfg2 = cfg;
    cfg2.admission.client_burst = 1;
    cfg2.admission.client_rate = 200;    // 1 token per 5 ms
    RenderService service2(slot2, cfg2);
    EXPECT_TRUE(service2.submit(fix.cameras[0], 1).get().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    EXPECT_TRUE(service2.submit(fix.cameras[1], 1).get().ok());
    service2.stop();
}

TEST(RenderService, BlockTimeoutShedsInsteadOfWaitingForever)
{
    BatchFixture fix(300);
    SnapshotSlot slot;
    slot.publish(fix.model, 0);

    FaultPlan plan;
    plan.at(FaultPoint::WorkerStall).every_n = 1;
    plan.at(FaultPoint::WorkerStall).hold = true;
    FaultInjector faults(plan);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 2;
    cfg.queue_capacity = 2;
    cfg.render.sh_degree = 1;
    cfg.admission.shed = ShedPolicy::Block;
    cfg.admission.block_timeout_s = 0.01;
    cfg.faults = &faults;
    RenderService service(slot, cfg);

    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 3; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6]));
    // The third submit waited its 10 ms window against a pinned worker
    // and shed; it did NOT hang the caller.
    EXPECT_EQ(futs[2].get().status, ServeStatus::ShedQueueFull);
    faults.release(FaultPoint::WorkerStall);
    EXPECT_TRUE(futs[0].get().ok());
    EXPECT_TRUE(futs[1].get().ok());
    service.stop();
}

} // namespace
} // namespace clm
