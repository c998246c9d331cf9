/**
 * @file
 * Gradient checks: the analytic backward pass of the full differentiable
 * pipeline (rasterizer -> projection -> SH/covariance/opacity) and of the
 * L1 + D-SSIM loss are validated against central finite differences.
 * The fused multi-view backward (renderBackwardBatch) must accumulate
 * gradients bitwise identical to per-view batches of one replayed in
 * view order — batched == per-view, parallel == serial, retained ==
 * re-staged staging, under the dispatched and forced-scalar kernel
 * tables. A compact copy of a view's subset rendered over {0..k-1} (the
 * offload trainers' microbatch buffer) must match the full-model render
 * bitwise.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <vector>

#include "math/rng.hpp"
#include "offload/transfer_engine.hpp"
#include "render/arena.hpp"
#include "render/batch.hpp"
#include "render/camera.hpp"
#include "render/culling.hpp"
#include "render/loss.hpp"
#include "render/rasterizer.hpp"
#include "render/simd_kernels.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"

namespace clm {
namespace {

Camera
testCamera(int wh = 24)
{
    return Camera::lookAt({0, 0, 0}, {0, 0, 10}, {0, 1, 0}, wh, wh, 1.0f,
                          0.1f, 100.0f);
}

/** A well-conditioned random scene away from clamp boundaries. */
GaussianModel
fdScene(size_t n, uint64_t seed)
{
    Rng rng(seed);
    GaussianModel m(n);
    constexpr float kY0 = 0.28209479177387814f;
    for (size_t i = 0; i < n; ++i) {
        m.position(i) = {rng.uniform(-2.0f, 2.0f),
                         rng.uniform(-2.0f, 2.0f),
                         rng.uniform(4.0f, 9.0f)};
        float ls = std::log(rng.uniform(0.3f, 0.7f));
        m.logScale(i) = {ls + rng.normal(0.0f, 0.15f),
                         ls + rng.normal(0.0f, 0.15f),
                         ls + rng.normal(0.0f, 0.15f)};
        Vec3 axis{rng.normal(), rng.normal(), rng.normal()};
        m.rotation(i) = Quat::fromAxisAngle(
            axis.norm() > 1e-5f ? axis : Vec3{0, 0, 1},
            rng.uniform(0.0f, 3.0f));
        // Mid-range colors keep the SH clamp inactive.
        m.sh(i)[0] = (rng.uniform(0.35f, 0.75f) - 0.5f) / kY0;
        m.sh(i)[1] = (rng.uniform(0.35f, 0.75f) - 0.5f) / kY0;
        m.sh(i)[2] = (rng.uniform(0.35f, 0.75f) - 0.5f) / kY0;
        for (int k = 3; k < kShDim; ++k)
            m.sh(i)[k] = rng.normal(0.0f, 0.03f);
        m.rawOpacity(i) = inverseSigmoid(rng.uniform(0.4f, 0.75f));
    }
    return m;
}

Image
fdGroundTruth(int wh, uint64_t seed)
{
    Rng rng(seed);
    Image gt(wh, wh);
    for (int y = 0; y < wh; ++y)
        for (int x = 0; x < wh; ++x)
            gt.setPixel(x, y, {0.5f + 0.3f * std::sin(0.4f * x),
                               0.5f + 0.3f * std::cos(0.3f * y),
                               rng.uniform(0.3f, 0.7f)});
    return gt;
}

/**
 * The renderer backward is checked against a *smooth* random linear
 * functional L = sum_ij w_ij . image_ij, so finite differences are exact.
 * (The L1 term of the real loss has sign kinks that make FD unreliable;
 * the loss backward has its own dedicated FD test below.)
 */
struct Pipeline
{
    Camera cam = testCamera();
    RenderConfig render;
    Image weights = fdGroundTruth(24, 99);    // random smooth weights
    std::vector<uint32_t> subset;

    explicit Pipeline(size_t n, int sh_degree = 3)
    {
        render.sh_degree = sh_degree;
        render.background = {0.1f, 0.1f, 0.1f};
        // The production thresholds (1/255 alpha cut, early termination)
        // and the 3-sigma tile truncation are step discontinuities; FD
        // across them measures the jump, not the gradient. Relax the
        // thresholds and use a larger eps so the jumps' contribution is
        // negligible relative to the smooth gradient.
        render.alpha_min = 1e-6f;
        render.transmittance_min = 1e-9f;
        for (size_t i = 0; i < n; ++i)
            subset.push_back(static_cast<uint32_t>(i));
    }

    double
    forward(const GaussianModel &m) const
    {
        RenderOutput out = renderForward(m, cam, subset, render);
        double acc = 0.0;
        const auto &img = out.image.data();
        const auto &w = weights.data();
        for (size_t i = 0; i < img.size(); ++i)
            acc += double(w[i]) * img[i];
        return acc;
    }

    GaussianGrads
    backward(const GaussianModel &m) const
    {
        RenderArena arena;
        renderForward(m, cam, subset, render, arena);
        GaussianGrads g;
        g.resize(m.size());
        renderBackward(m, cam, render, weights, g, arena);
        return g;
    }
};

/** Central finite difference of the pipeline loss w.r.t. one scalar. */
double
finiteDiff(Pipeline &pipe, GaussianModel &m, float &param,
           float eps = 1e-2f)
{
    float saved = param;
    param = saved + eps;
    double lp = pipe.forward(m);
    param = saved - eps;
    double lm = pipe.forward(m);
    param = saved;
    return (lp - lm) / (2.0 * eps);
}

void
expectClose(double analytic, double fd, double scale_hint)
{
    double tol = 5e-2 * std::max({std::abs(analytic), std::abs(fd),
                                  scale_hint});
    EXPECT_NEAR(analytic, fd, tol);
}

TEST(LossBackward, MatchesFiniteDifference)
{
    Rng rng(7);
    int wh = 12;
    Image x(wh, wh), y(wh, wh);
    for (int py = 0; py < wh; ++py)
        for (int px = 0; px < wh; ++px) {
            x.setPixel(px, py, {rng.uniform(0.2f, 0.8f),
                                rng.uniform(0.2f, 0.8f),
                                rng.uniform(0.2f, 0.8f)});
            y.setPixel(px, py, {rng.uniform(0.2f, 0.8f),
                                rng.uniform(0.2f, 0.8f),
                                rng.uniform(0.2f, 0.8f)});
        }
    LossConfig cfg;
    cfg.ssim_window = 5;
    Image d;
    computeLoss(x, y, &d, cfg);

    const float eps = 1e-3f;
    Rng pick(8);
    for (int it = 0; it < 30; ++it) {
        size_t idx = static_cast<size_t>(
            pick.uniformInt(0, static_cast<int64_t>(x.data().size()) - 1));
        float saved = x.data()[idx];
        x.data()[idx] = saved + eps;
        double lp = computeLoss(x, y, nullptr, cfg).total;
        x.data()[idx] = saved - eps;
        double lm = computeLoss(x, y, nullptr, cfg).total;
        x.data()[idx] = saved;
        double fd = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(d.data()[idx], fd,
                    2e-2 * std::max(1e-4, std::abs(fd)))
            << "pixel value index " << idx;
    }
}

class RenderBackwardTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RenderBackwardTest, PositionGradients)
{
    int sh_degree = GetParam();
    Pipeline pipe(6, sh_degree);
    GaussianModel m = fdScene(6, 10 + sh_degree);
    GaussianGrads g = pipe.backward(m);
    for (size_t i = 0; i < m.size(); i += 2) {
        expectClose(g.d_position[i].x,
                    finiteDiff(pipe, m, m.position(i).x), 1e-4);
        expectClose(g.d_position[i].y,
                    finiteDiff(pipe, m, m.position(i).y), 1e-4);
        expectClose(g.d_position[i].z,
                    finiteDiff(pipe, m, m.position(i).z), 1e-4);
    }
}

TEST_P(RenderBackwardTest, ScaleGradients)
{
    Pipeline pipe(6, GetParam());
    GaussianModel m = fdScene(6, 20 + GetParam());
    GaussianGrads g = pipe.backward(m);
    for (size_t i = 0; i < m.size(); i += 2) {
        expectClose(g.d_log_scale[i].x,
                    finiteDiff(pipe, m, m.logScale(i).x), 1e-4);
        expectClose(g.d_log_scale[i].z,
                    finiteDiff(pipe, m, m.logScale(i).z), 1e-4);
    }
}

TEST_P(RenderBackwardTest, RotationGradients)
{
    Pipeline pipe(6, GetParam());
    GaussianModel m = fdScene(6, 30 + GetParam());
    GaussianGrads g = pipe.backward(m);
    for (size_t i = 0; i < m.size(); i += 3) {
        expectClose(g.d_rotation[i].w,
                    finiteDiff(pipe, m, m.rotation(i).w), 1e-4);
        expectClose(g.d_rotation[i].x,
                    finiteDiff(pipe, m, m.rotation(i).x), 1e-4);
        expectClose(g.d_rotation[i].y,
                    finiteDiff(pipe, m, m.rotation(i).y), 1e-4);
        expectClose(g.d_rotation[i].z,
                    finiteDiff(pipe, m, m.rotation(i).z), 1e-4);
    }
}

TEST_P(RenderBackwardTest, OpacityGradients)
{
    Pipeline pipe(6, GetParam());
    GaussianModel m = fdScene(6, 40 + GetParam());
    GaussianGrads g = pipe.backward(m);
    for (size_t i = 0; i < m.size(); ++i) {
        expectClose(g.d_opacity[i],
                    finiteDiff(pipe, m, m.rawOpacity(i)), 1e-4);
    }
}

TEST_P(RenderBackwardTest, ShGradients)
{
    int sh_degree = GetParam();
    Pipeline pipe(4, sh_degree);
    GaussianModel m = fdScene(4, 50 + sh_degree);
    GaussianGrads g = pipe.backward(m);
    int nb = shBasisCount(sh_degree);
    for (size_t i = 0; i < m.size(); i += 2) {
        for (int k = 0; k < nb * 3; k += 7) {
            expectClose(g.d_sh[i * kShDim + k],
                        finiteDiff(pipe, m, m.sh(i)[k]), 1e-4);
        }
        // Coefficients above the active degree must have zero gradient.
        for (int k = nb * 3; k < kShDim; ++k)
            EXPECT_FLOAT_EQ(g.d_sh[i * kShDim + k], 0.0f);
    }
}

INSTANTIATE_TEST_SUITE_P(ShDegrees, RenderBackwardTest,
                         ::testing::Values(0, 1, 3));

TEST(RenderBackward, UntouchedRowsStayZero)
{
    Pipeline pipe(3);
    GaussianModel m = fdScene(3, 60);
    // Render only Gaussian 1; rows 0 and 2 must keep zero gradients.
    pipe.subset = {1};
    GaussianGrads g = pipe.backward(m);
    for (size_t i : {0u, 2u}) {
        EXPECT_FLOAT_EQ(g.d_position[i].x, 0.0f);
        EXPECT_FLOAT_EQ(g.d_opacity[i], 0.0f);
        EXPECT_FLOAT_EQ(g.d_sh[i * kShDim], 0.0f);
    }
    EXPECT_NE(g.d_opacity[1], 0.0f);
}

TEST(RenderBackward, ParallelBitwiseIdenticalToSerial)
{
    // The backward pass accumulates per-chunk partial gradients over a
    // FIXED tile-chunk partition (independent of execution mode) and
    // reduces them in chunk order, so parallel and serial runs perform
    // identical floating-point arithmetic: gradients must match bit
    // for bit, not just within tolerance.
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 600);
    auto cams = generateCameraPath(spec, 2, 97, 61);
    RenderArena reused;    // carries the previous camera's state
    for (const Camera &cam : cams) {
        auto subset = frustumCull(m, cam);
        Image d_image(97, 61, {0.3f, -0.2f, 0.1f});
        auto run = [&](bool parallel, RenderArena &arena) {
            RenderConfig cfg;
            cfg.parallel = parallel;
            GaussianGrads g;
            g.resize(m.size());
            renderForward(m, cam, subset, cfg, arena);
            renderBackward(m, cam, cfg, d_image, g, arena);
            return g;
        };
        RenderArena fresh_a, fresh_b;
        GaussianGrads a = run(false, fresh_a);
        GaussianGrads b = run(true, fresh_b);
        GaussianGrads c = run(true, reused);
        for (size_t i = 0; i < m.size(); ++i) {
            EXPECT_EQ(a.d_position[i].x, b.d_position[i].x) << i;
            EXPECT_EQ(a.d_position[i].y, b.d_position[i].y) << i;
            EXPECT_EQ(a.d_position[i].z, b.d_position[i].z) << i;
            EXPECT_EQ(a.d_opacity[i], b.d_opacity[i]) << i;
            EXPECT_EQ(a.d_log_scale[i].x, b.d_log_scale[i].x) << i;
            EXPECT_EQ(a.d_rotation[i].w, b.d_rotation[i].w) << i;
            EXPECT_EQ(a.d_sh[i * kShDim], b.d_sh[i * kShDim]) << i;
            // Arena reuse is pure scratch reuse.
            EXPECT_EQ(a.d_position[i].x, c.d_position[i].x) << i;
            EXPECT_EQ(a.d_opacity[i], c.d_opacity[i]) << i;
        }
    }
}

TEST(RenderBackward, MaskedTailWidthsBitwiseAcrossKernelTables)
{
    // The SIMD backward replays pixels in groups of 8; image widths
    // 96..103 sweep every tail width (w mod 8 = 0..7), so partial
    // groups at the right tile edge exercise the masked lanes, and
    // tile sizes 8/16/32 sweep the kernels' block layouts. The scalar
    // kernel table runs the identical IEEE op sequence one lane at a
    // time, so gradients must agree bit for bit with whatever table
    // the CPU dispatched.
    const RenderKernels *scalar_kern =
        renderKernelsFor(SimdBackend::kScalar);
    ASSERT_NE(scalar_kern, nullptr);
    SceneSpec spec = SceneSpec::rubble();
    GaussianModel m = generateGroundTruth(spec, 500);
    for (int tile : {8, 16, 32}) {
        for (int w = 96; w <= 103; ++w) {
            Camera cam = generateCameraPath(spec, 2, w, 59)[0];
            auto subset = frustumCull(m, cam);
            Image d_image(w, 59, {0.3f, -0.2f, 0.1f});
            auto run = [&](const RenderKernels *kern) {
                RenderConfig cfg;
                cfg.kernels = kern;
                cfg.tile_size = tile;
                RenderArena arena;
                renderForward(m, cam, subset, cfg, arena);
                GaussianGrads g;
                g.resize(m.size());
                renderBackward(m, cam, cfg, d_image, g, arena);
                return g;
            };
            GaussianGrads a = run(nullptr);    // dispatched table
            GaussianGrads b = run(scalar_kern);
            for (size_t i = 0; i < m.size(); ++i) {
                ASSERT_EQ(a.d_position[i].x, b.d_position[i].x)
                    << "tile=" << tile << " w=" << w << " i=" << i;
                ASSERT_EQ(a.d_position[i].y, b.d_position[i].y)
                    << "tile=" << tile << " w=" << w << " i=" << i;
                ASSERT_EQ(a.d_opacity[i], b.d_opacity[i])
                    << "tile=" << tile << " w=" << w << " i=" << i;
                ASSERT_EQ(a.d_log_scale[i].y, b.d_log_scale[i].y)
                    << "tile=" << tile << " w=" << w << " i=" << i;
                ASSERT_EQ(a.d_rotation[i].x, b.d_rotation[i].x)
                    << "tile=" << tile << " w=" << w << " i=" << i;
                ASSERT_EQ(a.d_sh[i * kShDim], b.d_sh[i * kShDim])
                    << "tile=" << tile << " w=" << w << " i=" << i;
            }
        }
    }
}

TEST(RenderBackward, GradientDescentReducesRealLoss)
{
    // End-to-end: SGD along the analytic gradient of the *real* training
    // loss (L1 + D-SSIM) must reduce it.
    Camera cam = testCamera();
    RenderConfig render;
    LossConfig loss;
    loss.ssim_window = 5;
    Image gt = fdGroundTruth(24, 99);
    GaussianModel m = fdScene(8, 70);
    std::vector<uint32_t> subset;
    for (size_t i = 0; i < m.size(); ++i)
        subset.push_back(static_cast<uint32_t>(i));

    RenderArena arena;
    auto eval = [&](GaussianGrads *g) {
        const RenderOutput &out = renderForward(m, cam, subset, render,
                                                arena);
        Image d_image;
        LossResult r =
            computeLoss(out.image, gt, g ? &d_image : nullptr, loss);
        if (g)
            renderBackward(m, cam, render, d_image, *g, arena);
        return r.total;
    };

    double before = eval(nullptr);
    for (int step = 0; step < 8; ++step) {
        GaussianGrads g;
        g.resize(m.size());
        eval(&g);
        for (size_t i = 0; i < m.size(); ++i) {
            m.position(i) -= g.d_position[i] * 20.0f;
            m.logScale(i) -= g.d_log_scale[i] * 5.0f;
            m.rawOpacity(i) -= 50.0f * g.d_opacity[i];
            for (int k = 0; k < kShDim; ++k)
                m.sh(i)[k] -= 50.0f * g.d_sh[i * kShDim + k];
        }
    }
    double after = eval(nullptr);
    EXPECT_LT(after, before);
}

/** Bitwise comparison of full-model gradient buffers. */
void
expectGradsIdentical(const GaussianGrads &a, const GaussianGrads &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.d_sh, b.d_sh);
    EXPECT_EQ(a.d_opacity, b.d_opacity);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.d_position[i].x, b.d_position[i].x) << i;
        EXPECT_EQ(a.d_position[i].y, b.d_position[i].y) << i;
        EXPECT_EQ(a.d_position[i].z, b.d_position[i].z) << i;
        EXPECT_EQ(a.d_log_scale[i].x, b.d_log_scale[i].x) << i;
        EXPECT_EQ(a.d_log_scale[i].y, b.d_log_scale[i].y) << i;
        EXPECT_EQ(a.d_log_scale[i].z, b.d_log_scale[i].z) << i;
        EXPECT_EQ(a.d_rotation[i].w, b.d_rotation[i].w) << i;
        EXPECT_EQ(a.d_rotation[i].x, b.d_rotation[i].x) << i;
        EXPECT_EQ(a.d_rotation[i].y, b.d_rotation[i].y) << i;
        EXPECT_EQ(a.d_rotation[i].z, b.d_rotation[i].z) << i;
    }
}

/** Sequential reference: per-view batches of one (forward + backward)
 *  accumulating into one gradient buffer in view order. */
GaussianGrads
sequentialBackward(const GaussianModel &model,
                   const std::vector<Camera> &cams,
                   const std::vector<Image> &d_images,
                   const RenderConfig &cfg)
{
    GaussianGrads grads;
    grads.resize(model.size());
    RenderArena arena;
    for (size_t v = 0; v < cams.size(); ++v) {
        auto subset = frustumCull(model, cams[v]);
        renderForward(model, cams[v], subset, cfg, arena);
        renderBackward(model, cams[v], cfg, d_images[v], grads, arena);
    }
    return grads;
}

GaussianGrads
fusedBackward(const GaussianModel &model,
              const std::vector<Camera> &cams,
              const std::vector<Image> &d_images, const RenderConfig &cfg,
              bool retain_staging, RenderArena *reuse = nullptr)
{
    GaussianGrads grads;
    grads.resize(model.size());
    RenderArena local;
    RenderArena &arena = reuse != nullptr ? *reuse : local;
    arena.retain_staging = retain_staging;
    std::vector<std::vector<uint32_t>> subsets;
    buildCullStage(model, arena.cull, cfg.parallel);
    frustumCullBatch(model, cams, arena.cull, subsets, cfg.parallel);
    renderForwardBatch(model, cams, subsets, cfg, arena);
    renderBackwardBatch(model, cams, cfg, d_images, grads, arena);
    return grads;
}

struct BackwardFixture
{
    GaussianModel model;
    std::vector<Camera> cams;
    std::vector<Image> d_images;

    explicit BackwardFixture(int n_views = 4)
    {
        SceneSpec spec = SceneSpec::byName("Rubble");
        model = generateSceneGaussians(spec, 900);
        cams = generateCameraPath(spec, n_views, 96, 61);
        // Distinct synthetic loss gradients per view (sign flips mixed
        // in so negative-gradient paths are exercised).
        for (int v = 0; v < n_views; ++v)
            d_images.emplace_back(96, 61,
                                  Vec3{0.3f - 0.1f * v, -0.2f + 0.07f * v,
                                       0.05f * (v + 1)});
    }
};

TEST(FusedBackward, BatchedBitwiseEqualsSequential)
{
    BackwardFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 2;
    GaussianGrads ref =
        sequentialBackward(fix.model, fix.cams, fix.d_images, cfg);
    // Retained staging (the training configuration)...
    GaussianGrads fused =
        fusedBackward(fix.model, fix.cams, fix.d_images, cfg, true);
    expectGradsIdentical(fused, ref);
    // ...and the re-staging fallback must agree too.
    GaussianGrads restaged =
        fusedBackward(fix.model, fix.cams, fix.d_images, cfg, false);
    expectGradsIdentical(restaged, ref);
}

TEST(FusedBackward, ParallelMatchesSerial)
{
    BackwardFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 1;
    cfg.parallel = true;
    GaussianGrads par =
        fusedBackward(fix.model, fix.cams, fix.d_images, cfg, true);
    cfg.parallel = false;
    GaussianGrads ser =
        fusedBackward(fix.model, fix.cams, fix.d_images, cfg, true);
    expectGradsIdentical(par, ser);
    expectGradsIdentical(
        par, sequentialBackward(fix.model, fix.cams, fix.d_images, cfg));
}

TEST(FusedBackward, BitwiseAcrossKernelTables)
{
    BackwardFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 1;
    GaussianGrads ref =
        sequentialBackward(fix.model, fix.cams, fix.d_images, cfg);

    // Forced scalar kernel TABLE: the same grad8 replay one lane at a
    // time — bitwise identical to whatever table the CPU dispatched
    // (the PR-6 dispatch-invariance property), fused or sequential.
    const RenderKernels *scalar_kern =
        renderKernelsFor(SimdBackend::kScalar);
    ASSERT_NE(scalar_kern, nullptr);
    RenderConfig forced = cfg;
    forced.kernels = scalar_kern;
    expectGradsIdentical(
        fusedBackward(fix.model, fix.cams, fix.d_images, forced, true),
        sequentialBackward(fix.model, fix.cams, fix.d_images, forced));
    expectGradsIdentical(
        fusedBackward(fix.model, fix.cams, fix.d_images, forced, true),
        ref);
}

TEST(FusedBackward, ArenaReuseIsBitwiseNeutral)
{
    BackwardFixture fix;
    RenderConfig cfg;
    cfg.sh_degree = 1;
    BackwardFixture small(2);
    RenderArena reused;
    // Dirty the arena with a different batch shape first.
    fusedBackward(small.model, small.cams, small.d_images, cfg, true,
                  &reused);
    GaussianGrads a = fusedBackward(fix.model, fix.cams, fix.d_images,
                                    cfg, true, &reused);
    GaussianGrads b =
        fusedBackward(fix.model, fix.cams, fix.d_images, cfg, true);
    expectGradsIdentical(a, b);
}

TEST(CompactRender, BitwiseEqualsFullModelOverGlobalSubset)
{
    // The offload trainers render each microbatch from a compact copy
    // (row r = the r-th Gaussian of the view's subset) over the subset
    // {0..k-1}. Every render stage depends only on subset position, so
    // the frame and the per-row gradients, mapped back to global rows,
    // must match a render of the full model over the global subset bit
    // for bit — serial and parallel, dispatched and forced-scalar
    // kernel tables.
    const RenderKernels *scalar_kern =
        renderKernelsFor(SimdBackend::kScalar);
    ASSERT_NE(scalar_kern, nullptr);
    BackwardFixture fix(3);
    const GaussianModel &full = fix.model;
    for (size_t v = 0; v < fix.cams.size(); ++v) {
        const Camera &cam = fix.cams[v];
        std::vector<uint32_t> subset = frustumCull(full, cam);
        ASSERT_FALSE(subset.empty());
        const size_t k = subset.size();
        GaussianModel compact(k);
        for (size_t r = 0; r < k; ++r) {
            float crit[kCriticalDim], nc[kNonCriticalDim];
            full.packCritical(subset[r], crit);
            full.packNonCritical(subset[r], nc);
            compact.unpackCritical(r, crit);
            compact.unpackNonCritical(r, nc);
        }
        std::vector<uint32_t> local(k);
        std::iota(local.begin(), local.end(), 0u);

        for (bool parallel : {false, true}) {
            for (const RenderKernels *kern :
                 {static_cast<const RenderKernels *>(nullptr),
                  scalar_kern}) {
                RenderConfig cfg;
                cfg.sh_degree = 2;
                cfg.parallel = parallel;
                cfg.kernels = kern;
                RenderArena full_arena, compact_arena;
                GaussianGrads full_grads, compact_grads;
                full_grads.resize(full.size());
                compact_grads.resize(k);
                const RenderOutput &a =
                    renderForward(full, cam, subset, cfg, full_arena);
                renderBackward(full, cam, cfg, fix.d_images[v],
                               full_grads, full_arena);
                const RenderOutput &b =
                    renderForward(compact, cam, local, cfg, compact_arena);
                renderBackward(compact, cam, cfg, fix.d_images[v],
                               compact_grads, compact_arena);

                const std::vector<float> &fa = a.image.data();
                const std::vector<float> &fb = b.image.data();
                ASSERT_EQ(fa.size(), fb.size());
                EXPECT_EQ(std::memcmp(fa.data(), fb.data(),
                                      fa.size() * sizeof(float)),
                          0)
                    << "frame, view " << v << " parallel " << parallel;
                for (size_t r = 0; r < k; ++r) {
                    float ga[kParamsPerGaussian], gb[kParamsPerGaussian];
                    packGradRecord(full_grads, subset[r], ga);
                    packGradRecord(compact_grads, r, gb);
                    ASSERT_EQ(std::memcmp(ga, gb, sizeof(ga)), 0)
                        << "row " << r << " (global " << subset[r]
                        << "), view " << v << " parallel " << parallel
                        << " scalar table " << (kern != nullptr);
                }
            }
        }
    }
}

} // namespace
} // namespace clm
