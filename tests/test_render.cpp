/**
 * @file
 * Forward-pass renderer tests: camera geometry, culling vs a brute-force
 * reference, rasterizer compositing semantics, image metrics, and the
 * loss forward values.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "math/ellipsoid.hpp"
#include "math/rng.hpp"
#include "render/arena.hpp"
#include "render/camera.hpp"
#include "render/culling.hpp"
#include "render/image.hpp"
#include "render/loss.hpp"
#include "render/projection.hpp"
#include "render/rasterizer.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"

namespace clm {
namespace {

/** A single Gaussian dead ahead of a canonical camera. */
GaussianModel
singleGaussian(const Vec3 &pos, float scale, const Vec3 &color,
               float opacity)
{
    GaussianModel m(1);
    m.position(0) = pos;
    float ls = std::log(scale);
    m.logScale(0) = {ls, ls, ls};
    m.rotation(0) = Quat{1, 0, 0, 0};
    constexpr float kY0 = 0.28209479177387814f;
    m.sh(0)[0] = (color.x - 0.5f) / kY0;
    m.sh(0)[1] = (color.y - 0.5f) / kY0;
    m.sh(0)[2] = (color.z - 0.5f) / kY0;
    m.rawOpacity(0) = inverseSigmoid(opacity);
    return m;
}

Camera
canonicalCamera(int w = 64, int h = 64)
{
    return Camera::lookAt({0, 0, 0}, {0, 0, 10}, {0, 1, 0}, w, h, 1.0f,
                          0.1f, 100.0f);
}

TEST(Camera, ToCameraSpaceDepth)
{
    Camera cam = canonicalCamera();
    Vec3 t = cam.toCameraSpace({0, 0, 7});
    EXPECT_NEAR(t.x, 0.0f, 1e-5f);
    EXPECT_NEAR(t.y, 0.0f, 1e-5f);
    EXPECT_NEAR(t.z, 7.0f, 1e-5f);
}

TEST(Camera, CenterProjectsToPrincipalPoint)
{
    Camera cam = canonicalCamera(128, 96);
    GaussianModel m = singleGaussian({0, 0, 5}, 0.2f, {1, 0, 0}, 0.9f);
    ProjectedGaussian p = projectGaussian(m, 0, cam, 0);
    ASSERT_TRUE(p.valid);
    EXPECT_NEAR(p.mean2d.x, 64.0f, 1e-3f);
    EXPECT_NEAR(p.mean2d.y, 48.0f, 1e-3f);
    EXPECT_NEAR(p.depth, 5.0f, 1e-5f);
}

TEST(Camera, LookAtOrientation)
{
    // Point above the target appears in the upper image half (y down).
    Camera cam = canonicalCamera();
    GaussianModel m = singleGaussian({0, 2, 10}, 0.2f, {1, 1, 1}, 0.9f);
    ProjectedGaussian p = projectGaussian(m, 0, cam, 0);
    ASSERT_TRUE(p.valid);
    EXPECT_LT(p.mean2d.y, 32.0f);
}

TEST(Projection, BehindCameraInvalid)
{
    Camera cam = canonicalCamera();
    GaussianModel m = singleGaussian({0, 0, -5}, 0.2f, {1, 1, 1}, 0.9f);
    EXPECT_FALSE(projectGaussian(m, 0, cam, 0).valid);
}

TEST(Projection, FartherGaussianHasSmallerFootprint)
{
    Camera cam = canonicalCamera();
    GaussianModel near = singleGaussian({0, 0, 3}, 0.3f, {1, 1, 1}, 0.9f);
    GaussianModel far = singleGaussian({0, 0, 30}, 0.3f, {1, 1, 1}, 0.9f);
    ProjectedGaussian pn = projectGaussian(near, 0, cam, 0);
    ProjectedGaussian pf = projectGaussian(far, 0, cam, 0);
    ASSERT_TRUE(pn.valid && pf.valid);
    EXPECT_GT(pn.radius, pf.radius);
}

/** Brute-force reference: sample the frustum test on a dense set of
 *  points on the ellipsoid surface + center. */
bool
bruteForceInFrustum(const GaussianModel &m, size_t i, const Camera &cam)
{
    const Frustum &f = cam.frustum();
    Mat3 r = m.unitRotation(i).toRotationMatrix();
    Vec3 s = m.worldScale(i) * 3.0f;
    if (f.contains(m.position(i)))
        return true;
    for (int a = 0; a < 24; ++a) {
        for (int b = 0; b < 12; ++b) {
            float theta = 6.2831853f * a / 24;
            float phi = 3.1415926f * b / 12;
            Vec3 u{std::sin(phi) * std::cos(theta),
                   std::sin(phi) * std::sin(theta), std::cos(phi)};
            Vec3 p = m.position(i) + r.mul(u.cwiseMul(s));
            if (f.contains(p))
                return true;
        }
    }
    return false;
}

TEST(Culling, MatchesBruteForceReference)
{
    Camera cam = canonicalCamera();
    Rng rng(42);
    GaussianModel m = GaussianModel::random(400, {-15, -15, -10},
                                            {15, 15, 30}, 0.4f, rng);
    auto culled = frustumCull(m, cam);
    std::vector<bool> in_set(m.size(), false);
    for (uint32_t g : culled)
        in_set[g] = true;

    for (size_t i = 0; i < m.size(); ++i) {
        bool brute = bruteForceInFrustum(m, i, cam);
        if (brute) {
            // The support test is exact per plane, so it must accept
            // everything the sampled reference accepts.
            EXPECT_TRUE(in_set[i]) << "gaussian " << i << " missed";
        }
        // The plane test may conservatively accept near corners; accept
        // false positives but they must be near the boundary: reject only
        // wild mismatches (center far outside every plane).
        if (!brute && in_set[i]) {
            float d = 0.0f;
            for (int pl = 0; pl < 6; ++pl)
                d = std::min(
                    d, cam.frustum().plane(pl).signedDistance(
                           m.position(i)));
            Ellipsoid e = Ellipsoid::fromGaussian(
                m.position(i), m.worldScale(i), m.rotation(i));
            EXPECT_GT(d, -2.0f * e.boundingRadius());
        }
    }
}

TEST(Culling, SparsityHelper)
{
    EXPECT_DOUBLE_EQ(sparsity(5, 100), 0.05);
    EXPECT_DOUBLE_EQ(sparsity(0, 0), 0.0);
}

TEST(Rasterizer, SingleGaussianBrightensCenter)
{
    Camera cam = canonicalCamera();
    GaussianModel m = singleGaussian({0, 0, 5}, 0.5f, {0.9f, 0.1f, 0.1f},
                                     0.95f);
    RenderConfig cfg;
    cfg.sh_degree = 0;
    RenderOutput out = renderForward(m, cam, {0}, cfg);
    Vec3 center = out.image.pixel(32, 32);
    Vec3 corner = out.image.pixel(1, 1);
    EXPECT_GT(center.x, 0.5f);
    EXPECT_GT(center.x, center.y);             // red dominates
    EXPECT_LT(corner.x, 0.1f);                 // background black
    EXPECT_LT(out.final_t[32 * 64 + 32], 0.3f);
    EXPECT_EQ(out.n_contrib[32 * 64 + 32], 1u);
}

TEST(Rasterizer, EmptySubsetRendersBackground)
{
    Camera cam = canonicalCamera();
    GaussianModel m = singleGaussian({0, 0, 5}, 0.5f, {1, 1, 1}, 0.9f);
    RenderConfig cfg;
    cfg.background = {0.2f, 0.4f, 0.6f};
    RenderOutput out = renderForward(m, cam, {}, cfg);
    Vec3 p = out.image.pixel(10, 10);
    EXPECT_FLOAT_EQ(p.x, 0.2f);
    EXPECT_FLOAT_EQ(p.y, 0.4f);
    EXPECT_FLOAT_EQ(p.z, 0.6f);
}

TEST(Rasterizer, FrontGaussianOccludesBack)
{
    Camera cam = canonicalCamera();
    GaussianModel m(2);
    // Back gaussian: green, nearly opaque; front: red, nearly opaque.
    constexpr float kY0 = 0.28209479177387814f;
    m.position(0) = {0, 0, 8};
    m.position(1) = {0, 0, 4};
    for (size_t i = 0; i < 2; ++i) {
        float ls = std::log(0.6f);
        m.logScale(i) = {ls, ls, ls};
        m.rotation(i) = Quat{1, 0, 0, 0};
        m.rawOpacity(i) = inverseSigmoid(0.97f);
    }
    m.sh(0)[1] = 0.5f / kY0;     // green back
    m.sh(0)[0] = -0.5f / kY0;
    m.sh(0)[2] = -0.5f / kY0;
    m.sh(1)[0] = 0.5f / kY0;     // red front
    m.sh(1)[1] = -0.5f / kY0;
    m.sh(1)[2] = -0.5f / kY0;

    RenderConfig cfg;
    cfg.sh_degree = 0;
    RenderOutput out = renderForward(m, cam, {0, 1}, cfg);
    Vec3 c = out.image.pixel(32, 32);
    EXPECT_GT(c.x, 5.0f * c.y);    // red in front wins
}

TEST(Rasterizer, SubsetMattersOnlyForListedGaussians)
{
    Camera cam = canonicalCamera();
    Rng rng(44);
    GaussianModel m = GaussianModel::random(50, {-3, -3, 3}, {3, 3, 12},
                                            0.3f, rng);
    RenderConfig cfg;
    cfg.sh_degree = 0;
    auto all = frustumCull(m, cam);
    RenderOutput full = renderForward(m, cam, all, cfg);
    // Adding out-of-frustum Gaussians to the subset must not change the
    // image (they project invalid or contribute nothing).
    std::vector<uint32_t> everything(m.size());
    for (size_t i = 0; i < m.size(); ++i)
        everything[i] = static_cast<uint32_t>(i);
    RenderOutput with_extra = renderForward(m, cam, everything, cfg);
    EXPECT_LT(full.image.mse(with_extra.image), 1e-10);
}

TEST(Rasterizer, ParallelBitwiseIdenticalToSerial)
{
    // Every stage of the pipeline (projection, flat binning, stable
    // radix sort, per-tile compositing) is deterministic, so the
    // parallel path must reproduce the serial path bit for bit —
    // including the activation state the backward pass replays.
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 700);
    // Odd resolution: exercises partial edge tiles and the non-quad
    // remainder pixels.
    auto cams = generateCameraPath(spec, 2, 97, 61);
    for (const Camera &cam : cams) {
        auto subset = frustumCull(m, cam);
        RenderConfig serial;
        serial.parallel = false;
        RenderConfig parallel;
        parallel.parallel = true;
        RenderOutput a = renderForward(m, cam, subset, serial);
        RenderOutput b = renderForward(m, cam, subset, parallel);
        EXPECT_EQ(a.image.data(), b.image.data());    // bitwise
        EXPECT_EQ(a.final_t, b.final_t);
        EXPECT_EQ(a.n_contrib, b.n_contrib);
        EXPECT_EQ(a.isect_vals, b.isect_vals);
        ASSERT_EQ(a.tile_ranges.size(), b.tile_ranges.size());
        for (size_t t = 0; t < a.tile_ranges.size(); ++t) {
            EXPECT_EQ(a.tile_ranges[t].begin, b.tile_ranges[t].begin);
            EXPECT_EQ(a.tile_ranges[t].end, b.tile_ranges[t].end);
        }
    }
}

/** Bit-for-bit footprint equality (EXPECT_EQ on floats would equate
 *  0.0 with -0.0 and fail NaN == NaN). */
bool
bitEqual(const ProjectedGaussian &a, const ProjectedGaussian &b)
{
    auto same = [](float x, float y) {
        return std::memcmp(&x, &y, sizeof(float)) == 0;
    };
    return a.index == b.index && a.valid == b.valid
        && same(a.mean2d.x, b.mean2d.x) && same(a.mean2d.y, b.mean2d.y)
        && same(a.depth, b.depth) && same(a.conic_a, b.conic_a)
        && same(a.conic_b, b.conic_b) && same(a.conic_c, b.conic_c)
        && same(a.radius, b.radius) && same(a.opacity, b.opacity)
        && same(a.color.x, b.color.x) && same(a.color.y, b.color.y)
        && same(a.color.z, b.color.z) && a.color_valid == b.color_valid
        && same(a.t.x, b.t.x) && same(a.t.y, b.t.y)
        && same(a.t.z, b.t.z) && a.clamped_u == b.clamped_u
        && a.clamped_v == b.clamped_v && same(a.cov2d_a, b.cov2d_a)
        && same(a.cov2d_b, b.cov2d_b) && same(a.cov2d_c, b.cov2d_c);
}

TEST(Rasterizer, ProjectedFootprintsMatchProjectGaussian)
{
    // The pipeline projects through a shared per-Gaussian precompute
    // (covariance, world opacity); every footprint must still be
    // bit-equal to a standalone projectGaussian of the same row.
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 600);
    for (int deg : {0, 3}) {
        for (const Camera &cam : generateCameraPath(spec, 2, 97, 61)) {
            auto subset = frustumCull(m, cam);
            RenderConfig cfg;
            cfg.sh_degree = deg;
            RenderOutput out = renderForward(m, cam, subset, cfg);
            ASSERT_EQ(out.projected.size(), subset.size());
            for (size_t s = 0; s < subset.size(); ++s)
                EXPECT_TRUE(bitEqual(out.projected[s],
                                     projectGaussian(m, subset[s], cam,
                                                     deg)))
                    << "entry " << s << " sh degree " << deg;
        }
    }
}

TEST(Rasterizer, ArenaReuseMatchesFreshAllocation)
{
    // One arena reused across differently-sized views must reproduce
    // the value-returning overload bit for bit.
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 500);
    RenderArena arena;
    RenderConfig cfg;
    int sizes[][2] = {{96, 64}, {48, 32}, {96, 64}};
    for (auto &wh : sizes) {
        Camera cam = generateCameraPath(spec, 2, wh[0], wh[1])[0];
        auto subset = frustumCull(m, cam);
        const RenderOutput &reused =
            renderForward(m, cam, subset, cfg, arena);
        RenderOutput fresh = renderForward(m, cam, subset, cfg);
        EXPECT_EQ(fresh.image.data(), reused.image.data());
        EXPECT_EQ(fresh.final_t, reused.final_t);
        EXPECT_EQ(fresh.n_contrib, reused.n_contrib);
        EXPECT_EQ(fresh.isect_vals, reused.isect_vals);
    }
}

TEST(Rasterizer, ActivationBytesScaleWithResolution)
{
    GaussianModel m = singleGaussian({0, 0, 5}, 0.5f, {1, 1, 1}, 0.9f);
    RenderConfig cfg;
    RenderOutput small =
        renderForward(m, canonicalCamera(32, 32), {0}, cfg);
    RenderOutput big =
        renderForward(m, canonicalCamera(128, 128), {0}, cfg);
    EXPECT_GT(big.activationBytes(), small.activationBytes());
}

TEST(Rasterizer, ActivationBytesCountEveryBuffer)
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 300);
    Camera cam = generateCameraPath(spec, 2, 64, 48)[0];
    auto subset = frustumCull(m, cam);
    RenderOutput out = renderForward(m, cam, subset, {});
    ASSERT_GT(out.totalTileIntersections(), 0u);
    size_t expected = out.image.data().size() * sizeof(float)
                    + out.final_t.size() * sizeof(float)
                    + out.n_contrib.size() * sizeof(uint32_t)
                    + out.projected.size() * sizeof(ProjectedGaussian)
                    + out.isect_vals.size() * sizeof(uint32_t)
                    + out.tile_ranges.size() * sizeof(TileRange);
    EXPECT_EQ(out.activationBytes(), expected);
}

TEST(Image, MetricsBasics)
{
    Image a(8, 8, {0.5f, 0.5f, 0.5f});
    Image b(8, 8, {0.5f, 0.5f, 0.5f});
    EXPECT_DOUBLE_EQ(a.mse(b), 0.0);
    EXPECT_GE(a.psnr(b), 99.0);
    b.setPixel(0, 0, {1.0f, 0.5f, 0.5f});
    EXPECT_GT(a.mse(b), 0.0);
    EXPECT_LT(a.psnr(b), 99.0);
    EXPECT_GT(a.l1(b), 0.0);
}

TEST(Image, PsnrDecreasesWithNoise)
{
    Rng rng(45);
    Image gt(16, 16, {0.5f, 0.5f, 0.5f});
    Image small_noise = gt, big_noise = gt;
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x) {
            float n = rng.normal(0.0f, 1.0f);
            small_noise.addPixel(x, y, {0.01f * n, 0.01f * n, 0.01f * n});
            big_noise.addPixel(x, y, {0.1f * n, 0.1f * n, 0.1f * n});
        }
    EXPECT_GT(gt.psnr(small_noise), gt.psnr(big_noise));
}

TEST(Loss, ZeroForIdenticalImages)
{
    Image a(16, 16, {0.3f, 0.6f, 0.9f});
    LossResult r = computeLoss(a, a, nullptr);
    EXPECT_NEAR(r.l1, 0.0, 1e-9);
    EXPECT_NEAR(r.dssim, 0.0, 1e-6);
    EXPECT_NEAR(r.total, 0.0, 1e-6);
}

TEST(Loss, SsimPenalizesStructuralChange)
{
    Rng rng(46);
    Image a(24, 24);
    for (int y = 0; y < 24; ++y)
        for (int x = 0; x < 24; ++x) {
            float v = 0.5f + 0.4f * std::sin(0.5f * x);
            a.setPixel(x, y, {v, v, v});
        }
    // Constant image with the same mean destroys structure.
    Image b(24, 24, {0.5f, 0.5f, 0.5f});
    double ssim = meanSsim(a, b);
    EXPECT_LT(ssim, 0.9);
    EXPECT_GT(meanSsim(a, a), 0.999);
}

TEST(Loss, WeightsCombine)
{
    Image a(12, 12, {0.5f, 0.5f, 0.5f});
    Image b(12, 12, {0.7f, 0.7f, 0.7f});
    LossConfig cfg;
    cfg.lambda_dssim = 0.0f;
    LossResult l1_only = computeLoss(a, b, nullptr, cfg);
    EXPECT_NEAR(l1_only.total, l1_only.l1, 1e-9);
    cfg.lambda_dssim = 1.0f;
    LossResult ssim_only = computeLoss(a, b, nullptr, cfg);
    EXPECT_NEAR(ssim_only.total, ssim_only.dssim, 1e-9);
}

} // namespace
} // namespace clm
