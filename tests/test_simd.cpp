/**
 * @file
 * SIMD kernel layer tests: F8 batch semantics, the documented exp8()
 * ULP bound against std::exp, lane-tail handling in the SIMD
 * compositor, and the quality impact of SIMD vs scalar compositing
 * (quality-harness-style PSNR delta < 0.05 dB).
 *
 * These tests run in every build flavor: under -DCLM_DISABLE_SIMD=ON
 * the F8 scalar fallback executes the same IEEE op sequence, so the
 * same bounds must hold.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "math/simd.hpp"
#include "render/arena.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "render/simd_kernels.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"
#include "train/quality_harness.hpp"

namespace clm {
namespace {

int32_t
floatBits(float x)
{
    int32_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
}

TEST(Simd, LoadStoreRoundTrip)
{
    float src[9] = {0.0f, -1.5f, 2.25f, 1e-30f, -1e30f, 3.0f, -0.0f,
                    42.0f, 7.0f};
    float dst[9] = {};
    // Unaligned: exercise the offset-by-one path.
    F8::load(src + 1).store(dst + 1);
    for (int l = 1; l < 9; ++l)
        EXPECT_EQ(floatBits(dst[l]), floatBits(src[l])) << l;
}

TEST(Simd, ArithmeticAndSelectSemantics)
{
    float a_v[8] = {1, 2, 3, 4, -1, -2, 0.5f, 0};
    float b_v[8] = {4, 3, 2, 1, -2, -1, 0.25f, 0};
    F8 a = F8::load(a_v), b = F8::load(b_v);
    float sum[8], prod[8], mn[8], sel[8];
    (a + b).store(sum);
    (a * b).store(prod);
    F8::min(a, b).store(mn);
    F8::select(F8::lt(a, b), a, b).store(sel);
    for (int l = 0; l < 8; ++l) {
        EXPECT_EQ(sum[l], a_v[l] + b_v[l]);
        EXPECT_EQ(prod[l], a_v[l] * b_v[l]);
        EXPECT_EQ(mn[l], a_v[l] < b_v[l] ? a_v[l] : b_v[l]);
        // select(lt(a,b), a, b) is exactly min's definition.
        EXPECT_EQ(sel[l], mn[l]);
    }
}

TEST(Simd, MinMaxNanTakeSecondOperand)
{
    // Documented SSE convention on every backend: min(a, b) = a < b ?
    // a : b, so an unordered compare yields the SECOND operand.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    float a_v[8] = {nan, 1.0f, nan, 5.0f, nan, 2.0f, nan, 3.0f};
    float b_v[8] = {7.0f, nan, 8.0f, nan, 9.0f, nan, 1.0f, nan};
    float mn[8], mx[8];
    F8::min(F8::load(a_v), F8::load(b_v)).store(mn);
    F8::max(F8::load(a_v), F8::load(b_v)).store(mx);
    for (int l = 0; l < 8; ++l) {
        if (std::isnan(a_v[l])) {
            EXPECT_EQ(mn[l], b_v[l]) << l;
            EXPECT_EQ(mx[l], b_v[l]) << l;
        } else {
            EXPECT_TRUE(std::isnan(mn[l])) << l;
            EXPECT_TRUE(std::isnan(mx[l])) << l;
        }
    }
}

TEST(Simd, MaskAnyAll)
{
    float a_v[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    F8 a = F8::load(a_v);
    F8 none = F8::lt(a, F8::zero());
    F8 all = F8::gt(a, F8::zero());
    F8 some = F8::gt(a, F8::broadcast(4.5f));
    EXPECT_FALSE(F8::any(none));
    EXPECT_TRUE(F8::all(all));
    EXPECT_TRUE(F8::any(some));
    EXPECT_FALSE(F8::all(some));
    EXPECT_TRUE(F8::any(F8::bitOr(none, some)));
    EXPECT_FALSE(F8::any(F8::bitAnd(none, some)));
    EXPECT_TRUE(F8::all(F8::bitOr(all, none)));
    // bitAndNot(mask, v) = ~mask & v.
    EXPECT_FALSE(F8::any(F8::bitAndNot(all, some)));
    EXPECT_TRUE(F8::any(F8::bitAndNot(some, all)));
}

TEST(Simd, SqrtBitwiseMatchesStdSqrt)
{
    // Correctly rounded on every backend, so CPU Adam's F8 lanes equal
    // its scalar std::sqrt — special values included.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float denorm = std::numeric_limits<float>::denorm_min() * 3.0f;
    float special[8] = {0.0f, -0.0f, denorm, inf, nan, 2.0f, 1e-30f,
                        3.4e38f};
    float got[8];
    F8::sqrt(F8::load(special)).store(got);
    for (int l = 0; l < 8; ++l)
        EXPECT_EQ(floatBits(got[l]), floatBits(std::sqrt(special[l])))
            << "lane " << l << " x=" << special[l];

    // A sweep over every exponent, with varied mantissas.
    for (uint32_t e = 0; e < 255; ++e) {
        float in[8];
        for (uint32_t l = 0; l < 8; ++l) {
            uint32_t mantissa = (l * 0x9e3779u + e * 7919u) & 0x7fffffu;
            uint32_t bits = (e << 23) | mantissa;
            std::memcpy(&in[l], &bits, sizeof(bits));
        }
        F8::sqrt(F8::load(in)).store(got);
        for (int l = 0; l < 8; ++l)
            ASSERT_EQ(floatBits(got[l]), floatBits(std::sqrt(in[l])))
                << "x=" << in[l];
    }
}

TEST(Simd, Exp8WithinDocumentedUlpBound)
{
    // Dense sweep of the full clamped domain: exp8 must stay within
    // kExp8MaxUlp of the correctly-rounded float exponential.
    const double x0 = -87.33, x1 = 88.37;
    const int n = 800000;
    int32_t worst = 0;
    for (int i = 0; i < n; i += 8) {
        float xs[8], ys[8];
        for (int l = 0; l < 8; ++l)
            xs[l] = static_cast<float>(x0 + (x1 - x0) * (i + l) / n);
        exp8(F8::load(xs)).store(ys);
        for (int l = 0; l < 8; ++l) {
            float ref = static_cast<float>(
                std::exp(static_cast<double>(xs[l])));
            int32_t ulp = std::abs(floatBits(ys[l]) - floatBits(ref));
            worst = std::max(worst, ulp);
            ASSERT_LE(ulp, kExp8MaxUlp) << "x = " << xs[l];
        }
    }
    // The bound is not vacuous: the kernel is at most off by rounding.
    EXPECT_GE(worst, 0);

    // Exact and clamping behavior.
    float in[8] = {0.0f, -1000.0f, 1000.0f, -87.33f, 88.37f, 1.0f, -1.0f,
                   0.5f};
    float out[8];
    exp8(F8::load(in)).store(out);
    EXPECT_EQ(out[0], 1.0f);    // exp8(0) == 1 exactly
    EXPECT_GT(out[1], 0.0f);    // deep negative clamps to a normal float
    EXPECT_TRUE(std::isfinite(out[1]));
    EXPECT_TRUE(std::isfinite(out[2]));    // clamped, no overflow to inf
}

/** Forward renders of a real scene with the SIMD and scalar
 *  compositors. */
struct TwoPathRender
{
    RenderOutput simd, scalar;

    TwoPathRender(const GaussianModel &m, const Camera &cam)
    {
        auto subset = frustumCull(m, cam);
        RenderConfig cfg;
        cfg.use_simd = true;
        simd = renderForward(m, cam, subset, cfg);
        cfg.use_simd = false;
        scalar = renderForward(m, cam, subset, cfg);
    }
};

TEST(SimdCompositor, LaneTailWidthsMatchScalarClosely)
{
    // Widths that exercise every lane-tail remainder (w mod 8 = 0..7)
    // including partial edge tiles. exp8's rounding may move pixels by
    // ULPs, never by visible amounts.
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 500);
    for (int w : {96, 97, 98, 99, 100, 101, 102, 103}) {
        Camera cam = generateCameraPath(spec, 2, w, 61)[0];
        TwoPathRender r(m, cam);
        // Near-identical images: PSNR of one against the other.
        EXPECT_GT(r.simd.image.psnr(r.scalar.image), 55.0) << "w=" << w;
        // Termination bookkeeping stays consistent with the image.
        ASSERT_EQ(r.simd.final_t.size(), r.scalar.final_t.size());
    }
}

TEST(SimdCompositor, ParallelBitwiseIdenticalToSerial)
{
    // The SIMD path must preserve the pipeline's determinism guarantee:
    // parallel and serial runs produce bit-identical images (odd
    // resolution: partial tiles + lane tails).
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 700);
    auto cams = generateCameraPath(spec, 2, 97, 61);
    for (const Camera &cam : cams) {
        auto subset = frustumCull(m, cam);
        RenderConfig serial;
        serial.parallel = false;
        serial.use_simd = true;
        RenderConfig parallel;
        parallel.parallel = true;
        parallel.use_simd = true;
        RenderOutput a = renderForward(m, cam, subset, serial);
        RenderOutput b = renderForward(m, cam, subset, parallel);
        EXPECT_EQ(a.image.data(), b.image.data());    // bitwise
        EXPECT_EQ(a.final_t, b.final_t);
        EXPECT_EQ(a.n_contrib, b.n_contrib);
    }
}

TEST(SimdCompositor, BackwardGradientsCloseToScalar)
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 400);
    Camera cam = generateCameraPath(spec, 2, 80, 60)[0];
    auto subset = frustumCull(m, cam);
    Image d_image(80, 60, {0.3f, -0.2f, 0.1f});

    auto run = [&](bool use_simd) {
        RenderConfig cfg;
        cfg.use_simd = use_simd;
        RenderArena arena;
        renderForward(m, cam, subset, cfg, arena);
        GaussianGrads g;
        g.resize(m.size());
        renderBackward(m, cam, cfg, d_image, g, arena);
        return g;
    };
    GaussianGrads a = run(true);
    GaussianGrads b = run(false);
    for (size_t i = 0; i < m.size(); ++i) {
        EXPECT_NEAR(a.d_position[i].x, b.d_position[i].x,
                    1e-5 + 1e-3 * std::abs(b.d_position[i].x));
        EXPECT_NEAR(a.d_opacity[i], b.d_opacity[i],
                    1e-5 + 1e-3 * std::abs(b.d_opacity[i]));
        EXPECT_NEAR(a.d_sh[i * kShDim], b.d_sh[i * kShDim],
                    1e-5 + 1e-3 * std::abs(b.d_sh[i * kShDim]));
    }
}

TEST(SimdDispatch, ResolveBackendHonorsTokensAndSupport)
{
    const SimdBackend pref = simdPreferredBackend();
    EXPECT_TRUE(simdBackendSupported(pref));
    // No token: the CPUID-preferred backend.
    EXPECT_EQ(simdResolveBackend(nullptr, pref), pref);
    // Scalar is supported everywhere and always honored.
    EXPECT_EQ(simdResolveBackend("scalar", pref), SimdBackend::kScalar);
    // Any supported backend's own token resolves to itself.
    for (int b = 0; b < kNumSimdBackends; ++b) {
        const SimdBackend be = static_cast<SimdBackend>(b);
        if (simdBackendSupported(be))
            EXPECT_EQ(simdResolveBackend(simdBackendName(be), pref), be)
                << simdBackendName(be);
    }
    // Unknown tokens warn and keep the preferred choice.
    EXPECT_EQ(simdResolveBackend("banana", pref), pref);
    // The startup choice is supported and its kernel table exists and
    // self-identifies.
    const SimdBackend chosen = simdDispatchBackend();
    EXPECT_TRUE(simdBackendSupported(chosen));
    const RenderKernels &kern = renderKernels();
    EXPECT_EQ(kern.backend, chosen);
    EXPECT_STREQ(kern.name, simdBackendName(chosen));
    // Unsupported backends have no table; supported ones all do.
    for (int b = 0; b < kNumSimdBackends; ++b) {
        const SimdBackend be = static_cast<SimdBackend>(b);
        const RenderKernels *t = renderKernelsFor(be);
        EXPECT_EQ(t != nullptr, simdBackendSupported(be))
            << simdBackendName(be);
        if (t)
            EXPECT_EQ(t->backend, be);
    }
}

TEST(SimdDispatch, KernelTablesBitwiseIdenticalAcrossBackends)
{
    // THE dispatch-invariance guarantee: every backend's kernel table
    // runs the same IEEE op sequence, so forward images, activation
    // state, and backward gradients must match BIT FOR BIT across every
    // backend this CPU supports — on all five paper scenes (odd
    // resolution: partial tiles + lane tails).
    for (const SceneSpec &spec :
         {SceneSpec::bicycle(), SceneSpec::rubble(), SceneSpec::alameda(),
          SceneSpec::ithaca(), SceneSpec::bigCity()}) {
        GaussianModel m = generateGroundTruth(spec, 600);
        Camera cam = generateCameraPath(spec, 2, 97, 61)[0];
        auto subset = frustumCull(m, cam);
        Image d_image(97, 61, {0.3f, -0.2f, 0.1f});

        bool have_ref = false;
        RenderOutput ref_out;
        GaussianGrads ref_g;
        for (int b = 0; b < kNumSimdBackends; ++b) {
            const RenderKernels *kern =
                renderKernelsFor(static_cast<SimdBackend>(b));
            if (!kern)
                continue;
            RenderConfig cfg;
            cfg.kernels = kern;
            RenderArena arena;
            RenderOutput out = renderForward(m, cam, subset, cfg, arena);
            GaussianGrads g;
            g.resize(m.size());
            renderBackward(m, cam, cfg, d_image, g, arena);
            if (!have_ref) {
                ref_out = std::move(out);
                ref_g = std::move(g);
                have_ref = true;
                continue;
            }
            const char *name = kern->name;
            // Bitwise: float vectors compared as exact values.
            EXPECT_EQ(out.image.data(), ref_out.image.data())
                << spec.name << " image vs " << name;
            EXPECT_EQ(out.final_t, ref_out.final_t)
                << spec.name << " final_t vs " << name;
            EXPECT_EQ(out.n_contrib, ref_out.n_contrib)
                << spec.name << " n_contrib vs " << name;
            ASSERT_EQ(g.d_position.size(), ref_g.d_position.size());
            for (size_t i = 0; i < m.size(); ++i) {
                ASSERT_EQ(floatBits(g.d_position[i].x),
                          floatBits(ref_g.d_position[i].x))
                    << spec.name << " " << name << " row " << i;
                ASSERT_EQ(floatBits(g.d_position[i].y),
                          floatBits(ref_g.d_position[i].y))
                    << spec.name << " " << name << " row " << i;
                ASSERT_EQ(floatBits(g.d_opacity[i]),
                          floatBits(ref_g.d_opacity[i]))
                    << spec.name << " " << name << " row " << i;
                ASSERT_EQ(floatBits(g.d_log_scale[i].z),
                          floatBits(ref_g.d_log_scale[i].z))
                    << spec.name << " " << name << " row " << i;
                ASSERT_EQ(floatBits(g.d_sh[i * kShDim]),
                          floatBits(ref_g.d_sh[i * kShDim]))
                    << spec.name << " " << name << " row " << i;
            }
        }
        EXPECT_TRUE(have_ref);
    }
}

TEST(SimdCompositor, QualityHarnessPsnrDeltaUnder005Db)
{
    // The acceptance bound for the SIMD compositor: rendering the same
    // trainee against the same ground truth, PSNR moves by less than
    // 0.05 dB between the SIMD and scalar compositing paths.
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel gt_model = generateGroundTruth(spec, 1500);
    Camera cam = generateCameraPath(spec, 2, 160, 90)[0];
    RenderConfig scalar_cfg;
    scalar_cfg.use_simd = false;
    Image target = renderForward(gt_model, cam,
                                 frustumCull(gt_model, cam), scalar_cfg)
                       .image;

    GaussianModel trainee = makeTrainee(gt_model, 1500, 3);
    TwoPathRender r(trainee, cam);
    double psnr_simd = r.simd.image.psnr(target);
    double psnr_scalar = r.scalar.image.psnr(target);
    EXPECT_LT(std::abs(psnr_simd - psnr_scalar), 0.05)
        << "simd " << psnr_simd << " dB vs scalar " << psnr_scalar
        << " dB";
}

} // namespace
} // namespace clm
