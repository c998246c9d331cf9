/**
 * @file
 * SIMD kernel layer tests: F8 batch semantics, the documented exp8()
 * ULP bound against std::exp, parallel ≡ serial compositing at lane
 * tails, cross-table bitwise identity at every tile size, a golden hash
 * pinning the tile kernels' outputs and gradient partials, and the
 * checked staged-entry bound of TileStage::stageFrom.
 *
 * These tests run in every build flavor: under -DCLM_DISABLE_SIMD=ON
 * only the scalar kernel table is compiled, and it executes the same
 * IEEE op sequence as the vector tables, so the same pins must hold.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "math/simd.hpp"
#include "render/arena.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "render/simd_kernels.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"

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
        RenderConfig parallel;
        parallel.parallel = true;
        RenderOutput a = renderForward(m, cam, subset, serial);
        RenderOutput b = renderForward(m, cam, subset, parallel);
        EXPECT_EQ(a.image.data(), b.image.data());    // bitwise
        EXPECT_EQ(a.final_t, b.final_t);
        EXPECT_EQ(a.n_contrib, b.n_contrib);
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
        if (simdBackendSupported(be)) {
            EXPECT_EQ(simdResolveBackend(simdBackendName(be), pref), be)
                << simdBackendName(be);
        }
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
        if (t) {
            EXPECT_EQ(t->backend, be);
        }
    }
}

TEST(SimdDispatch, KernelTablesBitwiseIdenticalAcrossBackends)
{
    // THE dispatch-invariance guarantee: every backend's kernel table
    // runs the same IEEE op sequence, so forward images, activation
    // state, and backward gradients must match BIT FOR BIT across every
    // backend this CPU supports — on all five paper scenes (odd
    // resolution: partial tiles + lane tails) at every tile size the
    // kernels' block layouts distinguish.
    for (const SceneSpec &spec :
         {SceneSpec::bicycle(), SceneSpec::rubble(), SceneSpec::alameda(),
          SceneSpec::ithaca(), SceneSpec::bigCity()}) {
        for (int tile : {8, 16, 32}) {
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
                cfg.tile_size = tile;
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
                    << spec.name << " tile " << tile << " image vs " << name;
                EXPECT_EQ(out.final_t, ref_out.final_t)
                    << spec.name << " tile " << tile << " final_t vs " << name;
                EXPECT_EQ(out.n_contrib, ref_out.n_contrib)
                    << spec.name << " tile " << tile << " n_contrib vs "
                    << name;
                ASSERT_EQ(g.d_position.size(), ref_g.d_position.size());
                for (size_t i = 0; i < m.size(); ++i) {
                    ASSERT_EQ(floatBits(g.d_position[i].x),
                              floatBits(ref_g.d_position[i].x))
                        << spec.name << " tile " << tile << " " << name
                        << " row " << i;
                    ASSERT_EQ(floatBits(g.d_position[i].y),
                              floatBits(ref_g.d_position[i].y))
                        << spec.name << " tile " << tile << " " << name
                        << " row " << i;
                    ASSERT_EQ(floatBits(g.d_opacity[i]),
                              floatBits(ref_g.d_opacity[i]))
                        << spec.name << " tile " << tile << " " << name
                        << " row " << i;
                    ASSERT_EQ(floatBits(g.d_log_scale[i].z),
                              floatBits(ref_g.d_log_scale[i].z))
                        << spec.name << " tile " << tile << " " << name
                        << " row " << i;
                    ASSERT_EQ(floatBits(g.d_sh[i * kShDim]),
                              floatBits(ref_g.d_sh[i * kShDim]))
                        << spec.name << " tile " << tile << " " << name
                        << " row " << i;
                }
            }
            EXPECT_TRUE(have_ref);
        }
    }
}

/** FNV-1a over 32-bit words. NaNs hash as one canonical pattern, so the
 *  pin does not depend on a backend's default-NaN payload. */
struct GoldenHash
{
    uint64_t h = 1469598103934665603ull;

    void word(uint32_t w)
    {
        for (int k = 0; k < 4; ++k) {
            h ^= (w >> (8 * k)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    void value(float x)
    {
        word(std::isnan(x) ? 0x7fc00000u
                           : static_cast<uint32_t>(floatBits(x)));
    }
};

/** One staged frame: what a forward leaves for the tile kernels. */
struct GoldenFrame
{
    int width = 0, height = 0, tile = 16;
    std::vector<ProjectedGaussian> projected;
    std::vector<uint32_t> isect_vals;
    std::vector<TileRange> tile_ranges;
    std::vector<float> alpha_cut, row_k;
};

/** A real scene's frame, staged by a forward render at @p tile. */
GoldenFrame
sceneFrame(const SceneSpec &spec, int w, int h, int tile)
{
    GaussianModel m = generateGroundTruth(spec, 250);
    Camera cam = generateCameraPath(spec, 2, w, h)[0];
    RenderConfig cfg;
    cfg.tile_size = tile;
    RenderArena arena;
    renderForward(m, cam, frustumCull(m, cam), cfg, arena);
    const RenderArena::View &av = arena.views[0];
    GoldenFrame f;
    f.width = w;
    f.height = h;
    f.tile = tile;
    f.projected = av.out.projected;
    f.isect_vals = av.out.isect_vals;
    f.tile_ranges = av.out.tile_ranges;
    f.alpha_cut = av.alpha_cut;
    f.row_k = av.row_k;
    return f;
}

/** A hand-built frame whose every tile lists the same entries, front to
 *  back: footprints that pass the row cut in only one row of a row
 *  pair, opaque splats that terminate lanes early, and NaN/+-Inf
 *  means, conics and opacities. */
GoldenFrame
syntheticFrame(int w, int h, int tile)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    struct Entry
    {
        float mx, my, ca, cb, cc, op, cut, rk;
    };
    const Entry entries[] = {
        // Thin horizontal: |dy| <= 0.9 passes, so of the rows 1 and 2
        // around y = 2 each pair sees one.
        {9.3f, 2.0f, 0.02f, 0.0f, 10.0f, 0.8f, -4.0f, 10.0f},
        {3.7f, 11.0f, 0.05f, 0.01f, 9.0f, 0.7f, -4.5f, 9.0f},
        // Broad, soft splats.
        {5.5f, 6.5f, 0.03f, 0.004f, 0.04f, 0.5f, -4.8f, 0.039f},
        {17.2f, 9.1f, 0.02f, -0.006f, 0.03f, 0.6f, -5.0f, 0.028f},
        // Opaque splats: alpha clamps at 0.99, lanes terminate.
        {8.0f, 8.0f, 0.15f, 0.0f, 0.15f, 0.999f, -6.0f, 0.15f},
        {20.0f, 4.0f, 0.12f, 0.02f, 0.18f, 0.995f, -6.0f, 0.1767f},
        {12.0f, 14.0f, 0.2f, 0.0f, 0.2f, 0.999f, -6.0f, 0.2f},
        {2.0f, 15.0f, 0.06f, 0.01f, 0.05f, 0.9f, -5.5f, 0.048f},
        // Non-finite parameters, at the back so finite entries
        // composite first.
        {nan, 5.0f, 0.05f, 0.0f, 0.05f, 0.7f, -4.5f, 0.05f},
        {6.0f, inf, 0.05f, 0.0f, 0.05f, 0.7f, -4.5f, 0.05f},
        {-inf, 3.0f, 0.05f, 0.0f, 0.05f, 0.7f, -4.5f, 0.05f},
        {7.0f, 7.0f, nan, 0.0f, 0.05f, 0.7f, -4.5f, nan},
        {7.5f, 9.0f, 0.05f, inf, 0.05f, 0.7f, -4.5f, -inf},
        {4.0f, 4.0f, 0.05f, 0.0f, -inf, 0.7f, -4.5f, 0.05f},
        {10.0f, 12.0f, 0.05f, 0.0f, 0.05f, nan, nan, 0.05f},
        {14.0f, 6.0f, 0.05f, 0.0f, 0.05f, inf, -inf, 0.05f},
    };
    GoldenFrame f;
    f.width = w;
    f.height = h;
    f.tile = tile;
    uint32_t s = 0;
    for (const Entry &e : entries) {
        ProjectedGaussian g;
        g.valid = true;
        g.mean2d = {e.mx, e.my};
        g.conic_a = e.ca;
        g.conic_b = e.cb;
        g.conic_c = e.cc;
        g.opacity = e.op;
        g.color = {0.1f + 0.05f * s, 0.9f - 0.04f * s, 0.3f};
        f.projected.push_back(g);
        f.alpha_cut.push_back(e.cut);
        f.row_k.push_back(e.rk);
        ++s;
    }
    const int tiles = ((w + tile - 1) / tile) * ((h + tile - 1) / tile);
    for (int t = 0; t < tiles; ++t) {
        TileRange r;
        r.begin = static_cast<uint32_t>(f.isect_vals.size());
        for (uint32_t j = 0; j < s; ++j)
            f.isect_vals.push_back(j);
        r.end = static_cast<uint32_t>(f.isect_vals.size());
        f.tile_ranges.push_back(r);
    }
    return f;
}

/**
 * Composite, then replay, every tile of @p f through @p kern's kernels,
 * called directly (no pool, so nothing depends on the thread count),
 * and hash the image, final_t, n_contrib and every tile's grad8 blocks.
 * Returns false when a kernel writes a grad8 block past the staged
 * entries.
 */
bool
hashFrame(const RenderKernels &kern, const GoldenFrame &f,
          GoldenHash &hash)
{
    const int w = f.width, h = f.height, tile = f.tile;
    const int tiles_x = (w + tile - 1) / tile;
    const size_t npix = static_cast<size_t>(w) * h;
    std::vector<float> image(npix * 3, -1.0f), final_t(npix, -1.0f);
    std::vector<uint32_t> n_contrib(npix, 0xffffffffu);
    std::vector<float> d_image(npix * 3);
    for (size_t i = 0; i < d_image.size(); ++i)
        d_image[i] =
            static_cast<float>((i * 2654435761u >> 8) & 0xffff) / 65536.0f
            - 0.5f;
    const Vec3 background{0.2f, 0.1f, 0.3f};
    const float alpha_min = 1.0f / 255.0f;
    TileStage stage;
    std::vector<float> g8;
    bool clean = true;
    for (size_t t = 0; t < f.tile_ranges.size(); ++t) {
        const TileRange range = f.tile_ranges[t];
        const size_t len = range.size();
        if (len == 0)
            continue;
        const int px0 = static_cast<int>(t) % tiles_x * tile;
        const int py0 = static_cast<int>(t) / tiles_x * tile;
        const int px1 = std::min(px0 + tile, w);
        const int py1 = std::min(py0 + tile, h);
        stage.stageFrom(f.projected, f.isect_vals, range, f.alpha_cut,
                        f.row_k, /*stage_soa=*/true);
        CompositeTileArgs a;
        a.hot = stage.hot.data();
        a.colors = stage.color.data();
        a.len = len;
        a.px0 = px0;
        a.px1 = px1;
        a.py0 = py0;
        a.py1 = py1;
        a.width = w;
        a.alpha_min = alpha_min;
        a.t_min = 1e-4f;
        a.background = background;
        a.image = image.data();
        a.final_t = final_t.data();
        a.n_contrib = n_contrib.data();
        kern.composite_tile(a);
        const size_t block = static_cast<size_t>(kG8Comps) * 8;
        // One guard block past the staged entries.
        g8.assign((len + 1) * block, 0.0f);
        BackwardTileArgs b;
        b.mean_x = stage.soa_mean_x.data();
        b.mean_y = stage.soa_mean_y.data();
        b.conic_a = stage.soa_conic_a.data();
        b.conic_b = stage.soa_conic_b.data();
        b.conic_c = stage.soa_conic_c.data();
        b.power_cut = stage.soa_power_cut.data();
        b.row_k = stage.soa_row_k.data();
        b.opacity = stage.soa_opacity.data();
        b.color_r = stage.soa_color_r.data();
        b.color_g = stage.soa_color_g.data();
        b.color_b = stage.soa_color_b.data();
        b.len = len;
        b.px0 = px0;
        b.px1 = px1;
        b.py0 = py0;
        b.py1 = py1;
        b.width = w;
        b.alpha_min = alpha_min;
        b.background = background;
        b.final_t = final_t.data();
        b.n_contrib = n_contrib.data();
        b.d_image = d_image.data();
        b.grad8 = g8.data();
        kern.backward_tile(b);
        for (size_t i = 0; i < len * block; ++i)
            hash.value(g8[i]);
        for (size_t i = len * block; i < g8.size(); ++i)
            clean = clean && floatBits(g8[i]) == 0;
    }
    for (float x : image)
        hash.value(x);
    for (float x : final_t)
        hash.value(x);
    for (uint32_t n : n_contrib)
        hash.word(n);
    return clean;
}

TEST(SimdGolden, TileKernelsMatchPinnedHash)
{
    // Every compiled kernel table, called tile by tile, must reproduce
    // the pinned hash of the pre-block (one 8-pixel group per pass)
    // kernels: a change to the tile kernels' loop structure has to keep
    // every lane's IEEE op sequence and every grad8 addition order.
    // Shapes: widths 96..103 (all lane tails), heights whose last tile
    // row count is odd or 1, tile_size 8/16/32, and a hand-built frame
    // with one-row-of-a-pair entries, early termination and
    // non-finite parameters.
    std::vector<GoldenFrame> frames;
    for (int tile : {8, 16, 32}) {
        for (int w = 96; w <= 103; ++w)
            frames.push_back(sceneFrame(SceneSpec::bicycle(), w, 61, tile));
        frames.push_back(sceneFrame(SceneSpec::rubble(), 100, 49, tile));
        frames.push_back(syntheticFrame(21, 19, tile));
        frames.push_back(syntheticFrame(40, 17, tile));
    }
    const uint64_t kPinned = 0x775f8dd77c90b87dull;
    int tables = 0;
    for (int b = 0; b < kNumSimdBackends; ++b) {
        const RenderKernels *kern =
            renderKernelsFor(static_cast<SimdBackend>(b));
        if (!kern)
            continue;
        ++tables;
        GoldenHash hash;
        for (const GoldenFrame &f : frames) {
            EXPECT_TRUE(hashFrame(*kern, f, hash))
                << kern->name << " wrote past the staged entries";
        }
        EXPECT_EQ(hash.h, kPinned)
            << kern->name << " hash 0x" << std::hex << hash.h;
    }
    EXPECT_GE(tables, 1);
}

TEST(SimdGolden, BackwardLeavesGrad8ScratchZero)
{
    // The flush re-zeroes each grad8 block after reducing it, so the
    // replay tasks' partial buffers stay all-zero between tiles (the
    // invariant that lets the next tile skip a cold memset).
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 600);
    for (int tile : {8, 16, 32}) {
        Camera cam = generateCameraPath(spec, 2, 97, 61)[0];
        auto subset = frustumCull(m, cam);
        Image d_image(97, 61, {0.3f, -0.2f, 0.1f});
        RenderConfig cfg;
        cfg.tile_size = tile;
        RenderArena arena;
        renderForward(m, cam, subset, cfg, arena);
        GaussianGrads g;
        g.resize(m.size());
        renderBackward(m, cam, cfg, d_image, g, arena);
        size_t nonzero = 0, total = 0;
        for (const auto &buf : arena.grad8_scratch) {
            total += buf.size();
            for (float x : buf)
                nonzero += floatBits(x) != 0;
        }
        EXPECT_EQ(nonzero, 0u) << "tile " << tile;
        EXPECT_GT(total, 0u) << "tile " << tile;
    }
}

TEST(TileStage, StagedEntryBoundIsChecked)
{
    // A tile of 2^24 entries would overflow the kernels' float-lane
    // position tracking: stageFrom must refuse it before reading any
    // input, so empty inputs suffice.
    TileStage stage;
    const std::vector<ProjectedGaussian> projected;
    const std::vector<uint32_t> isect_vals;
    const std::vector<float> cuts;
    const TileRange range{0, uint32_t(kSimdMaxStagedEntries)};
    EXPECT_THROW(stage.stageFrom(projected, isect_vals, range, cuts, cuts),
                 std::logic_error);
    EXPECT_THROW(stage.stageFrom(projected, isect_vals, range, cuts, cuts,
                                 /*stage_soa=*/true),
                 std::logic_error);
    EXPECT_TRUE(stage.hot.empty());
}

} // namespace
} // namespace clm
