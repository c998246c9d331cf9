/**
 * @file
 * Flat key-sorted binning tests: the reusable stable radix sort against
 * std::stable_sort, depth-key monotonicity, the clamped float->int cast
 * helpers, and the render pipeline's fused binning (single views and
 * multi-view batches) against a brute-force per-tile reference built
 * with independent code.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "math/rng.hpp"
#include "render/batch.hpp"
#include "render/binning.hpp"
#include "render/camera.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"

namespace clm {
namespace {

void
checkAgainstStableSort(std::vector<uint64_t> keys, int key_bits,
                       bool parallel)
{
    const size_t n = keys.size();
    std::vector<uint32_t> vals(n);
    std::iota(vals.begin(), vals.end(), 0u);

    // Reference: stable sort of (key, original index) pairs.
    std::vector<std::pair<uint64_t, uint32_t>> ref(n);
    for (size_t i = 0; i < n; ++i)
        ref[i] = {keys[i], vals[i]};
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    std::vector<uint64_t> ks, vs_k;
    std::vector<uint32_t> vs;
    radixSortPairs(keys, vals, ks, vs, key_bits, parallel);
    ASSERT_EQ(keys.size(), n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(keys[i], ref[i].first) << "key at " << i;
        EXPECT_EQ(vals[i], ref[i].second) << "stability at " << i;
    }
}

TEST(RadixSort, MatchesStableSortWithDuplicates)
{
    Rng rng(1);
    std::vector<uint64_t> keys(5000);
    for (auto &k : keys)
        // Few distinct values -> many stability-relevant ties.
        k = static_cast<uint64_t>(rng.uniformInt(0, 50)) << 32
          | static_cast<uint64_t>(rng.uniformInt(0, 20));
    checkAgainstStableSort(keys, 64, true);
    checkAgainstStableSort(keys, 64, false);
}

TEST(RadixSort, FullWidthRandomKeys)
{
    Rng rng(2);
    std::vector<uint64_t> keys(3000);
    for (auto &k : keys)
        k = (static_cast<uint64_t>(rng.uniformInt(0, int64_t{1} << 60))
             << 3)
          ^ static_cast<uint64_t>(rng.uniformInt(0, int64_t{1} << 40));
    checkAgainstStableSort(keys, 64, true);
}

TEST(RadixSort, TruncatedKeyBitsSortLowBitsOnly)
{
    // With key_bits = 16, only the low 16 bits participate; equal low
    // bits keep their original order regardless of high bits.
    std::vector<uint64_t> keys{0xff00000000000002ull,
                               0x0000000000000001ull,
                               0x1100000000000002ull,
                               0x0000000000000000ull};
    std::vector<uint32_t> vals{0, 1, 2, 3};
    std::vector<uint64_t> ks;
    std::vector<uint32_t> vs;
    radixSortPairs(keys, vals, ks, vs, 16, false);
    EXPECT_EQ(vals, (std::vector<uint32_t>{3, 1, 0, 2}));
}

TEST(RadixSort, EmptyAndSingleton)
{
    std::vector<uint64_t> keys, ks;
    std::vector<uint32_t> vals, vs;
    radixSortPairs(keys, vals, ks, vs);
    EXPECT_TRUE(keys.empty());

    keys = {42};
    vals = {7};
    radixSortPairs(keys, vals, ks, vs);
    EXPECT_EQ(keys[0], 42u);
    EXPECT_EQ(vals[0], 7u);
}

TEST(RadixSort, LargeInputUsesWideDigits)
{
    // Cross the 65536 threshold so the 11-bit-digit path runs.
    Rng rng(3);
    std::vector<uint64_t> keys(70000);
    for (auto &k : keys)
        k = static_cast<uint64_t>(rng.uniformInt(0, 1 << 20)) << 32
          | static_cast<uint64_t>(rng.uniformInt(0, INT32_MAX));
    checkAgainstStableSort(keys, 52, true);
}

TEST(DepthBits, MonotonicForNonNegativeFloats)
{
    std::vector<float> depths{0.0f,    1e-30f, 0.099f, 0.1f, 1.0f,
                              1.0001f, 7.25f,  1e4f,   3e38f};
    for (size_t i = 1; i < depths.size(); ++i)
        EXPECT_LT(depthBits(depths[i - 1]), depthBits(depths[i]))
            << depths[i - 1] << " vs " << depths[i];
    EXPECT_EQ(depthBits(2.5f), depthBits(2.5f));
}

TEST(ClampedCasts, BoundsAndExtremes)
{
    EXPECT_EQ(clampedFloor(3.7f, 0, 10), 3);
    EXPECT_EQ(clampedFloor(-3.7f, 0, 10), 0);
    EXPECT_EQ(clampedFloor(12.0f, 0, 10), 10);
    EXPECT_EQ(clampedFloor(1e30f, 0, 10), 10);
    EXPECT_EQ(clampedFloor(-1e30f, 0, 10), 0);
    EXPECT_EQ(clampedFloor(std::nanf(""), 0, 10), 0);
    EXPECT_EQ(clampedCeil(3.2f, 0, 10), 4);
    EXPECT_EQ(clampedCeil(-0.5f, -3, 10), 0);
    EXPECT_EQ(clampedCeil(1e30f, 0, 10), 10);
    EXPECT_EQ(clampedCeil(std::nanf(""), -2, 10), -2);
    // Exact boundary values.
    EXPECT_EQ(clampedFloor(10.0f, 0, 10), 10);
    EXPECT_EQ(clampedFloor(0.0f, 0, 10), 0);
}

TEST(TileGrid, CoversImage)
{
    TileGrid g = TileGrid::forImage(100, 33, 16);
    EXPECT_EQ(g.tiles_x, 7);
    EXPECT_EQ(g.tiles_y, 3);
    EXPECT_EQ(g.tileCount(), 21u);
}

/** Randomized cross-check: flat binning == brute-force per-tile lists.
 *  The reference bins with the plain square bound and sorts each tile
 *  with std::stable_sort by (depth, subset position) — independent code
 *  exercising the count/scan/fill/radix/carve machinery end to end. */
void
expectMatchesBruteForce(const RenderOutput &out, const Camera &cam,
                        const RenderConfig &cfg)
{
    TileGrid grid =
        TileGrid::forImage(cam.width(), cam.height(), cfg.tile_size);
    std::vector<std::vector<uint32_t>> ref(grid.tileCount());
    for (size_t s = 0; s < out.projected.size(); ++s) {
        const ProjectedGaussian &p = out.projected[s];
        if (!p.valid || p.radius <= 0.0f)
            continue;
        int x0 = std::max(
            0, static_cast<int>(std::floor((p.mean2d.x - p.radius)
                                           / cfg.tile_size)));
        int x1 = std::min(
            grid.tiles_x - 1,
            static_cast<int>(std::floor((p.mean2d.x + p.radius)
                                        / cfg.tile_size)));
        int y0 = std::max(
            0, static_cast<int>(std::floor((p.mean2d.y - p.radius)
                                           / cfg.tile_size)));
        int y1 = std::min(
            grid.tiles_y - 1,
            static_cast<int>(std::floor((p.mean2d.y + p.radius)
                                        / cfg.tile_size)));
        for (int ty = y0; ty <= y1; ++ty)
            for (int tx = x0; tx <= x1; ++tx)
                ref[static_cast<size_t>(ty) * grid.tiles_x + tx].push_back(
                    static_cast<uint32_t>(s));
    }
    for (auto &list : ref)
        std::stable_sort(list.begin(), list.end(),
                         [&](uint32_t a, uint32_t b) {
                             return out.projected[a].depth
                                  < out.projected[b].depth;
                         });

    ASSERT_EQ(out.tile_ranges.size(), ref.size());
    size_t total = 0;
    for (size_t t = 0; t < ref.size(); ++t) {
        const TileRange r = out.tile_ranges[t];
        ASSERT_EQ(r.size(), ref[t].size()) << "tile " << t;
        for (size_t j = 0; j < ref[t].size(); ++j)
            EXPECT_EQ(out.isect_vals[r.begin + j], ref[t][j])
                << "tile " << t << " pos " << j;
        total += ref[t].size();
    }
    EXPECT_EQ(out.totalTileIntersections(), total);
}

TEST(FlatBinning, MatchesBruteForcePerTileReference)
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 900);
    auto cams = generateCameraPath(spec, 3, 120, 72);
    RenderConfig cfg;
    cfg.exact_tile_bounds = false;    // reference uses square bound
    for (const Camera &cam : cams) {
        SCOPED_TRACE("batch of one");
        auto subset = frustumCull(m, cam);
        expectMatchesBruteForce(renderForward(m, cam, subset, cfg), cam,
                                cfg);
    }

    // 3-view batches — one uniform, one with a second resolution (a
    // different tile grid) — whose per-view ranges are carved out of
    // one fused key buffer: each view must still match its reference.
    std::vector<Camera> mixed = {cams[0],
                                 generateCameraPath(spec, 3, 88, 40)[1],
                                 cams[2]};
    for (const std::vector<Camera> &batch : {cams, mixed}) {
        std::vector<std::vector<uint32_t>> subsets;
        for (const Camera &cam : batch)
            subsets.push_back(frustumCull(m, cam));
        RenderArena arena;
        renderForwardBatch(m, batch, subsets, cfg, arena);
        for (size_t v = 0; v < batch.size(); ++v) {
            SCOPED_TRACE("batch view " + std::to_string(v));
            expectMatchesBruteForce(arena.views[v].out, batch[v], cfg);
        }
    }
}

/** The exact overlap test may only ever *drop* intersections, and must
 *  leave the rendered image and transmittance bitwise unchanged. */
TEST(FlatBinning, ExactTileBoundsAreImageNeutral)
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, 1200);
    Rng rng(9);
    // Mix in low opacities so the cut radius varies widely.
    for (size_t i = 0; i < m.size(); i += 3)
        m.rawOpacity(i) = inverseSigmoid(rng.uniform(0.02f, 0.3f));
    auto cams = generateCameraPath(spec, 3, 150, 90);
    for (const Camera &cam : cams) {
        auto subset = frustumCull(m, cam);
        RenderConfig square;
        square.exact_tile_bounds = false;
        RenderConfig exact;
        exact.exact_tile_bounds = true;
        RenderOutput a = renderForward(m, cam, subset, square);
        RenderOutput b = renderForward(m, cam, subset, exact);
        EXPECT_LE(b.totalTileIntersections(),
                  a.totalTileIntersections());
        EXPECT_EQ(a.image.data(), b.image.data());    // bitwise
        EXPECT_EQ(a.final_t, b.final_t);
    }
}

} // namespace
} // namespace clm
