/**
 * @file
 * Flat key-sorted tile binning for the rasterizer — the CPU analogue of the
 * gsplat intersection pipeline. Instead of one heap-allocated vector per
 * touched tile, footprints are expanded into a single flat buffer of
 * 64-bit `(tile_id << 32 | depth_bits)` keys by a count → exclusive-scan →
 * fill pass, sorted once with a stable parallel radix sort, and exposed as
 * contiguous per-tile ranges. The output is the unique stable sort of the
 * intersections, so it is bitwise-identical whether built serially or in
 * parallel, with depth ties broken by subset position. The pass itself
 * runs inside the fused render pipeline (render/batch.cpp) over every
 * view of a batch at once; this header holds its building blocks.
 *
 * Also hosts the exact circle-vs-tile-rect overlap test: the classic
 * square bound bins corner tiles the footprint never reaches. A tile can
 * be dropped *provably without changing the rendered image* when every
 * pixel-center in it is farther from the footprint center than the radius
 * at which `opacity * exp(-0.5 * d^T conic d)` falls below the
 * rasterizer's alpha_min cut (using d^T conic d >= lambda_min(conic) *
 * |d|^2, under-estimated with an error budget; see footprintCutRadius2)
 * — those pixels would be skipped by the per-pixel alpha test anyway.
 */

#ifndef CLM_RENDER_BINNING_HPP
#define CLM_RENDER_BINNING_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "render/projection.hpp"

namespace clm {

/** Width in bits of @p v (index of the highest set bit, plus one; 0
 *  for 0) — sizes the tile field of the radixSortPairs key so sort
 *  passes over known-zero bits are skipped. */
inline int
bitWidth(uint32_t v)
{
    int bits = 0;
    while (v != 0) {
        ++bits;
        v >>= 1;
    }
    return bits;
}

/** floor(@p v) clamped into [@p lo, @p hi] — the clamp happens in float
 *  space, so out-of-int-range (or NaN) inputs never hit the undefined
 *  float-to-int cast. NaN clamps to @p lo. */
inline int
clampedFloor(float v, int lo, int hi)
{
    float f = std::floor(v);
    if (!(f > static_cast<float>(lo)))
        return lo;
    if (f >= static_cast<float>(hi))
        return hi;
    return static_cast<int>(f);
}

/** ceil(@p v) clamped into [@p lo, @p hi]; NaN clamps to @p lo. */
inline int
clampedCeil(float v, int lo, int hi)
{
    float c = std::ceil(v);
    if (!(c > static_cast<float>(lo)))
        return lo;
    if (c >= static_cast<float>(hi))
        return hi;
    return static_cast<int>(c);
}

/** Tile decomposition of a render target. */
struct TileGrid
{
    int tiles_x = 0;
    int tiles_y = 0;
    int tile_size = 16;    //!< Square tile edge in pixels.
    int width = 0;         //!< Render target width in pixels.
    int height = 0;        //!< Render target height in pixels.

    size_t tileCount() const
    { return static_cast<size_t>(tiles_x) * tiles_y; }

    /** Grid covering a @p width x @p height target. */
    static TileGrid forImage(int width, int height, int tile_size);
};

/** Half-open range [begin, end) into the sorted intersection buffer. */
struct TileRange
{
    uint32_t begin = 0;
    uint32_t end = 0;

    uint32_t size() const { return end - begin; }
};

/** One footprint's candidate tile rectangle (inclusive tile indices;
 *  empty when x0 > x1 or y0 > y1) plus its exact-overlap cut radius. */
struct TileSpan
{
    int x0 = 0, x1 = -1;
    int y0 = 0, y1 = -1;
    /** Squared pixel distance beyond which the footprint provably cannot
     *  pass the alpha_min test; +inf disables the exact test. */
    float cut2 = 0.0f;

    bool empty() const { return x0 > x1 || y0 > y1; }
};

/** Reusable scratch of the fused binning pass (render/batch.cpp; lives
 *  in RenderArena): per-entry spans and offsets, keys, radix buffers. */
struct BinningScratch
{
    std::vector<TileSpan> spans;        //!< Per-subset-entry candidate span.
    std::vector<uint32_t> offsets;      //!< Exclusive scan of tile counts.
    std::vector<uint64_t> keys;         //!< (tile << 32 | depth) sort keys.
    std::vector<uint64_t> keys_tmp;     //!< Radix ping-pong buffers.
    std::vector<uint32_t> vals_tmp;
    std::vector<uint32_t> hist;         //!< Radix per-chunk histograms.

    /** Bytes currently held (for memory accounting). */
    size_t bytes() const;
};

/** Order-preserving bit pattern of a non-negative depth (monotonic:
 *  a < b  <=>  depthBits(a) < depthBits(b) for all finite a, b >= 0). */
uint32_t depthBits(float depth);

/**
 * Squared pixel radius beyond which @p p provably cannot pass the
 * rasterizer's `alpha >= alpha_min` test (see file comment): dropping
 * pixels or tiles farther out can never change the rendered image. The
 * bound is derived from the float conic the pixel test evaluates, with
 * a conservative error budget; ill-conditioned conics return +infinity
 * ("no cut") rather than risk a wrong drop. Returns a negative value
 * for invalid footprints.
 */
float footprintCutRadius2(const ProjectedGaussian &p, float alpha_min);

/** Margin (in power units) under which a whole-row power bound is
 *  trusted to skip a row; generous relative to the float rounding of
 *  the bound and of the power evaluation near the threshold. */
constexpr float kRowCutMargin = 1e-2f;

/**
 * Relative error budget charged against every conic-derived bound
 * (det = a*c - b^2, c - b^2/a, eigenvalues): the true rounding error of
 * these expressions is a few ulp (~1e-7) of the *un-cancelled* term
 * magnitudes, so deducting 1e-4 of those magnitudes over-covers it by
 * ~1000x — including the additional float-evaluation error of the
 * per-pixel power itself, which scales with the same magnitudes. For
 * ill-conditioned (needle) conics the deduction drives the bound to
 * its safe fallback (no cut) instead of risking a wrong drop.
 */
constexpr float kConicEps = 1e-4f;

/** Absolute margin (in log-alpha space, where one float ulp is ~1e-6)
 *  on the per-Gaussian alpha-cut power threshold. */
constexpr float kPowerCutMargin = 1e-4f;

/**
 * Per-Gaussian alpha-cut power threshold: `power < alphaCutPower(...)`
 * guarantees `opacity * exp(power) < alpha_min`, so the compositor can
 * skip the (expensive) exp for the vast majority of missing
 * pixel/Gaussian pairs; the exact alpha test still runs near the
 * boundary, so results stay bitwise identical. Computed once per
 * distinct Gaussian of a batch by the render pipeline's projection.
 * @p opacity must be > 0 (a sigmoid output).
 */
inline float
alphaCutPower(float opacity, float alpha_min)
{
    // alpha = opacity * exp(power) < alpha_min is mathematically
    // power < ln(alpha_min / opacity); the absolute margin absorbs the
    // rounding of log/exp/multiply, so skipping below the threshold can
    // never drop a pair the exact test would have accepted.
    return std::log(alpha_min / opacity) - kPowerCutMargin;
}

/**
 * Vertical conic curvature `c - b^2/a` with its cancellation-error
 * budget deducted: the best power any pixel with vertical offset dy can
 * reach is `-0.5 * rowCurvature(p) * dy^2`, so a whole pixel row is
 * provably missed when that bound (plus kRowCutMargin) is below the
 * alpha-cut threshold. Needle conics clamp to 0 = "never skip a row".
 */
inline float
rowCurvature(const ProjectedGaussian &p)
{
    // max over dx of power(dx, dy) is -0.5 * (c - b^2/a) * dy^2
    // (complete the square; a > 0 whenever the conic is valid).
    if (!(p.conic_a > 0.0f))
        return 0.0f;
    float cross = p.conic_b * p.conic_b / p.conic_a;
    float k = p.conic_c - cross
            - kConicEps * (std::fabs(p.conic_c) + cross);
    return std::max(k, 0.0f);
}

/** Below this many subset entries, parallelizing a per-entry backward
 *  pass (gradient reduction, projection chaining) costs more than it
 *  saves. */
constexpr size_t kMinParallelSubset = 256;

/**
 * Candidate tile rectangle of @p p on @p grid — the 3-sigma square bound,
 * clamped to the grid — plus the exact-overlap cut radius (see file
 * comment). @p exact_bounds off sets cut2 = +inf, reproducing the plain
 * square binning.
 */
TileSpan computeTileSpan(const ProjectedGaussian &p, const TileGrid &grid,
                         float alpha_min, bool exact_bounds);

/**
 * Does @p p's footprint reach tile (@p tx, @p ty)? True when the tile's
 * pixel-center rectangle comes within sqrt(span.cut2) pixels of the
 * footprint center. Callers iterate tiles inside @p span only. Inline:
 * it runs once per candidate tile in the binning count and fill passes.
 */
inline bool
tileOverlaps(const ProjectedGaussian &p, const TileSpan &span, int tx,
             int ty, const TileGrid &grid)
{
    // Distance from the footprint center to the tile's pixel-center
    // rectangle (compositing samples pixel centers at +0.5).
    float rx0 = tx * grid.tile_size + 0.5f;
    float rx1 = std::min((tx + 1) * grid.tile_size, grid.width) - 0.5f;
    float ry0 = ty * grid.tile_size + 0.5f;
    float ry1 = std::min((ty + 1) * grid.tile_size, grid.height) - 0.5f;
    float dx = p.mean2d.x - std::clamp(p.mean2d.x, rx0, rx1);
    float dy = p.mean2d.y - std::clamp(p.mean2d.y, ry0, ry1);
    return dx * dx + dy * dy <= span.cut2;
}

/**
 * Stable LSD radix sort of @p keys with @p vals carried along, least
 * significant byte first. Only the low @p key_bits bits participate
 * (pass 64 for a full sort; fewer known-significant bits skip passes).
 * The sorted result is guaranteed to end up in @p keys / @p vals; the
 * scratch vectors are resized as needed and their contents are garbage
 * afterwards. The output is the unique stable sort, so it does not depend
 * on thread count or on @p parallel.
 *
 * @param hist_scratch Optional reusable histogram buffer (hot-loop
 *        callers pass BinningScratch::hist to avoid a per-call
 *        allocation); nullptr allocates locally.
 */
void radixSortPairs(std::vector<uint64_t> &keys,
                    std::vector<uint32_t> &vals,
                    std::vector<uint64_t> &keys_scratch,
                    std::vector<uint32_t> &vals_scratch, int key_bits = 64,
                    bool parallel = true,
                    std::vector<uint32_t> *hist_scratch = nullptr);

} // namespace clm

#endif // CLM_RENDER_BINNING_HPP
