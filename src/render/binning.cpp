#include "render/binning.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

namespace {

/** Minimum items per radix chunk (keeps histogram overhead amortized). */
constexpr size_t kMinRadixChunk = 4096;

size_t
chunkCount(size_t n, size_t min_chunk, bool parallel)
{
    if (!parallel || n < 2 * min_chunk)
        return 1;
    size_t by_size = n / min_chunk;
    return std::max<size_t>(
        1, std::min<size_t>(ThreadPool::global().threads(), by_size));
}

/** Run @p body(chunk_index) over [0, n_chunks), possibly in parallel. */
template <typename Body>
void
forEachChunk(size_t n_chunks, const Body &body)
{
    if (n_chunks <= 1) {
        for (size_t c = 0; c < n_chunks; ++c)
            body(c);
        return;
    }
    ThreadPool::global().parallelFor(n_chunks,
                                     [&](size_t begin, size_t end) {
                                         for (size_t c = begin; c < end;
                                              ++c)
                                             body(c);
                                     });
}

} // namespace

TileGrid
TileGrid::forImage(int width, int height, int tile_size)
{
    CLM_ASSERT(tile_size > 0, "bad tile size");
    TileGrid g;
    g.tile_size = tile_size;
    g.width = width;
    g.height = height;
    g.tiles_x = (width + tile_size - 1) / tile_size;
    g.tiles_y = (height + tile_size - 1) / tile_size;
    return g;
}

size_t
BinningScratch::bytes() const
{
    return spans.capacity() * sizeof(TileSpan)
         + offsets.capacity() * sizeof(uint32_t)
         + hist.capacity() * sizeof(uint32_t)
         + keys.capacity() * sizeof(uint64_t)
         + keys_tmp.capacity() * sizeof(uint64_t)
         + vals_tmp.capacity() * sizeof(uint32_t);
}

uint32_t
depthBits(float depth)
{
    // Non-negative IEEE floats compare like their bit patterns.
    uint32_t bits;
    std::memcpy(&bits, &depth, sizeof(bits));
    return bits;
}

float
footprintCutRadius2(const ProjectedGaussian &p, float alpha_min)
{
    if (!p.valid || p.radius <= 0.0f)
        return -1.0f;
    // alpha = opacity * exp(-0.5 q) with q = d^T conic d >=
    // lambda_min(conic) * |d|^2, so alpha < alpha_min is guaranteed once
    // |d|^2 > 2 ln(opacity / alpha_min) / lambda_min. The bound is
    // computed from the float conic the pixel test actually evaluates
    // (not from cov2d — the conic carries the inversion's conditioning
    // error), with lambda_min under-estimated via a safe determinant
    // (det minus its cancellation-error budget, over the stable
    // det / lambda_max form). Ill-conditioned conics fall back to
    // "no cut" instead of risking a drop the pixel test would keep.
    float ratio = alpha_min > 0.0f
                      ? p.opacity / alpha_min
                      : std::numeric_limits<float>::infinity();
    if (ratio <= 1.0f)
        return 0.0f;    // can only pass the alpha test dead-center
    const float ca = p.conic_a, cb = p.conic_b, cc = p.conic_c;
    float det = ca * cc - cb * cb;
    float det_safe = det - kConicEps * (ca * cc + cb * cb);
    if (!(det_safe > 0.0f) || !(ca > 0.0f))
        return std::numeric_limits<float>::infinity();
    float mid = 0.5f * (ca + cc);
    float lambda_max =
        mid + std::sqrt(std::max(0.0f, mid * mid - det));
    if (!(lambda_max > 0.0f))
        return std::numeric_limits<float>::infinity();
    float lambda_min_safe = det_safe / lambda_max;
    return 2.0f * std::log(ratio) / lambda_min_safe;
}

TileSpan
computeTileSpan(const ProjectedGaussian &p, const TileGrid &grid,
                float alpha_min, bool exact_bounds)
{
    TileSpan span;    // default-empty
    if (!p.valid || p.radius <= 0.0f)
        return span;

    const float ts = static_cast<float>(grid.tile_size);
    span.x0 = clampedFloor((p.mean2d.x - p.radius) / ts, 0, grid.tiles_x);
    span.x1 = clampedFloor((p.mean2d.x + p.radius) / ts, -1,
                           grid.tiles_x - 1);
    span.y0 = clampedFloor((p.mean2d.y - p.radius) / ts, 0, grid.tiles_y);
    span.y1 = clampedFloor((p.mean2d.y + p.radius) / ts, -1,
                           grid.tiles_y - 1);

    span.cut2 = exact_bounds
                    ? footprintCutRadius2(p, alpha_min)
                    : std::numeric_limits<float>::infinity();
    return span;
}

void
radixSortPairs(std::vector<uint64_t> &keys, std::vector<uint32_t> &vals,
               std::vector<uint64_t> &keys_scratch,
               std::vector<uint32_t> &vals_scratch, int key_bits,
               bool parallel, std::vector<uint32_t> *hist_scratch)
{
    const size_t n = keys.size();
    CLM_ASSERT(vals.size() == n, "keys/vals size mismatch");
    if (n <= 1)
        return;
    key_bits = std::clamp(key_bits, 1, 64);
    // Wider digits cut the number of passes over the data once the
    // input dwarfs the histogram; past ~11 bits the scatter fans out
    // over too many cache lines and loses again. The choice only
    // affects speed: the output is the unique stable sort either way.
    const int digit_bits = n >= 65536 ? 11 : 8;
    const size_t radix = size_t{1} << digit_bits;
    const uint64_t digit_mask = radix - 1;
    const int passes = (key_bits + digit_bits - 1) / digit_bits;

    keys_scratch.resize(n);
    vals_scratch.resize(n);

    const size_t n_chunks = chunkCount(n, kMinRadixChunk, parallel);
    const size_t chunk = (n + n_chunks - 1) / n_chunks;
    std::vector<uint32_t> local_hist;
    std::vector<uint32_t> &hist =
        hist_scratch != nullptr ? *hist_scratch : local_hist;
    hist.resize(n_chunks * radix);

    bool in_scratch = false;
    for (int pass = 0; pass < passes; ++pass) {
        const int shift = pass * digit_bits;
        const uint64_t *sk =
            in_scratch ? keys_scratch.data() : keys.data();
        const uint32_t *sv =
            in_scratch ? vals_scratch.data() : vals.data();
        uint64_t *dk = in_scratch ? keys.data() : keys_scratch.data();
        uint32_t *dv = in_scratch ? vals.data() : vals_scratch.data();

        std::fill(hist.begin(), hist.end(), 0u);
        forEachChunk(n_chunks, [&](size_t c) {
            uint32_t *h = &hist[c * radix];
            size_t b = c * chunk, e = std::min(b + chunk, n);
            for (size_t i = b; i < e; ++i)
                ++h[(sk[i] >> shift) & digit_mask];
        });

        // All keys share this digit? Then the pass is the identity.
        bool uniform = false;
        for (size_t d = 0; d < radix && !uniform; ++d) {
            size_t total = 0;
            for (size_t c = 0; c < n_chunks; ++c)
                total += hist[c * radix + d];
            uniform = total == n;
        }
        if (uniform)
            continue;

        // Exclusive scan in (digit-major, chunk-minor) order turns each
        // chunk's histogram into its write cursors: chunk c's run of
        // digit d lands after every earlier chunk's run of d and after
        // every smaller digit — exactly the stable sort placement.
        uint32_t running = 0;
        for (size_t d = 0; d < radix; ++d) {
            for (size_t c = 0; c < n_chunks; ++c) {
                uint32_t count = hist[c * radix + d];
                hist[c * radix + d] = running;
                running += count;
            }
        }

        forEachChunk(n_chunks, [&](size_t c) {
            uint32_t *cursor = &hist[c * radix];
            size_t b = c * chunk, e = std::min(b + chunk, n);
            for (size_t i = b; i < e; ++i) {
                uint32_t pos = cursor[(sk[i] >> shift) & digit_mask]++;
                dk[pos] = sk[i];
                dv[pos] = sv[i];
            }
        });
        in_scratch = !in_scratch;
    }

    if (in_scratch) {
        keys.swap(keys_scratch);
        vals.swap(vals_scratch);
    }
}

} // namespace clm
