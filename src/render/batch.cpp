#include "render/batch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/ellipsoid.hpp"
#include "render/binning.hpp"
#include "render/culling.hpp"
#include "render/compositor.hpp"
#include "render/simd_kernels.hpp"
#include "render/projection.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

namespace {

/** Below this many items a parallel per-entry pass costs more than it
 *  saves (mirrors the binning-stage threshold). */
constexpr size_t kMinParallel = 512;

/** Run @p body over [0, n), through the pool when worthwhile (the
 *  shared poolForRange policy with this file's threshold). */
template <typename Body>
void
forRange(size_t n, bool parallel, const Body &body)
{
    poolForRange(n, parallel, kMinParallel, body);
}

/** Lane and threshold magnitudes past this (and NaN/inf) make a chunk
 *  unskippable: below it no plane distance of a lane or chunk corner
 *  can overflow, which the chunk test's error budget relies on. */
constexpr float kChunkRange = 1e30f;

/** Morton bits per axis (30-bit codes) and the largest cell index. */
constexpr int kMortonBits = 10;
constexpr int kMortonMax = (1 << kMortonBits) - 1;

/** Spread the low 10 bits of @p v to every third bit. */
uint32_t
spreadBits(uint32_t v)
{
    v &= 0x3ffu;
    v = (v | (v << 16)) & 0x030000ffu;
    v = (v | (v << 8)) & 0x0300f00fu;
    v = (v | (v << 4)) & 0x030c30c3u;
    v = (v | (v << 2)) & 0x09249249u;
    return v;
}

/** Write Gaussian @p i of @p model into lane @p l — the one lane
 *  expression, shared by build and refresh. */
void
writeLane(const GaussianModel &model, size_t i, size_t l,
          BatchCullScratch &st)
{
    const float r = cullBoundingRadius(model, i);
    const Vec3 &p = model.position(i);
    float m = std::fabs(p.x);
    if (std::fabs(p.y) > m)
        m = std::fabs(p.y);
    if (std::fabs(p.z) > m)
        m = std::fabs(p.z);
    st.cx[l] = p.x;
    st.cy[l] = p.y;
    st.cz[l] = p.z;
    // NaN radii/centers poison the threshold, so their lanes are never
    // pre-rejected and the exact test decides.
    st.neg_thresh[l] = -r - kCullPrefilterEps * (3.0f * m);
}

/** Recompute chunk @p c's bounds from its real lanes (padding lanes
 *  never count). */
void
boundChunk(BatchCullScratch &st, size_t c)
{
    BatchCullScratch::Chunk ch{Aabb{},
                               std::numeric_limits<float>::infinity()};
    const size_t l1 = std::min(st.size(), (c + 1) * kCullChunkLanes);
    for (size_t l = c * kCullChunkLanes; l < l1; ++l) {
        const Vec3 p{st.cx[l], st.cy[l], st.cz[l]};
        const float t = st.neg_thresh[l];
        // Written so NaN fails every comparison.
        if (!(std::fabs(p.x) <= kChunkRange && std::fabs(p.y) <= kChunkRange
              && std::fabs(p.z) <= kChunkRange && t >= -kChunkRange)) {
            ch.min_thresh = -std::numeric_limits<float>::infinity();
            break;
        }
        ch.box.extend(p);
        ch.min_thresh = std::min(ch.min_thresh, t);
    }
    st.chunks[c] = ch;
}

/**
 * True when every lane of @p ch is pre-rejected by the packed prefilter
 * of @p a, so skipping the chunk cannot change membership. For each
 * plane, the chunk corner farthest along the normal bounds every lane's
 * exact plane distance from above, and min_thresh bounds every lane's
 * threshold from below (the prefilter's thr - margin is monotone in
 * thr). The packed distances and this corner's are float evaluations
 * a few ulp of their term magnitudes (at most 3 max|corner| + |d|, as
 * |n| = 1) from exact, however the backend rounds or contracts them, so
 * the corner must clear the threshold by kCullPrefilterEps times that
 * magnitude — ~1000x the evaluation error, the same budget as the
 * prefilter's. A chunk with a non-finite lane has min_thresh = -inf
 * and never clears.
 */
bool
chunkOutside(const BatchCullScratch::Chunk &ch, const CullPrefilterArgs &a)
{
    const Aabb &b = ch.box;
    const float mag = std::max({std::fabs(b.lo.x), std::fabs(b.lo.y),
                                std::fabs(b.lo.z), std::fabs(b.hi.x),
                                std::fabs(b.hi.y), std::fabs(b.hi.z)});
    for (int j = 0; j < 6; ++j) {
        const float px = a.plane_nx[j] >= 0.0f ? b.hi.x : b.lo.x;
        const float py = a.plane_ny[j] >= 0.0f ? b.hi.y : b.lo.y;
        const float pz = a.plane_nz[j] >= 0.0f ? b.hi.z : b.lo.z;
        const float dist = a.plane_nx[j] * px + a.plane_ny[j] * py
                         + a.plane_nz[j] * pz + a.plane_d[j];
        const float slack =
            kCullPrefilterEps * (3.0f * mag + std::fabs(a.plane_d[j]));
        if (dist + slack < ch.min_thresh - a.margin[j])
            return true;
    }
    return false;
}

/**
 * One view's cull over the stage: chunks that clearly miss the frustum
 * are skipped whole; runs of surviving chunks go through the packed
 * plane sweep (8 lanes per op against the 6 frustum planes, no early
 * exit but no branches either). Lanes whose bounding sphere is clearly
 * inside every plane are selected outright: their packed distances
 * exceed r + kCullPrefilterEps (3|p|_inf + |d|), so the scalar
 * distance frustumCull computes is positive on every plane and both of
 * its tests pass (they reject only below -r and -support, both <= 0).
 * Lanes neither clearly outside nor clearly inside fall through to the
 * exact scalar predicate — the same Ellipsoid/Frustum member functions
 * frustumCull() runs, on the same values — so membership can never
 * differ from the per-view cull. Lanes are in Morton order, so the
 * selection is sorted back into ascending row order at the end.
 */
void
cullViewChunked(const GaussianModel &model, const BatchCullScratch &st,
                const Camera &cam, std::vector<uint32_t> &sel)
{
    sel.clear();
    const Frustum &fr = cam.frustum();
    const RenderKernels &kern = renderKernels();
    CullPrefilterArgs args;
    for (int j = 0; j < 6; ++j) {
        const Plane &pl = fr.plane(j);
        args.plane_nx[j] = pl.n.x;
        args.plane_ny[j] = pl.n.y;
        args.plane_nz[j] = pl.n.z;
        args.plane_d[j] = pl.d;
        args.margin[j] = kCullPrefilterEps * std::fabs(pl.d);
    }
    const size_t n = st.size();
    // Per-view (and hence per-thread in the view loop) mask buffer on
    // the stack: the dispatched kernel sweeps one run of chunks, then
    // the scalar scan below confirms surviving lanes with the exact
    // predicate.
    constexpr size_t kBlock = 1024;
    alignas(32) float rejected[kBlock];
    alignas(32) float accepted[kBlock];
    auto sweep = [&](size_t l0, size_t l1) {
        args.cx = st.cx.data() + l0;
        args.cy = st.cy.data() + l0;
        args.cz = st.cz.data() + l0;
        args.neg_thresh = st.neg_thresh.data() + l0;
        args.padded = l1 - l0;
        args.rejected = rejected;
        args.accepted = accepted;
        kern.cull_prefilter(args);
        const size_t end = std::min(l1, n);
        for (size_t l = l0; l < end; ++l) {
            if (rejected[l - l0] != 0.0f)
                continue;    // clearly outside this view
            const uint32_t i = st.row_of_lane[l];
            if (accepted[l - l0] != 0.0f) {
                sel.push_back(i);    // clearly inside this view
                continue;
            }
            // Exact predicate — identical to frustumCull().
            Ellipsoid e = Ellipsoid::fromGaussian(
                model.position(i), model.worldScale(i),
                model.rotation(i));
            if (!fr.intersectsSphere(e.center, e.boundingRadius()))
                continue;
            if (e.intersectsFrustum(fr))
                sel.push_back(i);
        }
    };
    size_t run0 = 0, run1 = 0;    // pending lanes [run0, run1)
    for (size_t c = 0; c < st.chunks.size(); ++c) {
        if (chunkOutside(st.chunks[c], args))
            continue;
        const size_t l0 = c * kCullChunkLanes;
        if (run1 != l0 || run1 - run0 == kBlock) {
            if (run1 > run0)
                sweep(run0, run1);
            run0 = l0;
        }
        run1 = l0 + kCullChunkLanes;
    }
    if (run1 > run0)
        sweep(run0, run1);
    std::sort(sel.begin(), sel.end());
}

} // namespace

void
buildCullStage(const GaussianModel &model, BatchCullScratch &st,
               bool parallel)
{
    const size_t n = model.size();
    CLM_ASSERT(n <= std::numeric_limits<uint32_t>::max(),
               "cull stage rows overflow 32-bit lane indices");

    // Morton codes over the box of the finite positions; non-finite
    // coordinates clamp to a box face (their lanes are correct wherever
    // they sit, only locality is at stake).
    Aabb box;
    for (size_t i = 0; i < n; ++i) {
        const Vec3 &p = model.position(i);
        if (std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z))
            box.extend(p);
    }
    const Vec3 &lo = box.lo;
    auto cells = [](float e) {
        return e > 0.0f && std::isfinite(e) ? kMortonMax / e : 0.0f;
    };
    const Vec3 ext = box.extent();
    const Vec3 inv{cells(ext.x), cells(ext.y), cells(ext.z)};
    auto cell = [](float p, float lo_p, float inv_p) {
        return spreadBits(static_cast<uint32_t>(
            clampedFloor((p - lo_p) * inv_p, 0, kMortonMax)));
    };
    std::vector<uint64_t> keys(n), keys_tmp;
    std::vector<uint32_t> rows(n), rows_tmp, hist;
    forRange(n, parallel, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            const Vec3 &p = model.position(i);
            keys[i] = cell(p.x, lo.x, inv.x)
                    | (cell(p.y, lo.y, inv.y) << 1)
                    | (cell(p.z, lo.z, inv.z) << 2);
            rows[i] = static_cast<uint32_t>(i);
        }
    });
    radixSortPairs(keys, rows, keys_tmp, rows_tmp, 3 * kMortonBits,
                   parallel, &hist);

    st.row_of_lane = std::move(rows);
    st.lane_of_row.resize(n);
    const size_t padded = (n + kCullChunkLanes - 1) / kCullChunkLanes
                        * kCullChunkLanes;
    st.cx.resize(padded);
    st.cy.resize(padded);
    st.cz.resize(padded);
    st.neg_thresh.resize(padded);
    forRange(n, parallel, [&](size_t begin, size_t end) {
        for (size_t l = begin; l < end; ++l) {
            const uint32_t i = st.row_of_lane[l];
            st.lane_of_row[i] = static_cast<uint32_t>(l);
            writeLane(model, i, l, st);
        }
    });
    for (size_t l = n; l < padded; ++l) {
        st.cx[l] = st.cy[l] = st.cz[l] = 0.0f;
        // Padding lanes always read "clearly outside" so they can never
        // force the scalar path.
        st.neg_thresh[l] = std::numeric_limits<float>::infinity();
    }
    st.chunks.resize(padded / kCullChunkLanes);
    forRange(st.chunks.size(), parallel, [&](size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c)
            boundChunk(st, c);
    });
}

void
refreshCullStage(const GaussianModel &model,
                 const std::vector<uint32_t> &rows, BatchCullScratch &st,
                 bool parallel)
{
    CLM_ASSERT(st.size() == model.size(), "cull stage covers ", st.size(),
               " Gaussians, model has ", model.size());
    if (rows.empty())
        return;
    // Distinct rows own distinct lanes, so any split is race-free.
    forRange(rows.size(), parallel, [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k)
            writeLane(model, rows[k], st.lane_of_row[rows[k]], st);
    });
    // Re-bound only the chunks holding a refreshed lane.
    std::vector<uint8_t> seen(st.chunks.size(), 0);
    std::vector<uint32_t> dirty;
    for (uint32_t row : rows) {
        const uint32_t c = st.lane_of_row[row] / kCullChunkLanes;
        if (seen[c] == 0) {
            seen[c] = 1;
            dirty.push_back(c);
        }
    }
    forRange(dirty.size(), parallel, [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k)
            boundChunk(st, dirty[k]);
    });
}

void
frustumCullBatch(const GaussianModel &model,
                 const std::vector<Camera> &cameras,
                 const BatchCullScratch &stage,
                 std::vector<std::vector<uint32_t>> &subsets,
                 bool parallel)
{
    const size_t B = cameras.size();
    CLM_ASSERT(B >= 1, "empty camera batch");
    CLM_ASSERT(stage.size() == model.size(), "cull stage covers ",
               stage.size(), " Gaussians, model has ", model.size());
    subsets.resize(B);
    // Views are independent, so the parallel split cannot change
    // results.
    if (parallel && B > 1) {
        ThreadPool::global().parallelFor(
            B, [&](size_t begin, size_t end) {
                for (size_t v = begin; v < end; ++v)
                    cullViewChunked(model, stage, cameras[v],
                                    subsets[v]);
            });
    } else {
        for (size_t v = 0; v < B; ++v)
            cullViewChunked(model, stage, cameras[v], subsets[v]);
    }
}

void
cullViewGroups(const GaussianModel &model,
               const std::vector<Camera> &cameras, bool parallel,
               const ViewGroupFn &group)
{
    BatchCullScratch stage;
    buildCullStage(model, stage, parallel);
    std::vector<Camera> cams;
    std::vector<std::vector<uint32_t>> subsets;
    for (size_t first = 0; first < cameras.size();
         first += kViewGroupSize) {
        const size_t last =
            std::min(cameras.size(), first + kViewGroupSize);
        cams.assign(cameras.begin() + first, cameras.begin() + last);
        frustumCullBatch(model, cams, stage, subsets, parallel);
        group(first, cams, subsets);
    }
}

void
renderForwardBatch(const GaussianModel &model,
                   const std::vector<Camera> &cameras,
                   const std::vector<std::vector<uint32_t>> &subsets,
                   const RenderConfig &cfg, RenderArena &arena)
{
    CLM_ASSERT(subsets.size() == cameras.size(),
               "one subset per camera required");
    detail::renderForwardViews(model, cameras.data(), subsets.data(),
                               cameras.size(), cfg, arena);
}

void
detail::renderForwardViews(const GaussianModel &model,
                           const Camera *cameras,
                           const std::vector<uint32_t> *subsets, size_t B,
                           const RenderConfig &cfg, RenderArena &ba)
{
    CLM_ASSERT(B >= 1, "empty render batch");
    CLM_ASSERT(cfg.tile_size > 0, "bad tile size");
    if (ba.views.size() < B)
        ba.views.resize(B);

    StageClock stage_clock;

    // --- 1. Union of the batch's subsets (ascending k-way merge) and
    // its view map: the (view << 32 | subset position) pairs of union
    // entry u are chain_pairs[chain_offsets[u] .. chain_offsets[u+1]),
    // views ascending. The view-independent per-Gaussian work below is
    // computed once per distinct Gaussian, not once per (view,
    // Gaussian) pair, and the backward's projection chain accumulates
    // over the same map.
    ba.union_indices.clear();
    ba.chain_pairs.clear();
    ba.chain_offsets.assign(1, 0);
    std::vector<size_t> cur(B, 0);
    for (;;) {
        uint32_t next = std::numeric_limits<uint32_t>::max();
        bool any = false;
        for (size_t v = 0; v < B; ++v) {
            if (cur[v] < subsets[v].size()) {
                any = true;
                next = std::min(next, subsets[v][cur[v]]);
            }
        }
        if (!any)
            break;
        ba.union_indices.push_back(next);
        for (size_t v = 0; v < B; ++v) {
            if (cur[v] < subsets[v].size()
                && subsets[v][cur[v]] == next) {
                ba.chain_pairs.push_back((static_cast<uint64_t>(v) << 32)
                                         | cur[v]);
                ++cur[v];
                CLM_ASSERT(cur[v] >= subsets[v].size()
                               || subsets[v][cur[v]] > next,
                           "batch subsets must be ascending and unique");
            }
        }
        ba.chain_offsets.push_back(ba.chain_pairs.size());
    }
    ba.batch_views = B;
    stage_clock.lap("render.precompute");

    // --- 2. Projection, union-major: each distinct Gaussian's
    // view-independent share (3D covariance, world opacity, alpha-cut
    // threshold) is computed once and projected into every view that
    // holds it, which also fills the views' compositing cuts.
    // covariance() and worldOpacity() are pure functions of the model
    // row, so sharing them across views is bitwise neutral, and
    // distinct union entries write distinct (view, entry) slots, so any
    // parallel split gives the same result.
    std::vector<TileGrid> grids(B);
    std::vector<size_t> prefix(B + 1, 0);
    for (size_t v = 0; v < B; ++v) {
        const Camera &cam = cameras[v];
        grids[v] =
            TileGrid::forImage(cam.width(), cam.height(), cfg.tile_size);
        prefix[v + 1] = prefix[v] + subsets[v].size();
        RenderArena::View &av = ba.views[v];
        RenderOutput &out = av.out;
        // No prefill: the composite pass writes every pixel of every
        // tile (empty tiles included).
        out.image.resetUnfilled(cam.width(), cam.height());
        out.final_t.resize(cam.pixels());
        out.n_contrib.resize(cam.pixels());
        out.tiles_x = grids[v].tiles_x;
        out.tiles_y = grids[v].tiles_y;
        out.projected.resize(subsets[v].size());
        av.alpha_cut.resize(subsets[v].size());
        av.row_k.resize(subsets[v].size());
        av.cuts_alpha_min = cfg.alpha_min;
    }
    const size_t n_union = ba.union_indices.size();
    forRange(n_union, cfg.parallel, [&](size_t begin, size_t end) {
        for (size_t u = begin; u < end; ++u) {
            const size_t i = ba.union_indices[u];
            const Mat3 sigma = model.covariance(i);
            const float opacity = model.worldOpacity(i);
            const float power_cut =
                opacity > 0.0f ? alphaCutPower(opacity, cfg.alpha_min)
                               : 0.0f;
            for (size_t e = ba.chain_offsets[u];
                 e < ba.chain_offsets[u + 1]; ++e) {
                const uint64_t pair = ba.chain_pairs[e];
                const size_t v = static_cast<size_t>(pair >> 32);
                const size_t s = static_cast<size_t>(pair & 0xffffffffu);
                RenderArena::View &av = ba.views[v];
                ProjectedGaussian &p = av.out.projected[s];
                p = projectGaussianPre(model, i, cameras[v], cfg.sh_degree,
                                       sigma, opacity);
                av.alpha_cut[s] = p.opacity > 0.0f ? power_cut : 0.0f;
                av.row_k[s] = rowCurvature(p);
            }
        }
    });
    stage_clock.lap("render.project");

    // View of flat pair index f (view v's entries occupy
    // [prefix[v], prefix[v+1])); clamps to the last view so an empty
    // range probe (begin == total, e.g. every subset empty) stays in
    // bounds — the probing loop body then never runs.
    const size_t total = prefix[B];
    auto viewOf = [&](size_t f) {
        size_t v = 0;
        while (v + 1 < B && prefix[v + 1] <= f)
            ++v;
        return v;
    };

    // --- 3. Fused binning: every view's intersections go into ONE flat
    // key buffer — keys are (view-offset tile id << 32 | depth bits),
    // values are view-LOCAL subset positions — sorted by one stable
    // radix sort. View ids occupy the most significant key bits, so
    // view v's slice of the sorted buffer is exactly the stable sort of
    // its own keys: identical to what the view would get binned alone
    // as a batch of one.
    std::vector<size_t> tile_base(B + 1, 0);
    for (size_t v = 0; v < B; ++v)
        tile_base[v + 1] = tile_base[v] + grids[v].tileCount();
    const size_t total_tiles = tile_base[B];
    CLM_ASSERT(total_tiles <= std::numeric_limits<uint32_t>::max(),
               "batch tile count overflows the 32-bit key field");

    BinningScratch &bs = ba.binning;
    bs.spans.resize(total);
    bs.offsets.assign(total + 1, 0);
    forRange(total, cfg.parallel, [&](size_t begin, size_t end) {
        size_t v = viewOf(begin);
        for (size_t f = begin; f < end; ++f) {
            while (v + 1 < B && prefix[v + 1] <= f)
                ++v;
            const size_t s = f - prefix[v];
            const ProjectedGaussian &p = ba.views[v].out.projected[s];
            TileSpan span = computeTileSpan(p, grids[v], cfg.alpha_min,
                                            cfg.exact_tile_bounds);
            bs.spans[f] = span;
            uint32_t touched = 0;
            for (int ty = span.y0; ty <= span.y1; ++ty)
                for (int tx = span.x0; tx <= span.x1; ++tx)
                    if (tileOverlaps(p, span, tx, ty, grids[v]))
                        ++touched;
            bs.offsets[f + 1] = touched;
        }
    });
    for (size_t f = 0; f < total; ++f)
        bs.offsets[f + 1] += bs.offsets[f];
    const size_t total_isect = bs.offsets[total];
    CLM_ASSERT(total_isect <= std::numeric_limits<uint32_t>::max(),
               "batch intersection count overflows 32-bit ranges");

    bs.keys.resize(total_isect);
    ba.fused_vals.resize(total_isect);
    forRange(total, cfg.parallel, [&](size_t begin, size_t end) {
        size_t v = viewOf(begin);
        for (size_t f = begin; f < end; ++f) {
            while (v + 1 < B && prefix[v + 1] <= f)
                ++v;
            const TileSpan &span = bs.spans[f];
            if (span.empty())
                continue;
            const size_t s = f - prefix[v];
            const ProjectedGaussian &p = ba.views[v].out.projected[s];
            const uint64_t depth = depthBits(p.depth);
            size_t o = bs.offsets[f];
            for (int ty = span.y0; ty <= span.y1; ++ty)
                for (int tx = span.x0; tx <= span.x1; ++tx) {
                    if (!tileOverlaps(p, span, tx, ty, grids[v]))
                        continue;
                    const uint64_t tile =
                        tile_base[v]
                        + static_cast<uint64_t>(ty) * grids[v].tiles_x
                        + tx;
                    bs.keys[o] = (tile << 32) | depth;
                    ba.fused_vals[o] = static_cast<uint32_t>(s);
                    ++o;
                }
        }
    });

    const int key_bits =
        32
        + bitWidth(total_tiles > 0
                       ? static_cast<uint32_t>(total_tiles - 1)
                       : 0u);
    radixSortPairs(bs.keys, ba.fused_vals, bs.keys_tmp, bs.vals_tmp,
                   key_bits, cfg.parallel, &bs.hist);

    // Carve per-view tile ranges out of the one sorted buffer; each
    // view's slice is copied into its own RenderOutput so every view's
    // activation state is self-contained.
    size_t e = 0;
    for (size_t v = 0; v < B; ++v) {
        RenderOutput &out = ba.views[v].out;
        const size_t n_tiles = grids[v].tileCount();
        out.tile_ranges.resize(n_tiles);
        const size_t slice_begin = e;
        for (size_t t = 0; t < n_tiles; ++t) {
            TileRange r;
            r.begin = static_cast<uint32_t>(e - slice_begin);
            const uint64_t vtile = tile_base[v] + t;
            while (e < total_isect && (bs.keys[e] >> 32) == vtile)
                ++e;
            r.end = static_cast<uint32_t>(e - slice_begin);
            out.tile_ranges[t] = r;
        }
        out.isect_vals.assign(ba.fused_vals.begin() + slice_begin,
                              ba.fused_vals.begin() + e);
    }
    CLM_ASSERT(e == total_isect,
               "unclaimed intersections past the batch tile grid");
    stage_clock.lap("render.bin");

    // --- 4. Composite. All views' tiles form one task list, so a
    // thread pool parallelizes across views as well as tiles
    // (cross-view parallelism); tiles touch disjoint pixels, so results
    // do not depend on the split.
    struct ChunkTask
    {
        uint32_t view;
        uint32_t stage;    //!< Index into that view's arena stages.
        uint32_t t0, t1;
    };
    size_t chunk_target = total_tiles;
    if (cfg.parallel && total_tiles > 1) {
        const size_t want =
            static_cast<size_t>(ThreadPool::global().threads()) * 2;
        chunk_target =
            std::max<size_t>(1, (total_tiles + want - 1) / want);
    }
    // Retained-staging mode (training): one stage slot per TILE, with
    // the SoA mirrors the SIMD backward replay reads, so the backward
    // replays from the forward's staging instead of re-staging every
    // tile. Staging is pure data movement — the composited pixels
    // cannot change.
    if (ba.retain_staging)
        chunk_target = 1;
    std::vector<ChunkTask> tasks;
    for (size_t v = 0; v < B; ++v) {
        const size_t n_tiles = grids[v].tileCount();
        const size_t n_chunks =
            n_tiles == 0 ? 0
                         : (n_tiles + chunk_target - 1) / chunk_target;
        if (ba.views[v].stages.size() < n_chunks)
            ba.views[v].stages.resize(n_chunks);
        for (size_t c = 0; c < n_chunks; ++c) {
            const size_t t0 = c * chunk_target;
            const size_t t1 = std::min(t0 + chunk_target, n_tiles);
            tasks.push_back({static_cast<uint32_t>(v),
                             static_cast<uint32_t>(c),
                             static_cast<uint32_t>(t0),
                             static_cast<uint32_t>(t1)});
        }
    }
    auto run_task = [&](const ChunkTask &task) {
        RenderArena::View &av = ba.views[task.view];
        detail::compositeTileRange(cfg, grids[task.view], av.alpha_cut,
                                   av.row_k, av.stages[task.stage],
                                   task.t0, task.t1, av.out,
                                   /*stage_soa=*/ba.retain_staging);
    };
    if (cfg.parallel && tasks.size() > 1) {
        ThreadPool::global().parallelFor(
            tasks.size(), [&](size_t begin, size_t end) {
                for (size_t t = begin; t < end; ++t)
                    run_task(tasks[t]);
            });
    } else {
        for (const ChunkTask &task : tasks)
            run_task(task);
    }
    stage_clock.lap("render.composite");
}

} // namespace clm
