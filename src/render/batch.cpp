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

/**
 * The packed plane sweep of one view: 8 Gaussians per op against the 6
 * frustum planes, no early exit but no branches either. Lanes that are
 * not *clearly* outside (per the kCullPrefilterEps margin) fall through
 * to the exact scalar predicate — the same Ellipsoid/Frustum member
 * functions frustumCull() runs, on the same values, so membership can
 * never differ from the per-view cull.
 */
void
cullViewPacked(const GaussianModel &model, const BatchCullScratch &st,
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
    const size_t n = model.size();
    const size_t padded = st.cx.size();
    // Per-view (and hence per-thread in pass 2) mask buffer on the
    // stack: the dispatched kernel sweeps one block, then the scalar
    // scan below confirms surviving lanes with the exact predicate.
    constexpr size_t kBlock = 1024;
    alignas(32) float rejected[kBlock];
    for (size_t b0 = 0; b0 < padded; b0 += kBlock) {
        const size_t blk =
            padded - b0 < kBlock ? padded - b0 : kBlock;
        args.cx = st.cx.data() + b0;
        args.cy = st.cy.data() + b0;
        args.cz = st.cz.data() + b0;
        args.neg_thresh = st.neg_thresh.data() + b0;
        args.padded = blk;
        args.rejected = rejected;
        kern.cull_prefilter(args);
        for (size_t k = 0; k < blk; ++k) {
            const size_t i = b0 + k;
            if (i >= n)
                break;
            if (rejected[k] != 0.0f)
                continue;    // clearly outside this view
            // Exact predicate — identical to frustumCull().
            Ellipsoid e = Ellipsoid::fromGaussian(
                model.position(i), model.worldScale(i),
                model.rotation(i));
            if (!fr.intersectsSphere(e.center, e.boundingRadius()))
                continue;
            if (e.intersectsFrustum(fr))
                sel.push_back(static_cast<uint32_t>(i));
        }
    }
}

} // namespace

void
frustumCullBatch(const GaussianModel &model,
                 const std::vector<Camera> &cameras,
                 BatchCullScratch &scratch,
                 std::vector<std::vector<uint32_t>> &subsets,
                 bool parallel, uint64_t cache_key)
{
    const size_t B = cameras.size();
    CLM_ASSERT(B >= 1, "empty camera batch");
    subsets.resize(B);

    const size_t n = model.size();
    // Snapshot-scoped cache: the SoA stage is a pure function of the
    // model, so when the caller vouches (by key) that the model is the
    // same published state as last time, pass 1 is skipped whole and
    // the sweep below reads the cached stage.
    const bool cached = cache_key != 0 && scratch.cached_key == cache_key
                     && scratch.cached_size == n;
    if (!cached) {
        // Pass 1 — shared per-Gaussian setup, paid once for the whole
        // batch: world scale (3 exp), bounding radius, packed
        // thresholds.
        const size_t padded = (n + 7) & ~size_t(7);
        scratch.cx.resize(padded);
        scratch.cy.resize(padded);
        scratch.cz.resize(padded);
        scratch.neg_thresh.resize(padded);
        forRange(n, parallel, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                const float r = cullBoundingRadius(model, i);
                const Vec3 &p = model.position(i);
                float m = std::fabs(p.x);
                if (std::fabs(p.y) > m)
                    m = std::fabs(p.y);
                if (std::fabs(p.z) > m)
                    m = std::fabs(p.z);
                scratch.cx[i] = p.x;
                scratch.cy[i] = p.y;
                scratch.cz[i] = p.z;
                // NaN radii/centers poison the threshold, so their
                // lanes are never pre-rejected and the exact test
                // decides.
                scratch.neg_thresh[i] =
                    -r - kCullPrefilterEps * (3.0f * m);
            }
        });
        for (size_t i = n; i < padded; ++i) {
            scratch.cx[i] = scratch.cy[i] = scratch.cz[i] = 0.0f;
            // Padding lanes always read "clearly outside" so they can
            // never force the scalar path.
            scratch.neg_thresh[i] =
                std::numeric_limits<float>::infinity();
        }
        scratch.cached_key = cache_key;
        scratch.cached_size = n;
    }

    // Pass 2 — each view sweeps the shared stage. Views are
    // independent, so the parallel split cannot change results.
    if (parallel && B > 1) {
        ThreadPool::global().parallelFor(
            B, [&](size_t begin, size_t end) {
                for (size_t v = begin; v < end; ++v)
                    cullViewPacked(model, scratch, cameras[v],
                                   subsets[v]);
            });
    } else {
        for (size_t v = 0; v < B; ++v)
            cullViewPacked(model, scratch, cameras[v], subsets[v]);
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
