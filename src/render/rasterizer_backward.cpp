#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/trace.hpp"
#include "render/arena.hpp"
#include "render/batch.hpp"
#include "render/simd_kernels.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

namespace {

/** Tile chunks per view (at most) the gradient reduction runs over: a
 *  constant, so gradients do not depend on the pool size. */
constexpr size_t kBackwardChunks = 4;

void
accumulate(ProjectionGrads &into, const ProjectionGrads &from)
{
    into.d_mean2d += from.d_mean2d;
    into.d_conic_a += from.d_conic_a;
    into.d_conic_b += from.d_conic_b;
    into.d_conic_c += from.d_conic_c;
    into.d_color += from.d_color;
    into.d_opacity += from.d_opacity;
}

/** Sum 8 lane partials left to right — THE fixed lane order of the
 *  deterministic lane reduction. */
float
sumLanes(const float *p)
{
    float s = p[0];
    for (int l = 1; l < 8; ++l)
        s += p[l];
    return s;
}

/** Reduce one staged entry's 8-lane gradient partials (the backward
 *  kernel's grad8 block) into a ProjectionGrads, lanes in fixed order. */
ProjectionGrads
reduceLanes(const float *g8)
{
    ProjectionGrads g;
    g.d_mean2d.x = sumLanes(g8 + kG8MeanX * 8);
    g.d_mean2d.y = sumLanes(g8 + kG8MeanY * 8);
    g.d_conic_a = sumLanes(g8 + kG8ConicA * 8);
    g.d_conic_b = sumLanes(g8 + kG8ConicB * 8);
    g.d_conic_c = sumLanes(g8 + kG8ConicC * 8);
    g.d_color.x = sumLanes(g8 + kG8ColorR * 8);
    g.d_color.y = sumLanes(g8 + kG8ColorG * 8);
    g.d_color.z = sumLanes(g8 + kG8ColorB * 8);
    g.d_opacity = sumLanes(g8 + kG8Opacity * 8);
    return g;
}

} // namespace

void
renderBackwardBatch(const GaussianModel &model,
                    const std::vector<Camera> &cameras,
                    const RenderConfig &cfg,
                    const std::vector<Image> &d_images, GaussianGrads &out,
                    RenderArena &arena)
{
    CLM_ASSERT(d_images.size() == cameras.size(),
               "one loss-gradient image per view");
    detail::renderBackwardViews(model, cameras.data(), d_images.data(),
                                cameras.size(), cfg, out, arena);
}

void
detail::renderBackwardViews(const GaussianModel &model,
                            const Camera *cameras, const Image *d_images,
                            size_t B, const RenderConfig &cfg,
                            GaussianGrads &out, RenderArena &ba)
{
    CLM_ASSERT(B >= 1, "empty backward batch");
    CLM_ASSERT(ba.batch_views == B,
               "the backward must replay the last forward into the same "
               "arena, with the same views");
    CLM_ASSERT(out.size() == model.size(),
               "gradient buffer must cover the full model");

    StageClock stage_clock;

    const float alpha_min = cfg.alpha_min;
    const Vec3 background = cfg.background;
    // Runtime-dispatched per-ISA kernel table (or the table cfg.kernels
    // forces). It need not be the forward's table: every table runs the
    // same IEEE op sequence, so the replay recomputes the forward's
    // alpha bits under any of them.
    const RenderKernels &kern =
        cfg.kernels ? *cfg.kernels : renderKernels();

    // Per-view setup: the cut arrays (left in place by the forward into
    // this arena) and the FIXED per-view chunk partition the gradient
    // reduction order is defined over.
    struct Task
    {
        uint32_t view;
        uint32_t chunk;
        uint32_t t0, t1;
    };
    std::vector<Task> tasks;
    for (size_t v = 0; v < B; ++v) {
        RenderArena::View &av = ba.views[v];
        const RenderOutput &fwd = av.out;
        const size_t n = fwd.projected.size();
        CLM_ASSERT(d_images[v].width() == cameras[v].width()
                       && d_images[v].height() == cameras[v].height(),
                   "d_image size mismatch");
        CLM_ASSERT(av.cuts_alpha_min == cfg.alpha_min
                       && av.alpha_cut.size() == n,
                   "the backward must replay the arena's last forward "
                   "under the same render config");
        const size_t n_tiles = fwd.tile_ranges.size();
        const size_t n_chunks =
            std::max<size_t>(1, std::min(n_tiles, kBackwardChunks));
        const size_t tiles_per_chunk =
            n_tiles == 0 ? 0 : (n_tiles + n_chunks - 1) / n_chunks;
        av.grad_partials.resize(n_chunks);
        if (ba.retain_staging) {
            CLM_ASSERT(av.stages.size() >= n_tiles,
                       "retained staging missing — render the batch "
                       "with retain_staging set first");
        } else if (av.stages.size() < n_chunks) {
            av.stages.resize(n_chunks);
        }
        for (size_t c = 0; c < n_chunks; ++c) {
            const size_t t0 = c * tiles_per_chunk;
            const size_t t1 = std::min(t0 + tiles_per_chunk, n_tiles);
            tasks.push_back({static_cast<uint32_t>(v),
                             static_cast<uint32_t>(c),
                             static_cast<uint32_t>(t0),
                             static_cast<uint32_t>(t1)});
        }
    }
    ba.grad8_scratch.resize(tasks.size());

    // --- 1. Replay: every (view, chunk) task stages and replays its
    // tiles in order and flushes them in staged order, all tasks in ONE
    // list (cross-view parallelism). With retained staging the tile is
    // already staged; the 8-lane partial buffer is kept all-zero between
    // tiles by the flush, so no per-tile cold memset is needed.
    auto run_task = [&](size_t ti) {
        const Task &task = tasks[ti];
        RenderArena::View &av = ba.views[task.view];
        const RenderOutput &fwd = av.out;
        const Image &d_image = d_images[task.view];
        const int w = cameras[task.view].width();
        const int h = cameras[task.view].height();
        std::vector<ProjectionGrads> &acc = av.grad_partials[task.chunk];
        acc.assign(fwd.projected.size(), ProjectionGrads{});
        std::vector<float> &g8 = ba.grad8_scratch[ti];
        for (size_t t = task.t0; t < task.t1; ++t) {
            const TileRange range = fwd.tile_ranges[t];
            const size_t len = range.size();
            if (len == 0)
                continue;
            TileStage &stage =
                av.stages[ba.retain_staging ? t : task.chunk];
            if (!ba.retain_staging) {
                stage.stageFrom(fwd.projected, fwd.isect_vals, range,
                                av.alpha_cut, av.row_k,
                                /*stage_soa=*/true);
            }

            const int ty = static_cast<int>(t) / fwd.tiles_x;
            const int tx = static_cast<int>(t) % fwd.tiles_x;
            const int px0 = tx * cfg.tile_size;
            const int py0 = ty * cfg.tile_size;
            const int px1 = std::min(px0 + cfg.tile_size, w);
            const int py1 = std::min(py0 + cfg.tile_size, h);

            const size_t need = len * static_cast<size_t>(kG8Comps) * 8;
            // Growth zero-fills; the existing prefix is zero by the
            // flush invariant below.
            if (g8.size() < need)
                g8.resize(need, 0.0f);
            BackwardTileArgs args;
            args.mean_x = stage.soa_mean_x.data();
            args.mean_y = stage.soa_mean_y.data();
            args.conic_a = stage.soa_conic_a.data();
            args.conic_b = stage.soa_conic_b.data();
            args.conic_c = stage.soa_conic_c.data();
            args.power_cut = stage.soa_power_cut.data();
            args.row_k = stage.soa_row_k.data();
            args.opacity = stage.soa_opacity.data();
            args.color_r = stage.soa_color_r.data();
            args.color_g = stage.soa_color_g.data();
            args.color_b = stage.soa_color_b.data();
            args.len = len;
            args.px0 = px0;
            args.px1 = px1;
            args.py0 = py0;
            args.py1 = py1;
            args.width = w;
            args.alpha_min = alpha_min;
            args.background = background;
            args.final_t = fwd.final_t.data();
            args.n_contrib = fwd.n_contrib.data();
            args.d_image = d_image.data().data();
            args.grad8 = g8.data();
            kern.backward_tile(args);

            // Flush in staged order with the fixed lane reduction,
            // re-zeroing each block while it is cache-hot (the
            // all-zero-between-tiles invariant).
            for (size_t j = 0; j < len; ++j) {
                float *blk =
                    g8.data() + j * static_cast<size_t>(kG8Comps) * 8;
                accumulate(acc[fwd.isect_vals[range.begin + j]],
                           reduceLanes(blk));
                std::memset(blk, 0,
                            static_cast<size_t>(kG8Comps) * 8
                                * sizeof(float));
            }
        }
    };
    if (cfg.parallel && tasks.size() > 1) {
        ThreadPool::global().parallelFor(
            tasks.size(), [&](size_t begin, size_t end) {
                for (size_t ti = begin; ti < end; ++ti)
                    run_task(ti);
            });
    } else {
        for (size_t ti = 0; ti < tasks.size(); ++ti)
            run_task(ti);
    }
    stage_clock.lap("render.bwd_replay");

    // --- 2. Per-view reduction in chunk order — element-wise over
    // (view, entry), so any parallel split is the same arithmetic.
    for (size_t v = 0; v < B; ++v) {
        RenderArena::View &av = ba.views[v];
        const size_t n = av.out.projected.size();
        av.grads.resize(n);
        poolForRange(n, cfg.parallel, kMinParallelSubset,
                     [&](size_t begin, size_t end) {
                         for (size_t s = begin; s < end; ++s) {
                             ProjectionGrads g{};
                             for (const auto &partial : av.grad_partials)
                                 accumulate(g, partial[s]);
                             av.grads[s] = g;
                         }
                     });
    }
    stage_clock.lap("render.bwd_reduce");

    // --- 3. Projection chain, once per batch over the union of the
    // views' subsets, through the forward's view map. Distinct union
    // entries touch distinct model rows (parallel-safe); within an
    // entry the per-view contributions accumulate in ascending view
    // order — exactly the per-row accumulation order of B batches of
    // one replayed in view order.
    const size_t n_union = ba.union_indices.size();
    poolForRange(
        n_union, cfg.parallel, kMinParallelSubset,
        [&](size_t begin, size_t end) {
            for (size_t u = begin; u < end; ++u) {
                for (size_t e = ba.chain_offsets[u];
                     e < ba.chain_offsets[u + 1]; ++e) {
                    const uint64_t pair = ba.chain_pairs[e];
                    const size_t v = static_cast<size_t>(pair >> 32);
                    const size_t s =
                        static_cast<size_t>(pair & 0xffffffffu);
                    const RenderArena::View &av = ba.views[v];
                    projectGaussianBackward(model, cameras[v],
                                            cfg.sh_degree,
                                            av.out.projected[s],
                                            av.grads[s], out);
                }
            }
        });
    stage_clock.lap("render.bwd_project");
}

} // namespace clm
