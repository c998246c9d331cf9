/**
 * @file
 * The render pipeline: fused multi-view batch rendering. A batch of B
 * views is culled, projected and binned through ONE pass each instead
 * of view-at-a-time, and a single view is simply a batch of one
 * (renderForward / renderBackward in render/rasterizer.hpp):
 *
 *  - frustumCullBatch(): every view sweeps one shared cull stage
 *    (BatchCullScratch, render/arena.hpp: world-space bounding spheres
 *    — the per-Gaussian setup every view would otherwise redo,
 *    including the 3 exp() of the world scale — in Morton-ordered
 *    64-lane chunks with per-chunk bounds). A view first tests each
 *    chunk against its six planes and skips chunks that lie clearly
 *    outside one of them, then runs an 8-wide packed plane prefilter
 *    over the surviving chunks' lanes, which rejects spheres clearly
 *    outside a plane and accepts spheres clearly inside all six; only
 *    near-boundary lanes run the exact per-view ellipsoid test.
 *    Membership is bitwise identical to frustumCull() per view: the
 *    chunk test skips only chunks whose every lane the prefilter would
 *    reject, and the prefilter only decides Gaussians whose exact test
 *    provably fails or passes, under an explicit error margin
 *    (kCullPrefilterEps) that covers the float-evaluation differences
 *    between the packed and scalar plane distances. buildCullStage()
 *    and refreshCullStage() keep the stage in step with the model.
 *
 *  - renderForwardBatch(): the union of the batch's subsets is formed
 *    once and projected union-major: each distinct Gaussian's
 *    view-independent work (3D covariance, world opacity, alpha-cut
 *    power threshold) is computed once and reused by every view that
 *    holds it, and all views' tile intersections are expanded into ONE flat key buffer — keys
 *    carry (view-offset tile id, depth) — sorted by a single stable
 *    radix sort, with per-view tile ranges carved out of the one sorted
 *    buffer. Compositing runs the shared per-tile kernels
 *    (render/compositor.hpp) over each view's carved ranges, so every
 *    view's RenderOutput (image, final_t, n_contrib, intersections,
 *    ranges) is bitwise identical to rendering it alone as a batch of
 *    one with the same subset — asserted by tests/test_serve.cpp in
 *    both the default and -DCLM_DISABLE_SIMD=ON builds.
 *
 *  - renderBackwardBatch(): the matching fused backward, bitwise
 *    identical to B batches of one replayed in view order.
 *
 * Every render in the system runs this pass: serving wakeups
 * (serve/render_service), GPU-only training batches, the offload
 * trainers' microbatches and every single-view render. The shared
 * per-Gaussian work is paid once per batch instead of once per view
 * and the cull stage once per published snapshot when serving, once per
 * model restructure when training (refreshed in place in between). With
 * a thread pool it additionally exposes cross-view parallelism (all
 * views' tiles form one task list).
 */

#ifndef CLM_RENDER_BATCH_HPP
#define CLM_RENDER_BATCH_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "gaussian/model.hpp"
#include "render/arena.hpp"
#include "render/camera.hpp"
#include "render/rasterizer.hpp"

namespace clm {

/**
 * Relative error budget of the packed cull prefilter and the chunk
 * test: a view may pre-reject (or pre-accept) a Gaussian, or skip a
 * chunk, only when the packed plane distance clears the sphere test by
 * more than kCullPrefilterEps times the distance's term magnitudes
 * (|n_k p_k| <= |p|_inf per component, plus |d|). The true
 * float-evaluation difference between the packed and scalar distances
 * is a few ulp (~1e-7 relative, FMA contraction included), so 1e-4
 * over-covers it by ~1000x; anything closer to the boundary falls
 * through to the exact scalar test. Same error-budget idiom as the
 * binning cuts (render/binning.hpp).
 */
constexpr float kCullPrefilterEps = 1e-4f;

/**
 * Build the cull stage of @p model from scratch: a Morton order of the
 * positions (a stable radix sort, so equal codes keep row order), every
 * row's lane and every chunk's bounds. Call on construction, after the
 * model's rows are restructured (densification) and for every new
 * model (a new snapshot version); refreshCullStage() covers in-place
 * parameter updates.
 */
void buildCullStage(const GaussianModel &model, BatchCullScratch &stage,
                    bool parallel = true);

/**
 * Bring @p stage back in step with @p model after the critical
 * attributes of @p rows (duplicate-free, any order) changed in place:
 * rewrite those rows' lanes in parallel through the stage's inverse
 * permutation, then recompute the bounds of the chunks holding them.
 * Every lane then equals
 * what buildCullStage() would write for its row, so culls match a fresh
 * build exactly; only the lane order keeps the last build's. The model
 * must have the size the stage was built for.
 */
void refreshCullStage(const GaussianModel &model,
                      const std::vector<uint32_t> &rows,
                      BatchCullScratch &stage, bool parallel = true);

/**
 * Cull @p model against every camera of the batch from @p stage, which
 * must be in step with @p model (buildCullStage / refreshCullStage).
 * @p subsets[v] receives exactly frustumCull(model, cameras[v]) — same
 * membership, same (ascending) order, in every build flavor.
 * Deterministic under any parallel split.
 */
void frustumCullBatch(const GaussianModel &model,
                      const std::vector<Camera> &cameras,
                      const BatchCullScratch &stage,
                      std::vector<std::vector<uint32_t>> &subsets,
                      bool parallel = true);

/** Views per group of cullViewGroups(): enough for the fused passes to
 *  share their per-Gaussian work across a group, few enough that one
 *  group's activations stay small next to the model. */
constexpr size_t kViewGroupSize = 16;

/** One group of a cullViewGroups() sweep: cameras[first, first +
 *  cams.size()) and their in-frustum sets. */
using ViewGroupFn = std::function<void(
    size_t first, const std::vector<Camera> &cams,
    std::vector<std::vector<uint32_t>> &subsets)>;

/**
 * Whole-view-set sweep (ground-truth rendering, PSNR evaluation, the
 * frustum sets of a view list): build one cull stage of @p model, cull
 * @p cameras from it in consecutive groups of kViewGroupSize views (the
 * last may be partial) and hand each group to @p group, in view order.
 * subsets[k] is exactly frustumCull(model, cams[k]); @p group may move
 * them out.
 */
void cullViewGroups(const GaussianModel &model,
                    const std::vector<Camera> &cameras, bool parallel,
                    const ViewGroupFn &group);

/**
 * Render every view of the batch through the fused pipeline (see file
 * comment). @p subsets[v] lists view v's in-frustum Gaussians and must
 * be ascending and duplicate-free (the frustumCull contract). Results
 * land in @p arena.views[v].out and are bitwise identical to the batch
 * of one renderForward(model, cameras[v], subsets[v], config).
 */
void renderForwardBatch(const GaussianModel &model,
                        const std::vector<Camera> &cameras,
                        const std::vector<std::vector<uint32_t>> &subsets,
                        const RenderConfig &config,
                        RenderArena &arena);

/**
 * Fused multi-view backward: back-propagate every view of the batch
 * last rendered by renderForwardBatch() into @p arena (the forward
 * activation, union map and per-view cut arrays it left behind are the
 * replay inputs — call this with the SAME model, cameras and config,
 * before the next forward into the arena). Gradients accumulate into
 * @p out exactly as B batches of one replayed in view order
 *
 *     for v: renderForward(model, cameras[v], subsets[v], config, a);
 *            renderBackward(model, cameras[v], config, d_images[v],
 *                           out, a)
 *
 * would produce them, bit for bit, under any dispatch backend and any
 * parallel split:
 *
 *  - Each view's tiles replay in a FIXED per-view chunk partition (at
 *    most four chunks, whatever the pool size) through the same
 *    kernels, with per-view per-chunk gradient partials reduced in
 *    fixed chunk order and the fixed-lane-order SIMD reduction.
 *  - The projection chain then runs once per batch over the union of
 *    the views' subsets: distinct union entries touch distinct model
 *    rows (parallel-safe), and within a union entry the per-view
 *    contributions accumulate in ascending view order.
 *
 * With retain_staging the per-tile staging already happened in the
 * forward (staged once per step, not twice), and the 8-lane partial
 * buffers stay zero between tiles so no per-tile cold memset is
 * needed. With a thread pool it schedules all (view, chunk) replay
 * tasks as one list (cross-view parallelism, one barrier per batch).
 */
void renderBackwardBatch(const GaussianModel &model,
                         const std::vector<Camera> &cameras,
                         const RenderConfig &config,
                         const std::vector<Image> &d_images,
                         GaussianGrads &out, RenderArena &arena);

namespace detail {

/** Pointer-and-count forms of renderForwardBatch/renderBackwardBatch
 *  (@p n views at @p cameras, @p subsets, @p d_images): the single-view
 *  renderForward/renderBackward run a batch of one without copying
 *  their camera, subset or loss gradient into vectors. */
void renderForwardViews(const GaussianModel &model, const Camera *cameras,
                        const std::vector<uint32_t> *subsets, size_t n,
                        const RenderConfig &config, RenderArena &arena);
void renderBackwardViews(const GaussianModel &model,
                         const Camera *cameras, const Image *d_images,
                         size_t n, const RenderConfig &config,
                         GaussianGrads &out, RenderArena &arena);

} // namespace detail

} // namespace clm

#endif // CLM_RENDER_BATCH_HPP
