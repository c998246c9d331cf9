/**
 * @file
 * The render pipeline: fused multi-view batch rendering. A batch of B
 * views is culled, projected and binned through ONE pass each instead
 * of view-at-a-time, and a single view is simply a batch of one
 * (renderForward / renderBackward in render/rasterizer.hpp):
 *
 *  - frustumCullBatch(): one sweep over the model builds a shared SoA
 *    cull stage (world-space bounding spheres — the per-Gaussian setup
 *    every view would otherwise redo, including the 3 exp() of the
 *    world scale), then each view runs an 8-wide packed plane prefilter
 *    over it; only near-boundary survivors run the exact per-view
 *    ellipsoid test. Membership is bitwise identical to frustumCull()
 *    per view: the prefilter only rejects Gaussians that provably fail
 *    the exact sphere test, under an explicit error margin
 *    (kCullPrefilterEps) that covers the float-evaluation differences
 *    between the packed and scalar plane distances.
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
 *    both the SIMD and -DCLM_DISABLE_SIMD=ON flavors.
 *
 *  - renderBackwardBatch(): the matching fused backward, bitwise
 *    identical to B batches of one replayed in view order.
 *
 * Every render in the system runs this pass: serving wakeups
 * (serve/render_service), GPU-only training batches, the offload
 * trainers' microbatches and every single-view render. The shared
 * per-Gaussian work is paid once per batch instead of once per view
 * and, when serving, the cull stage once per published snapshot. With
 * a thread pool it additionally exposes cross-view parallelism (all
 * views' tiles form one task list).
 */

#ifndef CLM_RENDER_BATCH_HPP
#define CLM_RENDER_BATCH_HPP

#include <cstdint>
#include <vector>

#include "gaussian/model.hpp"
#include "render/arena.hpp"
#include "render/camera.hpp"
#include "render/rasterizer.hpp"

namespace clm {

/**
 * Relative error budget of the packed cull prefilter: a view may
 * pre-reject a Gaussian only when its packed plane distance clears the
 * sphere test by more than kCullPrefilterEps times the distance's term
 * magnitudes (|n_k p_k| <= |p|_inf per component, plus |d|). The true
 * float-evaluation difference between the packed and scalar distances
 * is a few ulp (~1e-7 relative, FMA contraction included), so 1e-4
 * over-covers it by ~1000x; anything closer to the boundary falls
 * through to the exact scalar test. Same error-budget idiom as the
 * binning cuts (render/binning.hpp).
 */
constexpr float kCullPrefilterEps = 1e-4f;

/**
 * Cull @p model against every camera of the batch in one fused pass.
 * @p subsets[v] receives exactly frustumCull(model, cameras[v]) — same
 * membership, same (ascending) order, in every build flavor.
 * Deterministic under any parallel split.
 *
 * @param cache_key Non-zero tags the shared SoA stage with this key
 *        (callers pass the ModelSnapshot version they render): when
 *        @p scratch already holds the stage for the same key and model
 *        size, the per-Gaussian rebuild — including the 3 worldScale
 *        exp() per row — is skipped entirely, amortizing it across all
 *        batches served from one snapshot. The stage is a pure function
 *        of the model, so the cache is bitwise neutral; callers must
 *        pass distinct keys for distinct models (snapshot versions do).
 *        0 (the default) rebuilds unconditionally and untags.
 */
void frustumCullBatch(const GaussianModel &model,
                      const std::vector<Camera> &cameras,
                      BatchCullScratch &scratch,
                      std::vector<std::vector<uint32_t>> &subsets,
                      bool parallel = true, uint64_t cache_key = 0);

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
 *  - Each view's tiles replay in a FIXED per-view chunk partition
 *    (derived from the pool size only) through the same kernels, with
 *    per-view per-chunk gradient partials reduced in fixed chunk order
 *    and the fixed-lane-order SIMD reduction.
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
