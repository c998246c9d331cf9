/**
 * @file
 * Fused multi-view batch rendering — the serving-side pipeline pass the
 * ROADMAP calls multi-view batching. A batch of B views is culled,
 * projected and binned through ONE pass each instead of view-at-a-time:
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
 *    once, the view-independent per-Gaussian work (3D covariance, world
 *    opacity, alpha-cut power threshold) is precomputed once per union
 *    entry and reused by every view's projection, and all views'
 *    tile intersections are expanded into ONE flat key buffer — keys
 *    carry (view-offset tile id, depth) — sorted by a single stable
 *    radix sort, with per-view tile ranges carved out of the one sorted
 *    buffer. Compositing runs the same per-tile kernels as
 *    renderForward over each view's carved ranges, so every view's
 *    RenderOutput (image, final_t, n_contrib, intersections, ranges) is
 *    bitwise identical to a sequential renderForward call with the same
 *    subset — asserted by tests/test_serve.cpp in both the SIMD and
 *    -DCLM_DISABLE_SIMD=ON flavors.
 *
 * The fused pass is the one serving render path (serve/render_service):
 * every wakeup, a batch of one included, runs it, so the shared
 * per-Gaussian work is paid once per batch instead of once per view
 * and the cull stage once per published snapshot. With a thread pool
 * it additionally exposes cross-view parallelism (all views' tiles
 * form one task list).
 */

#ifndef CLM_RENDER_BATCH_HPP
#define CLM_RENDER_BATCH_HPP

#include <cstdint>
#include <vector>

#include "gaussian/model.hpp"
#include "math/mat.hpp"
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

/** Reusable scratch of frustumCullBatch: the shared SoA cull stage
 *  (padded to a multiple of 8 for the packed sweep). The stage is a
 *  pure function of the model parameters, so it can be cached across
 *  batches keyed by the snapshot version being served (the first rung
 *  of the ROADMAP's snapshot-scoped serving caches). */
struct BatchCullScratch
{
    std::vector<float> cx, cy, cz;    //!< Bounding-sphere centers.
    /** Packed reject threshold: -radius - eps * 3|p|_inf (padding lanes
     *  hold +inf, so they always read as "clearly outside"). */
    std::vector<float> neg_thresh;

    /** @name Snapshot-scoped cache tag
     * Non-zero cached_key means the SoA stage above was built from a
     * model tagged with that key (a ModelSnapshot version) of
     * cached_size Gaussians; frustumCullBatch skips the rebuild when a
     * caller passes the same key again. 0 = untagged (always rebuild).
     */
    /// @{
    uint64_t cached_key = 0;
    size_t cached_size = 0;
    /// @}

    /** Bytes currently held (for memory accounting). */
    size_t bytes() const;
};

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

/** Wall-clock stage breakdown of the last renderForwardBatch(). */
struct BatchStageTimes
{
    double precompute_s = 0;    //!< Union merge + per-entry precompute.
    double project_s = 0;       //!< All views' projections.
    double bin_s = 0;           //!< Fused binning + one sort + carve.
    double composite_s = 0;     //!< All views' tile compositing.
};

/**
 * Scratch + outputs of the fused batch pipeline. Holds one RenderArena
 * per view (view v's output lands in views[v].out, exactly as if
 * renderForward had rendered into that arena) plus the fused-pass
 * scratch. Not thread-safe: one BatchRenderArena per concurrently
 * serving worker.
 */
class BatchRenderArena
{
  public:
    /** Per-view arenas; resized on demand by renderForwardBatch. */
    std::vector<RenderArena> views;

    /**
     * Retained-staging mode (set BEFORE renderForwardBatch; training
     * callers enable it, serving callers leave it off): the forward
     * composite uses one stage slot per TILE instead of per worker
     * chunk and also fills the SoA mirrors SIMD backward replay reads,
     * so renderBackwardBatch can replay every tile from the forward's
     * staging instead of re-staging it — each tile is staged ONCE per
     * training step instead of twice. Pure data movement either way:
     * forward pixels and backward gradients are bitwise unchanged.
     * Costs memory proportional to the batch's total intersections.
     */
    bool retain_staging = false;

    /** @name Fused-pass scratch (contents are garbage between calls) */
    /// @{
    BatchCullScratch cull;
    std::vector<uint32_t> union_indices;    //!< Ascending union of subsets.
    /** Per view: union slot of each subset entry. */
    std::vector<std::vector<uint32_t>> slots;
    std::vector<Mat3> sigma;          //!< Per-union-entry 3D covariance.
    std::vector<float> opacity;       //!< Per-union-entry world opacity.
    std::vector<float> power_cut;     //!< Per-union-entry alpha cut.
    BinningScratch binning;           //!< Fused key/offset scratch.
    std::vector<uint32_t> fused_vals; //!< One sorted buffer, all views.
    /// @}

    /** @name Fused-backward scratch (renderBackwardBatch) */
    /// @{
    /** Per (view, chunk) replay task: its private 8-lane gradient
     *  partial buffer, kept all-zero between tiles (the flush re-zeroes
     *  the block it reads while it is cache-hot), so the per-tile cold
     *  memset of the sequential backward disappears. */
    std::vector<std::vector<float>> grad8_scratch;
    /** Union-entry CSR over the batch: chain_offsets[u] ..
     *  chain_offsets[u+1] index chain_pairs, each (view << 32 | subset
     *  position), views ascending — the per-model-row accumulation
     *  order of the sequential per-view chain. */
    std::vector<size_t> chain_offsets;
    std::vector<size_t> chain_fill;
    std::vector<uint64_t> chain_pairs;
    /// @}

    /** Stage breakdown of the last renderForwardBatch() call. */
    BatchStageTimes stage_times;

    /** Approximate bytes held (all per-view arenas + fused scratch). */
    size_t footprintBytes() const;
};

/**
 * Render every view of the batch through the fused pipeline (see file
 * comment). @p subsets[v] lists view v's in-frustum Gaussians and must
 * be ascending and duplicate-free (the frustumCull contract). Results
 * land in @p arena.views[v].out and are bitwise identical to
 * renderForward(model, cameras[v], subsets[v], config).
 */
void renderForwardBatch(const GaussianModel &model,
                        const std::vector<Camera> &cameras,
                        const std::vector<std::vector<uint32_t>> &subsets,
                        const RenderConfig &config,
                        BatchRenderArena &arena);

/**
 * Fused multi-view backward: back-propagate every view of the batch
 * last rendered by renderForwardBatch() into @p arena (the forward
 * activation, union map and per-view cut arrays it left behind are the
 * replay inputs — call this with the SAME model, cameras and config,
 * before the next forward into the arena). Gradients accumulate into
 * @p out exactly as the sequential per-view loop
 *
 *     for v: renderBackward(model, cameras[v], config,
 *                           arena.views[v].out, d_images[v], out)
 *
 * would produce them, bit for bit, under any dispatch backend and any
 * parallel split:
 *
 *  - Each view's tiles replay in the sequential pass's fixed chunk
 *    partition through the same kernels, with per-view per-chunk
 *    gradient partials reduced in the same fixed chunk order and the
 *    same fixed-lane-order SIMD reduction.
 *  - The projection chain then runs once per batch over the union of
 *    the views' subsets: distinct union entries touch distinct model
 *    rows (parallel-safe), and within a union entry the per-view
 *    contributions accumulate in ascending view order — the exact
 *    accumulation order of the sequential loop.
 *
 * What makes it faster than the sequential loop on one core: with
 * retain_staging the per-tile staging already happened in the forward
 * (staged once per step, not twice), and the 8-lane partial buffers
 * stay zero between tiles so the sequential pass's per-tile cold
 * memset is gone. With a thread pool it additionally schedules all
 * (view, chunk) replay tasks as one list (cross-view parallelism, one
 * barrier instead of one per view).
 */
void renderBackwardBatch(const GaussianModel &model,
                         const std::vector<Camera> &cameras,
                         const RenderConfig &config,
                         const std::vector<Image> &d_images,
                         GaussianGrads &out, BatchRenderArena &arena);

} // namespace clm

#endif // CLM_RENDER_BATCH_HPP
