/**
 * @file
 * Reusable render scratch: the one arena type of the render pipeline.
 * A RenderArena owned by a long-lived object (Trainer, Clm session,
 * quality harness loop, serving worker) lets every forward and backward
 * pass reuse its per-view activation buffers (image, final_t,
 * n_contrib, projected footprints, carved intersection buffer) and the
 * fused pass's shared scratch (cull stage, union map, key buffers, tile
 * staging, gradient accumulators) instead of reallocating them per
 * view — the rasterizer is the system hot path, called once per view
 * per training step by every trainer. A single-view renderForward is a
 * batch of one and lands in views[0].
 *
 * An arena is NOT thread-safe: one arena per concurrently rendering
 * caller. It is also purely an optimization — results are bitwise
 * identical to the arena-free renderForward overload.
 */

#ifndef CLM_RENDER_ARENA_HPP
#define CLM_RENDER_ARENA_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/aabb.hpp"
#include "render/binning.hpp"
#include "render/rasterizer.hpp"

namespace clm {

/** One staged footprint's hot test fields, packed into half a cache
 *  line so the compositing loops touch a single sequential stream (and
 *  keep one base pointer live instead of seven). */
struct alignas(32) StagedGaussian
{
    float mean_x, mean_y;          //!< Pixel-space center.
    float conic_a, conic_b, conic_c;
    /** Conservative alpha-cut power threshold (binning.hpp): pairs with
     *  power below it provably fail the alpha test, skipping the exp. */
    float power_cut;
    float opacity;
    /** Vertical conic curvature conic_c - conic_b^2 / conic_a: bounds
     *  the best power any pixel of a row can reach, so whole rows the
     *  footprint cannot touch are skipped without evaluating power. */
    float row_k;
};

/**
 * Tile-local staging of the hot footprint fields (SoA): before the
 * per-pixel loop, one tile's Gaussians are packed compactly so forward
 * compositing and the backward replay stream sequentially through memory
 * instead of striding across the full ProjectedGaussian records.
 */
struct TileStage
{
    std::vector<StagedGaussian> hot;   //!< Per-entry test fields.
    std::vector<Vec3> color;           //!< Touched only on contribution.

    /** @name SIMD batch staging (backward replay)
     * SoA mirrors of the staged fields, filled when stageFrom() is
     * asked to @p stage_soa: the backward kernel replays 8 pixels per
     * F8 batch straight from these arrays
     * (render/simd_kernels.hpp::BackwardTileArgs). Padded to a
     * multiple of 8 with entries whose power_cut is +inf, so padding
     * lanes can never pass the alpha-cut test. */
    /// @{
    std::vector<float> soa_mean_x, soa_mean_y;
    std::vector<float> soa_conic_a, soa_conic_b, soa_conic_c;
    std::vector<float> soa_power_cut, soa_row_k;
    std::vector<float> soa_opacity;
    std::vector<float> soa_color_r, soa_color_g, soa_color_b;
    /// @}

    /** Pack one tile's Gaussians (the @p range slice of @p isect_vals)
     *  from @p projected plus the per-subset cut arrays into this
     *  stage — the single staging step shared by the forward composite
     *  and the backward replay, so the two passes can never desync.
     *  @p stage_soa additionally fills the SoA mirrors the backward
     *  kernel reads. Asserts (std::logic_error) that the range holds
     *  fewer than kSimdMaxStagedEntries entries, before reading any. */
    void stageFrom(const std::vector<ProjectedGaussian> &projected,
                   const std::vector<uint32_t> &isect_vals,
                   TileRange range, const std::vector<float> &alpha_cut,
                   const std::vector<float> &row_k,
                   bool stage_soa = false);

    /** Bytes currently held (for memory accounting). */
    size_t bytes() const;
};

/** Lanes per cull chunk: the unit the chunked cull tests against the
 *  frustum before sweeping any of its lanes (a multiple of 8). */
constexpr size_t kCullChunkLanes = 64;

/**
 * The shared cull stage of frustumCullBatch (render/batch.hpp): one
 * lane per Gaussian holding its bounding-sphere center and packed
 * reject threshold, laid out in a Morton order of the positions and
 * cut into kCullChunkLanes-lane chunks with per-chunk bounds, so a
 * view sweeps only the chunks that can reach its frustum.
 *
 * The stage is a pure function of the model's critical attributes
 * (position, log-scale, rotation), except for its lane order, which is
 * fixed at the last full build. buildCullStage() computes it from
 * scratch (construction, densification, a new snapshot version);
 * refreshCullStage() rewrites only the lanes of rows whose critical
 * attributes changed since and re-bounds the chunks holding them.
 * Either way every row's lane holds exactly the values a fresh build
 * would give it, so culls never depend on which of the two ran.
 */
struct BatchCullScratch
{
    /** Per-lane bounding-sphere centers, padded to a whole chunk. */
    std::vector<float> cx, cy, cz;
    /** Packed reject threshold: -radius - eps * 3|p|_inf (padding lanes
     *  hold +inf, so they always read as "clearly outside"). */
    std::vector<float> neg_thresh;
    /** Model row of each lane (Morton order of the last full build)
     *  and its inverse, the lane of each model row. */
    std::vector<uint32_t> row_of_lane, lane_of_row;

    /** One chunk's conservative bounds over its real lanes: the box of
     *  their centers and the least threshold. min_thresh is -inf when
     *  some lane is non-finite or out of range, so such a chunk is
     *  never skipped. */
    struct Chunk
    {
        Aabb box;
        float min_thresh;
    };
    std::vector<Chunk> chunks;

    /** Number of Gaussians the stage covers. */
    size_t size() const { return row_of_lane.size(); }

    /** Bytes currently held (for memory accounting). */
    size_t bytes() const;
};

/** See file comment. */
class RenderArena
{
  public:
    /** One view's slot of the batch: its forward activation plus the
     *  per-view replay state the backward pass reads. */
    struct View
    {
        /** Forward activation state, valid after a forward into the
         *  arena until the next one. */
        RenderOutput out;
        /** Per-subset-entry alpha-cut power thresholds (exp skipping). */
        std::vector<float> alpha_cut;
        /** Per-subset-entry vertical conic curvature (row skipping). */
        std::vector<float> row_k;
        /** alpha_min the cut arrays were computed with; the backward
         *  pass asserts it matches its config (same-arena, same-config
         *  replay contract). Negative = no forward yet. */
        float cuts_alpha_min = -1.0f;
        /** Tile staging: one slot per worker chunk, or per tile in
         *  retained-staging mode. */
        std::vector<TileStage> stages;
        /** Backward: per-subset-entry footprint gradients (reduced). */
        std::vector<ProjectionGrads> grads;
        /** Backward: per-chunk partial accumulators, reduced in chunk
         *  order so results never depend on thread scheduling. */
        std::vector<std::vector<ProjectionGrads>> grad_partials;

        /** Approximate bytes held by activation state + scratch. */
        size_t footprintBytes() const;
    };

    /** Per-view slots; view v of the last forward lands in views[v]
     *  (resized on demand, never shrunk). */
    std::vector<View> views;

    /**
     * Retained-staging mode (set BEFORE the forward; the GPU-only
     * trainer's batches enable it, serving and single-view callers
     * leave it off): the forward composite uses one stage slot per TILE
     * instead of per worker chunk and also fills the SoA mirrors SIMD
     * backward replay reads, so the backward can replay every tile
     * from the forward's staging instead of re-staging it — each tile
     * is staged ONCE per training step instead of twice. Pure data
     * movement either way: forward pixels and backward gradients are
     * bitwise unchanged. Costs memory proportional to the batch's
     * total intersections.
     */
    bool retain_staging = false;

    /** @name Fused-pass state (valid after a forward until the next) */
    /// @{
    /** Number of views the last forward rendered. */
    size_t batch_views = 0;
    std::vector<uint32_t> union_indices;    //!< Ascending union of subsets.
    /** Union-entry view map: chain_offsets[u] .. chain_offsets[u+1]
     *  index chain_pairs, each (view << 32 | subset position), views
     *  ascending — the forward's union-major projection order and the
     *  backward's per-model-row accumulation order (that of B batches
     *  of one replayed in view order). */
    std::vector<size_t> chain_offsets;
    std::vector<uint64_t> chain_pairs;
    /// @}

    /** @name Fused-pass scratch (contents are garbage between calls) */
    /// @{
    BatchCullScratch cull;
    BinningScratch binning;           //!< Fused key/offset scratch.
    std::vector<uint32_t> fused_vals; //!< One sorted buffer, all views.
    /** Backward: per (view, chunk) replay task, its private 8-lane
     *  gradient partial buffer, kept all-zero between tiles (the flush
     *  re-zeroes the block it reads while it is cache-hot), so no
     *  per-tile cold memset is needed. */
    std::vector<std::vector<float>> grad8_scratch;
    /// @}

    /** Approximate bytes held (all per-view slots + fused scratch). */
    size_t footprintBytes() const;
};

} // namespace clm

#endif // CLM_RENDER_ARENA_HPP
