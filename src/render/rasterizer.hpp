/**
 * @file
 * Tile-based differentiable rasterizer for 3D Gaussian splats — the CPU
 * equivalent of the gsplat CUDA kernels (§5). The forward pass composites
 * depth-sorted Gaussians front-to-back per pixel with early termination;
 * the backward pass replays each pixel back-to-front and produces analytic
 * gradients for every learnable parameter.
 *
 * There is one pipeline (render/batch.hpp): renderForward and
 * renderBackward are batches of one through the fused multi-view pass
 * renderForwardBatch / renderBackwardBatch. Projection runs in parallel
 * over the subset, intersections are expanded into one flat buffer of
 * `(tile_id << 32 | depth_bits)` keys by a count → scan → fill pass
 * (render/binning.hpp), a single stable radix sort orders them, and
 * tiles composite from contiguous ranges through tile-local SoA staging
 * (render/compositor.hpp). All stages are deterministic: the parallel
 * path is bitwise-identical to the serial path, with depth ties broken
 * by subset position.
 *
 * Per the pre-rendering-frustum-culling design (§5.1), the rasterizer takes
 * an explicit in-frustum index set: it never touches Gaussians outside it.
 * Hot-loop callers (one render per view per training step) should pass a
 * RenderArena (render/arena.hpp) to reuse activation buffers across calls.
 */

#ifndef CLM_RENDER_RASTERIZER_HPP
#define CLM_RENDER_RASTERIZER_HPP

#include <cstdint>
#include <vector>

#include "gaussian/model.hpp"
#include "render/binning.hpp"
#include "render/camera.hpp"
#include "render/image.hpp"
#include "render/projection.hpp"

namespace clm {

class RenderArena;
struct RenderKernels;

/** Exclusive bound on the entries one tile may stage: the tile kernels
 *  track the 1-based "last contributor" position in a float lane, which
 *  is exact only up to 2^24, and pack staged positions above a 4-bit
 *  chain mask. TileStage::stageFrom asserts it for the forward
 *  composite and the backward replay alike; reaching it takes more than
 *  16.7M splats over one tile. */
constexpr size_t kSimdMaxStagedEntries = size_t(1) << 24;

/** Rasterization settings. */
struct RenderConfig
{
    int sh_degree = 3;              //!< Active SH degree.
    Vec3 background{0, 0, 0};       //!< Composited behind the splats.
    int tile_size = 16;             //!< Square tile edge in pixels.
    float alpha_min = 1.0f / 255.0f;    //!< Contribution threshold.
    float transmittance_min = 1e-4f;    //!< Early-termination threshold.
    /** Rasterize across the global thread pool. Bitwise-identical to the
     *  serial path: every stage (projection, flat binning, stable radix
     *  sort, per-tile compositing, fixed-order gradient reduction) is
     *  deterministic, and independent of the machine's thread count:
     *  backward gradients accumulate over a fixed tile-chunk partition
     *  (at most four chunks per view) whatever the pool size. */
    bool parallel = true;
    /** Drop candidate tiles the footprint provably cannot contribute to
     *  (exact circle-vs-tile-rect test, see render/binning.hpp). Never
     *  changes the rendered image or the gradients — only the number of
     *  tile intersections binned. Off reproduces the plain square bound
     *  (kept togglable so benches can report the reduction). */
    bool exact_tile_bounds = true;
    /** Kernel table the tile composite and the backward replay run:
     *  8-pixel F8 lanes with the polynomial exp8()
     *  (render/simd_kernels.hpp). nullptr (the default) uses the
     *  startup dispatch choice, renderKernels(); tests and benches set
     *  it (renderKernelsFor()) to force a specific backend in-process.
     *  The choice never changes an output bit (all tables run the same
     *  IEEE op sequence), only speed. */
    const RenderKernels *kernels = nullptr;
};

/**
 * Forward-pass result plus the activation state the backward pass needs.
 * The memory footprint of this struct is what the paper calls "activation
 * memory": it scales with resolution and with |S_i|, not with N.
 */
struct RenderOutput
{
    Image image;

    /** Per-pixel transmittance remaining after compositing. */
    std::vector<float> final_t;

    /**
     * Per-pixel 1-based position (in the pixel's tile range) of the last
     * composited Gaussian; 0 when nothing contributed.
     */
    std::vector<uint32_t> n_contrib;

    /** Projected footprints of the in-frustum subset (invalid ones kept
     *  in place so intersections can index by subset position). */
    std::vector<ProjectedGaussian> projected;

    /** Flat intersection buffer: subset positions sorted by
     *  (tile, depth, subset position) — each tile's slice is its
     *  front-to-back compositing order. */
    std::vector<uint32_t> isect_vals;

    /** Per-tile [begin, end) range into isect_vals (row-major tiles). */
    std::vector<TileRange> tile_ranges;

    int tiles_x = 0;
    int tiles_y = 0;

    /** Flat intersection count (the paper's "num intersections"). */
    size_t totalTileIntersections() const { return isect_vals.size(); }

    /** Bytes held by this activation state. Counts every member buffer
     *  exactly (the flat intersection/tile-range buffers included);
     *  unlike the old nested per-tile vectors there is no per-tile heap
     *  bookkeeping left uncounted. */
    size_t activationBytes() const;
};

/**
 * Render @p camera's view from the Gaussians listed in @p subset — a
 * batch of one through renderForwardBatch (render/batch.hpp).
 *
 * @param subset In-frustum Gaussian indices (e.g. from frustumCull()),
 *        ascending and duplicate-free (the frustumCull contract).
 *        Indices outside the camera frustum are harmless (they project
 *        to invalid/zero-contribution footprints) but waste work.
 */
RenderOutput renderForward(const GaussianModel &model, const Camera &camera,
                           const std::vector<uint32_t> &subset,
                           const RenderConfig &config = {});

/**
 * Arena overload for hot loops: renders into @p arena.views[0].out,
 * reusing the arena's buffers across calls instead of reallocating per
 * view. The returned reference aliases that slot and stays valid until
 * the next render into the same arena. Results are bitwise-identical
 * to the value-returning overload.
 */
const RenderOutput &renderForward(const GaussianModel &model,
                                  const Camera &camera,
                                  const std::vector<uint32_t> &subset,
                                  const RenderConfig &config,
                                  RenderArena &arena);

/**
 * Backward pass of the single view last rendered into @p arena by
 * renderForward (a one-view renderBackwardBatch replay — call it with
 * the SAME model, camera and config, before the next forward into the
 * arena): given dL/d(image), accumulate parameter gradients into
 * @p out (sized for the full model; only rows in the rendered subset
 * are touched — the sparsity property the offload design relies on).
 */
void renderBackward(const GaussianModel &model, const Camera &camera,
                    const RenderConfig &config, const Image &d_image,
                    GaussianGrads &out, RenderArena &arena);

} // namespace clm

#endif // CLM_RENDER_RASTERIZER_HPP
