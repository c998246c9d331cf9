/**
 * @file
 * Runtime-dispatched SIMD render kernels. One binary carries a kernel
 * table per F8 backend its architecture can express (x86-64: avx2 +
 * sse2 + scalar; aarch64: neon + scalar); renderKernels() returns the
 * table for the startup dispatch choice (math/simd_backend.hpp —
 * CPUID-selected, CLM_SIMD-overridable), and renderKernelsFor() gives
 * tests/benches any compiled-in table for in-process cross-backend
 * comparison (RenderConfig::kernels).
 *
 * Every backend's kernel runs the same IEEE op sequence (see
 * math/simd.hpp), so the dispatch choice NEVER changes an output bit —
 * only speed. The argument structs are raw pointers + scalars on
 * purpose: the AVX2 table is compiled in a baseline TU under a target
 * pragma, and keeping the kernel surface free of templates/containers
 * keeps AVX2 codegen out of every vague-linkage (comdat) symbol a
 * baseline TU might share.
 */

#ifndef CLM_RENDER_SIMD_KERNELS_HPP
#define CLM_RENDER_SIMD_KERNELS_HPP

#include <cstddef>
#include <cstdint>

#include "math/simd_backend.hpp"
#include "math/vec.hpp"

namespace clm {

struct StagedGaussian;

/** Forward compositing of one tile: blocks of four 8-pixel chains, one
 *  F8 lane per pixel. */
struct CompositeTileArgs
{
    const StagedGaussian *hot;    //!< Staged tile entries (AoS).
    const Vec3 *colors;           //!< Per-entry view-space colors.
    size_t len;                   //!< Staged entry count.
    int px0, px1, py0, py1;       //!< Pixel rect of the tile (clipped).
    int width;                    //!< Full image width in pixels.
    float alpha_min;
    float t_min;
    Vec3 background;
    float *image;                 //!< Full image, interleaved RGB rows.
    float *final_t;               //!< Full image, per pixel.
    uint32_t *n_contrib;          //!< Full image, per pixel.
};

/** Component order of the backward kernel's per-entry 8-lane gradient
 *  partials: grad8[(pos * kG8Comps + comp) * 8 + lane]. */
enum : int
{
    kG8MeanX = 0,
    kG8MeanY,
    kG8ConicA,
    kG8ConicB,
    kG8ConicC,
    kG8ColorR,
    kG8ColorG,
    kG8ColorB,
    kG8Opacity,
    kG8Comps
};

/** Backward replay of one tile: the forward's blocks of four 8-pixel
 *  chains, one F8 lane per pixel, accumulating per-entry gradients
 *  into 8-lane partials that the caller reduces in fixed lane order
 *  (deterministic lane reduction). */
struct BackwardTileArgs
{
    /** @name SoA staged tile fields, padded to a multiple of 8 with
     *  power_cut = +inf entries (TileStage::stageFrom). */
    /// @{
    const float *mean_x, *mean_y;
    const float *conic_a, *conic_b, *conic_c;
    const float *power_cut, *row_k;
    const float *opacity;
    const float *color_r, *color_g, *color_b;
    /// @}
    size_t len;                   //!< Staged entry count (unpadded).
    int px0, px1, py0, py1;       //!< Pixel rect of the tile (clipped).
    int width;                    //!< Full image width in pixels.
    float alpha_min;
    Vec3 background;
    const float *final_t;         //!< Forward activation, full image.
    const uint32_t *n_contrib;    //!< Forward activation, full image.
    const float *d_image;         //!< dL/d(pixel), interleaved RGB.
    /** len * kG8Comps * 8 floats, zeroed by the caller; masked-out
     *  lanes contribute exact +0.0f. */
    float *grad8;
};

/** Batched frustum plane sweep of the batch culler: fills a per-entry
 *  reject mask (nonzero = the bounding sphere is clearly outside some
 *  plane by more than the margin) and accept mask (nonzero = it is
 *  clearly inside every plane); the caller runs the exact predicate on
 *  the entries neither mask decides. */
struct CullPrefilterArgs
{
    const float *cx, *cy, *cz;    //!< Centers, padded to a multiple of 8.
    const float *neg_thresh;      //!< -radius - eps term (+inf padding).
    size_t padded;                //!< Entry count, multiple of 8.
    float plane_nx[6], plane_ny[6], plane_nz[6], plane_d[6];
    float margin[6];
    float *rejected;              //!< @p padded lanes of mask output.
    float *accepted;              //!< @p padded lanes of mask output.
};

/** One backend's kernel table. */
struct RenderKernels
{
    SimdBackend backend;
    const char *name;
    void (*composite_tile)(const CompositeTileArgs &);
    void (*backward_tile)(const BackwardTileArgs &);
    void (*cull_prefilter)(const CullPrefilterArgs &);
};

/** The table of the startup dispatch choice (simdDispatchBackend()).
 *  Never null: the scalar table exists in every build. */
const RenderKernels &renderKernels();

/** @p backend's table, or nullptr when it is not compiled into this
 *  binary / unsafe on this CPU. For tests and per-backend benches. */
const RenderKernels *renderKernelsFor(SimdBackend backend);

/** @name Per-backend table instances
 * Defined by render/simd_kernels_<backend>.cpp; nullptr when the
 * backend is not compiled in. Use renderKernelsFor() instead.
 */
/// @{
const RenderKernels *renderKernelsScalar();
const RenderKernels *renderKernelsSse2();
const RenderKernels *renderKernelsAvx2();
const RenderKernels *renderKernelsNeon();
/// @}

} // namespace clm

#endif // CLM_RENDER_SIMD_KERNELS_HPP
