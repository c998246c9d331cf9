/**
 * @file
 * Per-tile forward compositing of the render pipeline
 * (render/batch.cpp) through the F8 kernel tables
 * (render/simd_kernels.hpp). Every view of a batch — a batch of one
 * included — runs the exact same kernel over the exact same staged
 * inputs, which is what makes a view's pixels independent of the batch
 * it is rendered in.
 */

#ifndef CLM_RENDER_COMPOSITOR_HPP
#define CLM_RENDER_COMPOSITOR_HPP

#include <cstddef>
#include <vector>

#include "render/binning.hpp"
#include "render/rasterizer.hpp"

namespace clm {

struct TileStage;

namespace detail {

/**
 * Composite the tiles [@p t0, @p t1) of @p out's tile grid: stage each
 * tile's Gaussians from @p out (projected footprints + sorted
 * intersections + per-entry cuts), then run the kernel table's
 * composite_tile (cfg.kernels, or the startup dispatch choice) — the
 * one per-tile compositor, in every build flavor. Empty tiles write the
 * background directly. Tiles touch disjoint pixels, so any parallel
 * split over tile ranges produces identical results; @p stage is the
 * calling worker's private staging scratch.
 *
 * @p stage_soa additionally fills the stage's SoA mirrors the backward
 * kernel reads — the arena's retained-staging mode, which lets the
 * backward replay each tile without re-staging it. Staging is pure data
 * movement, so the composited pixels are unchanged.
 */
void compositeTileRange(const RenderConfig &cfg, const TileGrid &grid,
                        const std::vector<float> &alpha_cut,
                        const std::vector<float> &row_k, TileStage &stage,
                        size_t t0, size_t t1, RenderOutput &out,
                        bool stage_soa = false);

} // namespace detail

} // namespace clm

#endif // CLM_RENDER_COMPOSITOR_HPP
