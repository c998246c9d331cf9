#include "render/compositor.hpp"

#include <algorithm>

#include "render/arena.hpp"
#include "render/simd_kernels.hpp"

namespace clm {

namespace detail {

void
compositeTileRange(const RenderConfig &cfg, const TileGrid &grid,
                   const std::vector<float> &alpha_cut,
                   const std::vector<float> &row_k, TileStage &stage,
                   size_t t0, size_t t1, RenderOutput &out, bool stage_soa)
{
    const int w = grid.width;
    const int h = grid.height;
    const Vec3 background = cfg.background;
    // The runtime-dispatched per-ISA kernel table (or the table
    // cfg.kernels forces): every table produces bitwise-identical pixels.
    const RenderKernels &kern = cfg.kernels ? *cfg.kernels : renderKernels();
    for (size_t t = t0; t < t1; ++t) {
        const TileRange range = out.tile_ranges[t];
        const size_t len = range.size();
        const int ty = static_cast<int>(t) / grid.tiles_x;
        const int tx = static_cast<int>(t) % grid.tiles_x;
        const int px0 = tx * cfg.tile_size;
        const int py0 = ty * cfg.tile_size;
        const int px1 = std::min(px0 + cfg.tile_size, w);
        const int py1 = std::min(py0 + cfg.tile_size, h);
        if (len == 0) {
            // Nothing binned: write the background directly (the
            // output buffers are not prefilled).
            for (int py = py0; py < py1; ++py) {
                for (int px = px0; px < px1; ++px) {
                    size_t pi = static_cast<size_t>(py) * w + px;
                    out.final_t[pi] = 1.0f;
                    out.n_contrib[pi] = 0;
                    out.image.setPixel(px, py, background);
                }
            }
            continue;
        }
        stage.stageFrom(out.projected, out.isect_vals, range, alpha_cut,
                        row_k, stage_soa);
        CompositeTileArgs args;
        args.hot = stage.hot.data();
        args.colors = stage.color.data();
        args.len = len;
        args.px0 = px0;
        args.px1 = px1;
        args.py0 = py0;
        args.py1 = py1;
        args.width = w;
        args.alpha_min = cfg.alpha_min;
        args.t_min = cfg.transmittance_min;
        args.background = background;
        args.image = out.image.data().data();
        args.final_t = out.final_t.data();
        args.n_contrib = out.n_contrib.data();
        kern.composite_tile(args);
    }
}

} // namespace detail

} // namespace clm
