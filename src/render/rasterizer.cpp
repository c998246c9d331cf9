#include "render/rasterizer.hpp"

#include <utility>

#include "render/arena.hpp"
#include "render/batch.hpp"

namespace clm {

size_t
RenderOutput::activationBytes() const
{
    size_t bytes = image.data().size() * sizeof(float);
    bytes += final_t.size() * sizeof(float);
    bytes += n_contrib.size() * sizeof(uint32_t);
    bytes += projected.size() * sizeof(ProjectedGaussian);
    bytes += isect_vals.size() * sizeof(uint32_t);
    bytes += tile_ranges.size() * sizeof(TileRange);
    return bytes;
}

RenderOutput
renderForward(const GaussianModel &model, const Camera &camera,
              const std::vector<uint32_t> &subset, const RenderConfig &cfg)
{
    RenderArena arena;
    renderForward(model, camera, subset, cfg, arena);
    return std::move(arena.views[0].out);
}

const RenderOutput &
renderForward(const GaussianModel &model, const Camera &camera,
              const std::vector<uint32_t> &subset, const RenderConfig &cfg,
              RenderArena &arena)
{
    detail::renderForwardViews(model, &camera, &subset, 1, cfg, arena);
    return arena.views[0].out;
}

void
renderBackward(const GaussianModel &model, const Camera &camera,
               const RenderConfig &cfg, const Image &d_image,
               GaussianGrads &out, RenderArena &arena)
{
    detail::renderBackwardViews(model, &camera, &d_image, 1, cfg, out,
                                arena);
}

} // namespace clm
