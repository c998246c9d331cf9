#include "render/arena.hpp"

#include <limits>

#include "util/logging.hpp"

namespace clm {

void
TileStage::stageFrom(const std::vector<ProjectedGaussian> &projected,
                     const std::vector<uint32_t> &isect_vals,
                     TileRange range, const std::vector<float> &alpha_cut,
                     const std::vector<float> &row_k, bool stage_soa)
{
    const size_t len = range.size();
    CLM_ASSERT(len < kSimdMaxStagedEntries, "tile stages ", len,
               " entries; the tile kernels handle fewer than 2^24");
    hot.resize(len);
    color.resize(len);
    for (size_t j = 0; j < len; ++j) {
        const uint32_t s = isect_vals[range.begin + j];
        const ProjectedGaussian &g = projected[s];
        StagedGaussian &e = hot[j];
        e.mean_x = g.mean2d.x;
        e.mean_y = g.mean2d.y;
        e.conic_a = g.conic_a;
        e.conic_b = g.conic_b;
        e.conic_c = g.conic_c;
        e.power_cut = alpha_cut[s];
        e.opacity = g.opacity;
        e.row_k = row_k[s];
        color[j] = g.color;
    }
    if (!stage_soa)
        return;
    const size_t padded = (len + 7) & ~size_t(7);
    soa_mean_x.resize(padded);
    soa_mean_y.resize(padded);
    soa_conic_a.resize(padded);
    soa_conic_b.resize(padded);
    soa_conic_c.resize(padded);
    soa_power_cut.resize(padded);
    soa_row_k.resize(padded);
    soa_opacity.resize(padded);
    soa_color_r.resize(padded);
    soa_color_g.resize(padded);
    soa_color_b.resize(padded);
    for (size_t j = 0; j < len; ++j) {
        const StagedGaussian &e = hot[j];
        soa_mean_x[j] = e.mean_x;
        soa_mean_y[j] = e.mean_y;
        soa_conic_a[j] = e.conic_a;
        soa_conic_b[j] = e.conic_b;
        soa_conic_c[j] = e.conic_c;
        soa_power_cut[j] = e.power_cut;
        soa_row_k[j] = e.row_k;
        soa_opacity[j] = e.opacity;
        soa_color_r[j] = color[j].x;
        soa_color_g[j] = color[j].y;
        soa_color_b[j] = color[j].z;
    }
    for (size_t j = len; j < padded; ++j) {
        soa_mean_x[j] = 0.0f;
        soa_mean_y[j] = 0.0f;
        soa_conic_a[j] = 0.0f;
        soa_conic_b[j] = 0.0f;
        soa_conic_c[j] = 0.0f;
        // +inf cut: padding lanes always fail `power >= power_cut`.
        soa_power_cut[j] = std::numeric_limits<float>::infinity();
        soa_row_k[j] = 0.0f;
        soa_opacity[j] = 0.0f;
        soa_color_r[j] = 0.0f;
        soa_color_g[j] = 0.0f;
        soa_color_b[j] = 0.0f;
    }
}

size_t
TileStage::bytes() const
{
    size_t soa = (soa_mean_x.capacity() + soa_mean_y.capacity()
                  + soa_conic_a.capacity() + soa_conic_b.capacity()
                  + soa_conic_c.capacity() + soa_power_cut.capacity()
                  + soa_row_k.capacity() + soa_opacity.capacity()
                  + soa_color_r.capacity() + soa_color_g.capacity()
                  + soa_color_b.capacity())
               * sizeof(float);
    return hot.capacity() * sizeof(StagedGaussian)
         + color.capacity() * sizeof(Vec3) + soa;
}

size_t
BatchCullScratch::bytes() const
{
    return (cx.capacity() + cy.capacity() + cz.capacity()
            + neg_thresh.capacity())
             * sizeof(float)
         + (row_of_lane.capacity() + lane_of_row.capacity())
               * sizeof(uint32_t)
         + chunks.capacity() * sizeof(Chunk);
}

size_t
RenderArena::View::footprintBytes() const
{
    size_t bytes = out.activationBytes()
                 + (alpha_cut.capacity() + row_k.capacity())
                       * sizeof(float);
    for (const TileStage &stage : stages)
        bytes += stage.bytes();
    bytes += grads.capacity() * sizeof(ProjectionGrads);
    for (const auto &partial : grad_partials)
        bytes += partial.capacity() * sizeof(ProjectionGrads);
    return bytes;
}

size_t
RenderArena::footprintBytes() const
{
    size_t bytes = cull.bytes();
    for (const View &v : views)
        bytes += v.footprintBytes();
    bytes += union_indices.capacity() * sizeof(uint32_t);
    bytes += chain_offsets.capacity() * sizeof(size_t);
    bytes += chain_pairs.capacity() * sizeof(uint64_t);
    bytes += binning.bytes();
    bytes += fused_vals.capacity() * sizeof(uint32_t);
    for (const auto &g : grad8_scratch)
        bytes += g.capacity() * sizeof(float);
    return bytes;
}

} // namespace clm
