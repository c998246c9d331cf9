/**
 * @file
 * Pre-rendering frustum culling (§5.1): computes the in-frustum index set
 * S_i for a view *before* rasterization, so downstream kernels only process
 * |S_i| Gaussians and the offload engine knows exactly which parameter rows
 * a microbatch needs. Only selection-critical attributes (position, scale,
 * rotation) are read — the property that makes attribute-wise offload
 * possible (§4.1).
 */

#ifndef CLM_RENDER_CULLING_HPP
#define CLM_RENDER_CULLING_HPP

#include <cstdint>
#include <vector>

#include "gaussian/model.hpp"
#include "math/ellipsoid.hpp"
#include "render/camera.hpp"

namespace clm {

/**
 * The kCullSigma bounding-sphere radius of Gaussian @p i — the largest
 * semi-axis of the cull ellipsoid, i.e. exactly
 * Ellipsoid::fromGaussian(...).boundingRadius(). The batched cull
 * stage (render/batch.cpp) precomputes it per Gaussian for its sphere
 * prefilter, whose selections match frustumCull only because both test
 * this same radius — so the expression lives here, next to frustumCull.
 */
inline float
cullBoundingRadius(const GaussianModel &model, size_t i)
{
    const Vec3 scale = model.worldScale(i);
    float r = kCullSigma * scale.x;
    if (kCullSigma * scale.y > r)
        r = kCullSigma * scale.y;
    if (kCullSigma * scale.z > r)
        r = kCullSigma * scale.z;
    return r;
}

/**
 * Compute the in-frustum Gaussian index set S for @p camera.
 *
 * A Gaussian is selected when its 3-sigma ellipsoid intersects the view
 * frustum (§4.1). Indices are returned in ascending order.
 */
std::vector<uint32_t> frustumCull(const GaussianModel &model,
                                  const Camera &camera);

/**
 * Per-view sparsity rho_i = |S_i| / N (§3). Returns 0 for an empty model.
 */
double sparsity(size_t in_frustum, size_t total);

} // namespace clm

#endif // CLM_RENDER_CULLING_HPP
