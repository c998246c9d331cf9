#include "render/culling.hpp"

#include "math/ellipsoid.hpp"

namespace clm {

std::vector<uint32_t>
frustumCull(const GaussianModel &model, const Camera &camera)
{
    std::vector<uint32_t> selected;
    const Frustum &fr = camera.frustum();
    for (size_t i = 0; i < model.size(); ++i) {
        Ellipsoid e = Ellipsoid::fromGaussian(
            model.position(i), model.worldScale(i), model.rotation(i));
        // Cheap bounding-sphere accept/reject first, exact support test
        // only near the boundary.
        if (!fr.intersectsSphere(e.center, e.boundingRadius()))
            continue;
        if (e.intersectsFrustum(fr))
            selected.push_back(static_cast<uint32_t>(i));
    }
    return selected;
}

double
sparsity(size_t in_frustum, size_t total)
{
    return total == 0 ? 0.0
                      : static_cast<double>(in_frustum) / total;
}

} // namespace clm
