/**
 * @file
 * The 3-sigma ellipsoid of an anisotropic Gaussian and its (conservative)
 * frustum intersection test — the geometric core of selection (§4.1):
 * a Gaussian is in-frustum iff its 3-sigma ellipsoid intersects the frustum.
 */

#ifndef CLM_MATH_ELLIPSOID_HPP
#define CLM_MATH_ELLIPSOID_HPP

#include "math/frustum.hpp"
#include "math/quat.hpp"
#include "math/vec.hpp"

namespace clm {

/** Number of standard deviations used for selection, per the paper (§4.1). */
constexpr float kCullSigma = 3.0f;

/**
 * An ellipsoid { c + R diag(r) u : |u| <= 1 } with center c, rotation R
 * (from a quaternion) and per-axis radii r.
 */
struct Ellipsoid
{
    Vec3 center;
    Quat rotation;
    Vec3 radii;    //!< Semi-axes; for a Gaussian these are kCullSigma*scale.

    /** The 3-sigma ellipsoid of a Gaussian (scale given in std-devs). */
    static Ellipsoid
    fromGaussian(const Vec3 &pos, const Vec3 &scale, const Quat &rot,
                 float sigma = kCullSigma)
    {
        return {pos, rot, scale * sigma};
    }

    /** Radius of the bounding sphere (largest semi-axis). */
    float
    boundingRadius() const
    {
        float r = radii.x;
        if (radii.y > r)
            r = radii.y;
        if (radii.z > r)
            r = radii.z;
        return r;
    }

    /**
     * Support distance: the extent of the ellipsoid along unit direction
     * @p dir, i.e. max over the ellipsoid surface of dot(p - center, dir).
     * For an ellipsoid this is |diag(r) R^T dir|.
     */
    float supportDistance(const Vec3 &dir) const;

    /**
     * Exact plane-based frustum test: the ellipsoid is rejected iff it lies
     * strictly outside some frustum plane, using the support distance along
     * the plane normal. (Conservative for convex-region intersection, exact
     * per plane — matching production 3DGS cullers.) The rotation
     * matrix is built once for all six planes; each plane's support
     * distance is bitwise supportDistance(plane normal).
     */
    bool intersectsFrustum(const Frustum &f) const;
};

} // namespace clm

#endif // CLM_MATH_ELLIPSOID_HPP
