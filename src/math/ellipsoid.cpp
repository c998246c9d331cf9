#include "math/ellipsoid.hpp"

namespace clm {

namespace {

/** |diag(r) R^T dir| given @p rt = R^T: the one support-distance
 *  expression, shared by supportDistance() and the hoisted frustum
 *  test so both evaluate the same float operations. */
float
supportAlong(const Mat3 &rt, const Vec3 &radii, const Vec3 &dir)
{
    return rt.mul(dir).cwiseMul(radii).norm();
}

} // namespace

float
Ellipsoid::supportDistance(const Vec3 &dir) const
{
    return supportAlong(rotation.toRotationMatrix().transposed(), radii,
                        dir);
}

bool
Ellipsoid::intersectsFrustum(const Frustum &f) const
{
    // R^T once per ellipsoid, not once per plane: toRotationMatrix() is
    // a pure function of the quaternion, so every plane sees the same
    // matrix supportDistance() would build.
    const Mat3 rt = rotation.toRotationMatrix().transposed();
    for (int i = 0; i < 6; ++i) {
        const Plane &pl = f.plane(i);
        float dist = pl.signedDistance(center);
        if (dist < -supportAlong(rt, radii, pl.n))
            return false;
    }
    return true;
}

} // namespace clm
