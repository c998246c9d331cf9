#include "math/frustum.hpp"

namespace clm {

Frustum
Frustum::fromViewProjection(const Mat4 &vp)
{
    Frustum f;
    auto row = [&](int r) {
        return Vec4{vp.m[r][0], vp.m[r][1], vp.m[r][2], vp.m[r][3]};
    };
    Vec4 r0 = row(0), r1 = row(1), r2 = row(2), r3 = row(3);

    auto make = [](const Vec4 &v) {
        Plane p;
        p.n = v.xyz();
        p.d = v.w;
        p.normalize();
        return p;
    };

    f.planes_[0] = make(r3 + r0);          // left:   w + x >= 0
    f.planes_[1] = make(r3 + r0 * -1.0f);  // right:  w - x >= 0
    f.planes_[2] = make(r3 + r1);          // bottom: w + y >= 0
    f.planes_[3] = make(r3 + r1 * -1.0f);  // top:    w - y >= 0
    f.planes_[4] = make(r3 + r2);          // near:   w + z >= 0
    f.planes_[5] = make(r3 + r2 * -1.0f);  // far:    w - z >= 0
    return f;
}

bool
Frustum::contains(const Vec3 &p) const
{
    for (const auto &pl : planes_)
        if (pl.signedDistance(p) < 0.0f)
            return false;
    return true;
}

bool
Frustum::intersectsSphere(const Vec3 &center, float radius) const
{
    for (const auto &pl : planes_)
        if (pl.signedDistance(center) < -radius)
            return false;
    return true;
}

} // namespace clm
