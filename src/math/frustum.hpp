/**
 * @file
 * View frustum represented as six inward-facing planes, extracted from a
 * view-projection matrix. Used by the 3-sigma frustum culling step (§4.1).
 */

#ifndef CLM_MATH_FRUSTUM_HPP
#define CLM_MATH_FRUSTUM_HPP

#include <array>

#include "math/mat.hpp"
#include "math/vec.hpp"

namespace clm {

/** A plane n.p + d = 0 with the inside half-space n.p + d >= 0. */
struct Plane
{
    Vec3 n;    //!< Plane normal (not necessarily unit until normalize()).
    float d = 0.0f;

    /** Signed distance (in units of |n|) from @p p to the plane. */
    float signedDistance(const Vec3 &p) const { return n.dot(p) + d; }

    /** Scale so |n| == 1; required before using signedDistance metrically. */
    void
    normalize()
    {
        float len = n.norm();
        if (len > 0.0f) {
            n = n * (1.0f / len);
            d /= len;
        }
    }
};

/**
 * Six-plane view frustum. Plane order: left, right, bottom, top, near, far.
 */
class Frustum
{
  public:
    /**
     * Extract normalized frustum planes from a row-major view-projection
     * matrix using the Gribb-Hartmann method (clip-space convention
     * -w <= x,y,z <= w).
     */
    static Frustum fromViewProjection(const Mat4 &view_proj);

    /** True when @p p is inside or on all six planes. */
    bool contains(const Vec3 &p) const;

    /**
     * Conservative sphere test: true when the sphere of @p radius around
     * @p center intersects the frustum (possibly including some misses near
     * edges, as is standard for plane-based tests).
     */
    bool intersectsSphere(const Vec3 &center, float radius) const;

    /** Access one of the six planes. */
    const Plane &plane(int i) const { return planes_[i]; }

  private:
    std::array<Plane, 6> planes_;
};

} // namespace clm

#endif // CLM_MATH_FRUSTUM_HPP
