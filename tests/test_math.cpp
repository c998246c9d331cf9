/**
 * @file
 * Unit and property tests for the math substrate: vectors, matrices,
 * quaternions, spherical harmonics (values and analytic gradients),
 * frustum extraction and the 3-sigma ellipsoid intersection test.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "math/ellipsoid.hpp"
#include "math/frustum.hpp"
#include "math/mat.hpp"
#include "math/quat.hpp"
#include "math/rng.hpp"
#include "math/sh.hpp"
#include "math/stats.hpp"
#include "render/camera.hpp"

namespace clm {
namespace {

TEST(Vec3, BasicAlgebra)
{
    Vec3 a{1, 2, 3}, b{4, 5, 6};
    EXPECT_FLOAT_EQ((a + b).x, 5.0f);
    EXPECT_FLOAT_EQ(a.dot(b), 32.0f);
    Vec3 c = a.cross(b);
    EXPECT_FLOAT_EQ(c.x, -3.0f);
    EXPECT_FLOAT_EQ(c.y, 6.0f);
    EXPECT_FLOAT_EQ(c.z, -3.0f);
    EXPECT_NEAR(Vec3(3, 4, 0).norm(), 5.0f, 1e-6f);
    EXPECT_NEAR(Vec3(3, 4, 0).normalized().norm(), 1.0f, 1e-6f);
}

TEST(Vec3, CrossIsOrthogonal)
{
    Rng rng(1);
    for (int it = 0; it < 50; ++it) {
        Vec3 a = rng.normal3({0, 0, 0}, 1.0f);
        Vec3 b = rng.normal3({0, 0, 0}, 1.0f);
        Vec3 c = a.cross(b);
        EXPECT_NEAR(c.dot(a), 0.0f, 1e-3f);
        EXPECT_NEAR(c.dot(b), 0.0f, 1e-3f);
    }
}

TEST(Mat3, MulIdentity)
{
    Mat3 i = Mat3::identity();
    Vec3 v{1, -2, 3};
    Vec3 r = i.mul(v);
    EXPECT_FLOAT_EQ(r.x, v.x);
    EXPECT_FLOAT_EQ(r.y, v.y);
    EXPECT_FLOAT_EQ(r.z, v.z);
}

TEST(Mat3, TransposeOfProduct)
{
    Rng rng(2);
    Mat3 a, b;
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) {
            a.m[r][c] = rng.normal();
            b.m[r][c] = rng.normal();
        }
    Mat3 lhs = a.mul(b).transposed();
    Mat3 rhs = b.transposed().mul(a.transposed());
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c)
            EXPECT_NEAR(lhs.m[r][c], rhs.m[r][c], 1e-5f);
}

TEST(Mat2, InverseRoundTrip)
{
    Mat2 m;
    m.m = {{{3.0f, 1.0f}, {1.0f, 2.0f}}};
    Mat2 inv = m.inverse();
    // m * inv == I
    EXPECT_NEAR(m.m[0][0] * inv.m[0][0] + m.m[0][1] * inv.m[1][0], 1.0f,
                1e-6f);
    EXPECT_NEAR(m.m[0][0] * inv.m[0][1] + m.m[0][1] * inv.m[1][1], 0.0f,
                1e-6f);
}

TEST(Quat, RotationMatrixIsOrthonormal)
{
    Rng rng(3);
    for (int it = 0; it < 50; ++it) {
        Quat q{rng.normal(), rng.normal(), rng.normal(), rng.normal()};
        if (q.norm() < 1e-3f)
            continue;
        Mat3 r = q.toRotationMatrix();
        Mat3 rrt = r.mul(r.transposed());
        for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b)
                EXPECT_NEAR(rrt.m[a][b], a == b ? 1.0f : 0.0f, 1e-5f);
        EXPECT_NEAR(r.det(), 1.0f, 1e-5f);
    }
}

TEST(Quat, AxisAngleMatchesManualRotation)
{
    // 90 degrees about +z maps +x to +y.
    Quat q = Quat::fromAxisAngle({0, 0, 1}, 3.14159265f / 2.0f);
    Vec3 v = q.toRotationMatrix().mul(Vec3{1, 0, 0});
    EXPECT_NEAR(v.x, 0.0f, 1e-6f);
    EXPECT_NEAR(v.y, 1.0f, 1e-6f);
    EXPECT_NEAR(v.z, 0.0f, 1e-6f);
}

TEST(Sh, Degree0IsConstant)
{
    auto b1 = shBasis(Vec3{0, 0, 1});
    auto b2 = shBasis(Vec3{1, 0, 0});
    EXPECT_FLOAT_EQ(b1[0], b2[0]);
    EXPECT_NEAR(b1[0], 0.2820948f, 1e-6f);
}

TEST(Sh, EvaluateDcOnly)
{
    float coeffs[kShCoeffs] = {};
    // DC coefficient chosen so color = 0.75 exactly.
    coeffs[0] = coeffs[1] = coeffs[2] = 0.25f / 0.28209479177387814f;
    Vec3 c = shEvaluate(coeffs, Vec3{0, 0, 1}, 0);
    EXPECT_NEAR(c.x, 0.75f, 1e-5f);
    EXPECT_NEAR(c.y, 0.75f, 1e-5f);
    EXPECT_NEAR(c.z, 0.75f, 1e-5f);
}

TEST(Sh, ClampsNegativeToZero)
{
    float coeffs[kShCoeffs] = {};
    coeffs[0] = -10.0f;    // drives red far negative
    Vec3 c = shEvaluate(coeffs, Vec3{0, 0, 1}, 0);
    EXPECT_FLOAT_EQ(c.x, 0.0f);
    EXPECT_NEAR(c.y, 0.5f, 1e-6f);
}

/** Parameterized over SH degree: analytic basis gradient vs finite diff. */
class ShGradTest : public ::testing::TestWithParam<int>
{
};

TEST_P(ShGradTest, BasisGradientMatchesFiniteDifference)
{
    int degree = GetParam();
    int nb = shBasisCount(degree);
    Rng rng(100 + degree);
    const float eps = 1e-3f;
    for (int it = 0; it < 20; ++it) {
        Vec3 d = rng.normal3({0, 0, 0}, 1.0f).normalized();
        auto grad = shBasisGrad(d);
        for (int axis = 0; axis < 3; ++axis) {
            Vec3 dp = d, dm = d;
            (axis == 0 ? dp.x : axis == 1 ? dp.y : dp.z) += eps;
            (axis == 0 ? dm.x : axis == 1 ? dm.y : dm.z) -= eps;
            auto bp = shBasis(dp);
            auto bm = shBasis(dm);
            for (int k = 0; k < nb; ++k) {
                float fd = (bp[k] - bm[k]) / (2 * eps);
                float an = axis == 0   ? grad[k].x
                           : axis == 1 ? grad[k].y
                                       : grad[k].z;
                EXPECT_NEAR(an, fd, 5e-3f)
                    << "basis " << k << " axis " << axis;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, ShGradTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(Sh, BackwardAccumulatesBasisTimesGrad)
{
    Vec3 dir = Vec3{0.3f, -0.5f, 0.8f}.normalized();
    float d_coeffs[kShCoeffs] = {};
    shBackward(dir, 3, {1.0f, 2.0f, 3.0f}, {true, true, false}, d_coeffs);
    auto basis = shBasis(dir);
    for (int k = 0; k < kShBasis; ++k) {
        EXPECT_NEAR(d_coeffs[k * 3 + 0], basis[k] * 1.0f, 1e-6f);
        EXPECT_NEAR(d_coeffs[k * 3 + 1], basis[k] * 2.0f, 1e-6f);
        EXPECT_FLOAT_EQ(d_coeffs[k * 3 + 2], 0.0f);    // masked channel
    }
}

TEST(Frustum, ContainsPointsInFront)
{
    Camera cam = Camera::lookAt({0, 0, 0}, {0, 0, 10}, {0, 1, 0}, 64, 64,
                                1.0f, 0.1f, 100.0f);
    const Frustum &f = cam.frustum();
    EXPECT_TRUE(f.contains({0, 0, 5}));
    EXPECT_TRUE(f.contains({0, 0, 50}));
    EXPECT_FALSE(f.contains({0, 0, -5}));     // behind
    EXPECT_FALSE(f.contains({0, 0, 150}));    // beyond far plane
    EXPECT_FALSE(f.contains({100, 0, 5}));    // far off axis
}

TEST(Frustum, SphereTestIsConservative)
{
    Camera cam = Camera::lookAt({0, 0, 0}, {0, 0, 10}, {0, 1, 0}, 64, 64,
                                1.0f, 0.1f, 100.0f);
    const Frustum &f = cam.frustum();
    // Center outside, but the sphere pokes in.
    EXPECT_TRUE(f.intersectsSphere({0, 0, -0.5f}, 2.0f));
    // Far outside in every direction.
    EXPECT_FALSE(f.intersectsSphere({0, 0, -50}, 2.0f));
}

TEST(Ellipsoid, SupportDistanceSphere)
{
    Ellipsoid e{{0, 0, 0}, Quat{1, 0, 0, 0}, {2, 2, 2}};
    // A sphere's support distance is its radius in every direction.
    EXPECT_NEAR(e.supportDistance({1, 0, 0}), 2.0f, 1e-5f);
    EXPECT_NEAR(e.supportDistance(Vec3{1, 1, 1}.normalized()), 2.0f,
                1e-5f);
}

TEST(Ellipsoid, SupportDistanceAnisotropic)
{
    Ellipsoid e{{0, 0, 0}, Quat{1, 0, 0, 0}, {4, 1, 1}};
    EXPECT_NEAR(e.supportDistance({1, 0, 0}), 4.0f, 1e-5f);
    EXPECT_NEAR(e.supportDistance({0, 1, 0}), 1.0f, 1e-5f);
    // Rotate 90 degrees about z: the long axis now points along y.
    Ellipsoid r{{0, 0, 0},
                Quat::fromAxisAngle({0, 0, 1}, 3.14159265f / 2),
                {4, 1, 1}};
    EXPECT_NEAR(r.supportDistance({0, 1, 0}), 4.0f, 1e-4f);
    EXPECT_NEAR(r.supportDistance({1, 0, 0}), 1.0f, 1e-4f);
}

TEST(Ellipsoid, FrustumIntersectionNearBoundary)
{
    Camera cam = Camera::lookAt({0, 0, 0}, {0, 0, 10}, {0, 1, 0}, 64, 64,
                                1.0f, 0.1f, 100.0f);
    // Center behind the near plane, but a fat ellipsoid reaches through.
    Ellipsoid fat{{0, 0, -1.0f}, Quat{1, 0, 0, 0}, {3, 3, 3}};
    EXPECT_TRUE(fat.intersectsFrustum(cam.frustum()));
    Ellipsoid thin{{0, 0, -1.0f}, Quat{1, 0, 0, 0}, {0.1f, 0.1f, 0.1f}};
    EXPECT_FALSE(thin.intersectsFrustum(cam.frustum()));
}

TEST(Ellipsoid, HoistedRotationMatchesPerPlaneSupportDistance)
{
    // intersectsFrustum builds R^T once for all six planes; the
    // reference below is the per-plane form, which rebuilds it inside
    // every supportDistance() call. Ellipsoids are placed on a shell
    // around the frustum boundary, with non-unit and zero quaternions
    // and zero, tiny and huge radii, so both branches of every plane
    // test are exercised.
    auto reference = [](const Ellipsoid &e, const Frustum &f) {
        for (int i = 0; i < 6; ++i) {
            const Plane &pl = f.plane(i);
            if (pl.signedDistance(e.center) < -e.supportDistance(pl.n))
                return false;
        }
        return true;
    };
    Camera cam = Camera::lookAt({1, 2, -3}, {0, 0, 10}, {0, 1, 0}, 64, 48,
                                0.9f, 0.1f, 50.0f);
    const Frustum &f = cam.frustum();
    Rng rng(2024);
    size_t inside = 0, outside = 0;
    for (int k = 0; k < 20000; ++k) {
        Ellipsoid e;
        e.center = rng.uniformInBox({-30, -30, -10}, {30, 30, 60});
        e.rotation = Quat{rng.uniform(-2, 2), rng.uniform(-2, 2),
                          rng.uniform(-2, 2), rng.uniform(-2, 2)};
        if (k % 97 == 0)
            e.rotation = Quat{0, 0, 0, 0};
        const float s = std::exp(rng.uniform(-8, 4));
        e.radii = {s * rng.uniform(0, 1), s * rng.uniform(0, 1),
                   k % 13 == 0 ? 0.0f : s};
        const bool hoisted = e.intersectsFrustum(f);
        ASSERT_EQ(hoisted, reference(e, f)) << "sample " << k;
        (hoisted ? inside : outside)++;
    }
    EXPECT_GT(inside, 1000u);
    EXPECT_GT(outside, 1000u);
}

TEST(Ellipsoid, ThreeSigmaScaling)
{
    Vec3 scale{0.5f, 1.0f, 2.0f};
    Ellipsoid e =
        Ellipsoid::fromGaussian({1, 2, 3}, scale, Quat{1, 0, 0, 0});
    EXPECT_FLOAT_EQ(e.radii.x, 1.5f);
    EXPECT_FLOAT_EQ(e.radii.z, 6.0f);
    EXPECT_FLOAT_EQ(e.boundingRadius(), 6.0f);
}

TEST(RunningStats, Accumulates)
{
    RunningStats s;
    for (double x : {4.0, 2.0, 6.0})
        s.add(x);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(EmpiricalCdf, StepValuesAndPercentiles)
{
    EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.5);
    EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.percentile(100), 4.0);
    EXPECT_DOUBLE_EQ(cdf.percentile(50), 2.5);
    auto series = cdf.series(0.0, 5.0, 6);
    EXPECT_EQ(series.size(), 6u);
    EXPECT_DOUBLE_EQ(series.front().second, 0.0);
    EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(EmpiricalCdf, EmptyAndSingleSampleAreTotal)
{
    // percentile() is total: no asserts to trip, whatever the reservoir
    // holds — an empty CDF answers 0, a single sample answers itself,
    // and out-of-range p is clamped instead of rejected.
    EmpiricalCdf empty({});
    EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(empty.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(empty.percentile(100), 0.0);
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
    EXPECT_EQ(empty.count(), 0u);

    EmpiricalCdf one({7.5});
    EXPECT_DOUBLE_EQ(one.percentile(0), 7.5);
    EXPECT_DOUBLE_EQ(one.percentile(50), 7.5);
    EXPECT_DOUBLE_EQ(one.percentile(100), 7.5);
    EXPECT_DOUBLE_EQ(one.percentile(-10), 7.5);
    EXPECT_DOUBLE_EQ(one.percentile(250), 7.5);
}

TEST(EmpiricalCdf, OutOfRangePercentileClamps)
{
    EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(cdf.percentile(-5), cdf.percentile(0));
    EXPECT_DOUBLE_EQ(cdf.percentile(105), cdf.percentile(100));
}

TEST(EmpiricalCdf, MonotoneProperty)
{
    Rng rng(7);
    std::vector<double> samples;
    for (int i = 0; i < 200; ++i)
        samples.push_back(rng.normal(0.0, 2.0));
    EmpiricalCdf cdf(samples);
    double prev = -1.0;
    for (auto [x, f] : cdf.series(-6, 6, 50)) {
        EXPECT_GE(f, prev);
        prev = f;
    }
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 10; ++i)
        EXPECT_FLOAT_EQ(a.uniform(), b.uniform());
}

} // namespace
} // namespace clm
