#include "render/projection.hpp"

#include <algorithm>
#include <cmath>

#include "math/sh.hpp"

namespace clm {

namespace {

/** Guard band multiplier for the J-matrix frustum clamp (reference value). */
constexpr float kGuardBand = 1.3f;

/** Rows of T = J W used by the 2D covariance (J's third row is zero). */
struct CovT
{
    // t_row[r][k]: r in {0,1}, k in {0,1,2}
    float t0[3];
    float t1[3];
};

/** Build the 2x3 transform T = J W from camera-space position. */
CovT
buildCovT(const Camera &cam, float u, float v, float z)
{
    const Mat3 &w = cam.worldToCam();
    float fx = cam.fx(), fy = cam.fy();
    float iz = 1.0f / z;
    float iz2 = iz * iz;
    // J = [[fx/z, 0, -fx*u/z^2], [0, fy/z, -fy*v/z^2]]
    float j00 = fx * iz, j02 = -fx * u * iz2;
    float j11 = fy * iz, j12 = -fy * v * iz2;
    CovT t;
    for (int k = 0; k < 3; ++k) {
        t.t0[k] = j00 * w.m[0][k] + j02 * w.m[2][k];
        t.t1[k] = j11 * w.m[1][k] + j12 * w.m[2][k];
    }
    return t;
}

} // namespace

namespace {

/**
 * Shared projection body. When @p sigma_pre / @p opacity_pre are null the
 * covariance and world opacity are computed here, at the same program
 * points as before the batched path existed; both are pure functions of
 * the model row, so the precomputed variant is bitwise identical.
 */
ProjectedGaussian
projectGaussianImpl(const GaussianModel &model, size_t i,
                    const Camera &camera, int sh_degree,
                    const Mat3 *sigma_pre, const float *opacity_pre)
{
    ProjectedGaussian p;
    p.index = static_cast<uint32_t>(i);

    Vec3 t = camera.toCameraSpace(model.position(i));
    p.t = t;
    if (t.z < camera.zNear())
        return p;    // invalid: behind the near plane

    // Guard-band clamp for the Jacobian (reference 3DGS behaviour).
    // fy = 0.5*h/tan(fov/2) => tan(fov/2) = 0.5*h/fy; same for x.
    float tan_half_y = 0.5f * camera.height() / camera.fy();
    float tan_half_x = 0.5f * camera.width() / camera.fx();
    float lim_x = kGuardBand * tan_half_x;
    float lim_y = kGuardBand * tan_half_y;
    float txz = t.x / t.z;
    float tyz = t.y / t.z;
    float ctxz = std::clamp(txz, -lim_x, lim_x);
    float ctyz = std::clamp(tyz, -lim_y, lim_y);
    p.clamped_u = ctxz != txz;
    p.clamped_v = ctyz != tyz;
    float u = ctxz * t.z;
    float v = ctyz * t.z;

    // 2D mean (uses the unclamped position).
    p.mean2d = {camera.fx() * t.x / t.z + camera.cx(),
                camera.fy() * t.y / t.z + camera.cy()};
    p.depth = t.z;

    // 2D covariance: cov = T Sigma T^T + blur I.
    Mat3 sigma = sigma_pre != nullptr ? *sigma_pre : model.covariance(i);
    CovT ct = buildCovT(camera, u, v, t.z);
    auto quad = [&](const float *a, const float *b) {
        float acc = 0.0f;
        for (int r = 0; r < 3; ++r)
            for (int c = 0; c < 3; ++c)
                acc += a[r] * sigma.m[r][c] * b[c];
        return acc;
    };
    p.cov2d_a = quad(ct.t0, ct.t0) + kScreenBlur;
    p.cov2d_b = quad(ct.t0, ct.t1);
    p.cov2d_c = quad(ct.t1, ct.t1) + kScreenBlur;

    float det = p.cov2d_a * p.cov2d_c - p.cov2d_b * p.cov2d_b;
    if (det <= 0.0f)
        return p;    // invalid: degenerate footprint
    float inv_det = 1.0f / det;
    p.conic_a = p.cov2d_c * inv_det;
    p.conic_b = -p.cov2d_b * inv_det;
    p.conic_c = p.cov2d_a * inv_det;

    // 3-sigma extent from the largest eigenvalue.
    float mid = 0.5f * (p.cov2d_a + p.cov2d_c);
    float disc = std::sqrt(std::max(0.1f, mid * mid - det));
    float lambda_max = mid + disc;
    p.radius = std::ceil(3.0f * std::sqrt(lambda_max));

    // View-dependent color.
    Vec3 view = model.position(i) - camera.eye();
    Vec3 dir = view.normalized();
    const float *sh = model.sh(i);
    Vec3 color = shEvaluate(sh, dir, sh_degree);
    p.color = color;
    // The clamp in shEvaluate zeroes negative channels; recover the mask.
    {
        auto basis = shBasis(dir);
        int nb = shBasisCount(std::clamp(sh_degree, 0, 3));
        Vec3 raw{0.5f, 0.5f, 0.5f};
        for (int k = 0; k < nb; ++k) {
            raw.x += basis[k] * sh[k * 3 + 0];
            raw.y += basis[k] * sh[k * 3 + 1];
            raw.z += basis[k] * sh[k * 3 + 2];
        }
        p.color_valid = {raw.x > 0.0f, raw.y > 0.0f, raw.z > 0.0f};
    }

    p.opacity =
        opacity_pre != nullptr ? *opacity_pre : model.worldOpacity(i);
    p.valid = true;
    return p;
}

} // namespace

ProjectedGaussian
projectGaussian(const GaussianModel &model, size_t i, const Camera &camera,
                int sh_degree)
{
    return projectGaussianImpl(model, i, camera, sh_degree, nullptr,
                               nullptr);
}

ProjectedGaussian
projectGaussianPre(const GaussianModel &model, size_t i,
                   const Camera &camera, int sh_degree, const Mat3 &sigma,
                   float opacity)
{
    return projectGaussianImpl(model, i, camera, sh_degree, &sigma,
                               &opacity);
}

void
projectGaussianBackward(const GaussianModel &model, const Camera &camera,
                        int sh_degree, const ProjectedGaussian &proj,
                        const ProjectionGrads &grads, GaussianGrads &out)
{
    if (!proj.valid)
        return;
    size_t i = proj.index;
    const Vec3 &t = proj.t;
    float z = t.z;
    float iz = 1.0f / z;
    float iz2 = iz * iz;
    float fx = camera.fx(), fy = camera.fy();

    // --- conic -> cov2d: conic = cov^{-1}, dL/dcov = -C dL/dconic C with
    // symmetric matrices (C = conic).
    Mat2 conic;
    conic.m = {{{proj.conic_a, proj.conic_b},
                {proj.conic_b, proj.conic_c}}};
    Mat2 dconic;
    // The rasterizer reports the gradient of the scalar b (which appears
    // twice in the matrix); split it across the two symmetric slots.
    dconic.m = {{{grads.d_conic_a, 0.5f * grads.d_conic_b},
                 {0.5f * grads.d_conic_b, grads.d_conic_c}}};
    // dcov = -C * dconic * C
    auto mul2 = [](const Mat2 &a, const Mat2 &b) {
        Mat2 r;
        for (int x = 0; x < 2; ++x)
            for (int y = 0; y < 2; ++y)
                r.m[x][y] = a.m[x][0] * b.m[0][y] + a.m[x][1] * b.m[1][y];
        return r;
    };
    Mat2 dcov = mul2(mul2(conic, dconic), conic);
    dcov.m[0][0] = -dcov.m[0][0];
    dcov.m[0][1] = -dcov.m[0][1];
    dcov.m[1][0] = -dcov.m[1][0];
    dcov.m[1][1] = -dcov.m[1][1];

    // --- cov2d -> Sigma (3x3) and T (2x3): cov = T Sigma T^T.
    float u = proj.clamped_u
                  ? std::copysign(kGuardBand * 0.5f * camera.width()
                                      / camera.fx() * z, t.x)
                  : t.x;
    float v = proj.clamped_v
                  ? std::copysign(kGuardBand * 0.5f * camera.height()
                                      / camera.fy() * z, t.y)
                  : t.y;
    CovT ct = buildCovT(camera, u, v, z);
    Mat3 sigma = model.covariance(i);

    // dSigma = T^T dcov T  (T is 2x3).
    Mat3 dsigma;
    const float *trows[2] = {ct.t0, ct.t1};
    for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 3; ++c) {
            float acc = 0.0f;
            for (int a = 0; a < 2; ++a)
                for (int b = 0; b < 2; ++b)
                    acc += trows[a][r] * dcov.m[a][b] * trows[b][c];
            dsigma.m[r][c] = acc;
        }
    }

    // dT = 2 * dcov * T * Sigma  (dcov symmetric, Sigma symmetric).
    float dT[2][3] = {{0, 0, 0}, {0, 0, 0}};
    // first compute (T * Sigma): 2x3
    float tsig[2][3];
    for (int a = 0; a < 2; ++a)
        for (int c = 0; c < 3; ++c) {
            float acc = 0.0f;
            for (int k = 0; k < 3; ++k)
                acc += trows[a][k] * sigma.m[k][c];
            tsig[a][c] = acc;
        }
    for (int a = 0; a < 2; ++a)
        for (int c = 0; c < 3; ++c)
            dT[a][c] = 2.0f * (dcov.m[a][0] * tsig[0][c]
                               + dcov.m[a][1] * tsig[1][c]);

    // --- T = J W -> dJ = dT W^T.
    const Mat3 &w = camera.worldToCam();
    float dj00 = 0, dj02 = 0, dj11 = 0, dj12 = 0;
    for (int k = 0; k < 3; ++k) {
        dj00 += dT[0][k] * w.m[0][k];
        dj02 += dT[0][k] * w.m[2][k];
        dj11 += dT[1][k] * w.m[1][k];
        dj12 += dT[1][k] * w.m[2][k];
    }

    // --- J entries -> camera-space position t.
    // J00 = fx/z, J02 = -fx*u/z^2, J11 = fy/z, J12 = -fy*v/z^2.
    Vec3 dt{0, 0, 0};
    float du = -fx * iz2 * dj02;        // d/d u
    float dv = -fy * iz2 * dj12;        // d/d v
    dt.x += proj.clamped_u ? 0.0f : du;
    dt.y += proj.clamped_v ? 0.0f : dv;
    dt.z += -fx * iz2 * dj00 - fy * iz2 * dj11
          + 2.0f * fx * u * iz2 * iz * dj02
          + 2.0f * fy * v * iz2 * iz * dj12;
    // When clamped, u = +-lim * z so du/dz = +-lim adds to dz.
    if (proj.clamped_u)
        dt.z += (u * iz) * du;
    if (proj.clamped_v)
        dt.z += (v * iz) * dv;

    // --- mean2d -> t (projection uses the unclamped t).
    dt.x += fx * iz * grads.d_mean2d.x;
    dt.y += fy * iz * grads.d_mean2d.y;
    dt.z += -fx * t.x * iz2 * grads.d_mean2d.x
          - fy * t.y * iz2 * grads.d_mean2d.y;

    // --- t = W (p - eye) -> world position.
    Mat3 wt = w.transposed();
    Vec3 dpos = wt.mul(dt);

    // --- Sigma = M M^T with M = R S -> dM = 2 dSigma_sym M.
    Quat q = model.rotation(i);
    Quat qn = q.normalized();
    Mat3 r = qn.toRotationMatrix();
    Vec3 ws = model.worldScale(i);
    // dSigma is already symmetric by construction above.
    Mat3 m_rs;    // M = R * diag(ws)
    for (int a = 0; a < 3; ++a)
        for (int b = 0; b < 3; ++b)
            m_rs.m[a][b] = r.m[a][b] * ws[b];
    Mat3 dm;
    for (int a = 0; a < 3; ++a)
        for (int b = 0; b < 3; ++b) {
            float acc = 0.0f;
            for (int k = 0; k < 3; ++k)
                acc += (dsigma.m[a][k] + dsigma.m[k][a]) * m_rs.m[k][b];
            dm.m[a][b] = acc;
        }

    // dM -> dR (dR_ab = dM_ab * s_b) and ds_b = sum_a dM_ab R_ab.
    Vec3 dws{0, 0, 0};
    Mat3 dr;
    for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
            dr.m[a][b] = dm.m[a][b] * ws[b];
        }
    }
    dws.x = dm.m[0][0] * r.m[0][0] + dm.m[1][0] * r.m[1][0]
          + dm.m[2][0] * r.m[2][0];
    dws.y = dm.m[0][1] * r.m[0][1] + dm.m[1][1] * r.m[1][1]
          + dm.m[2][1] * r.m[2][1];
    dws.z = dm.m[0][2] * r.m[0][2] + dm.m[1][2] * r.m[1][2]
          + dm.m[2][2] * r.m[2][2];
    // world scale = exp(log scale): d log = ws * dws.
    Vec3 dls{ws.x * dws.x, ws.y * dws.y, ws.z * dws.z};

    // dR -> dq (normalized), using the analytic dR/dq tables.
    float qw = qn.w, qx = qn.x, qy = qn.y, qz = qn.z;
    auto contract = [&](const float drdq[3][3]) {
        float acc = 0.0f;
        for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b)
                acc += dr.m[a][b] * drdq[a][b];
        return acc;
    };
    const float drdw[3][3] = {{0, -2 * qz, 2 * qy},
                              {2 * qz, 0, -2 * qx},
                              {-2 * qy, 2 * qx, 0}};
    const float drdx[3][3] = {{0, 2 * qy, 2 * qz},
                              {2 * qy, -4 * qx, -2 * qw},
                              {2 * qz, 2 * qw, -4 * qx}};
    const float drdy[3][3] = {{-4 * qy, 2 * qx, 2 * qw},
                              {2 * qx, 0, 2 * qz},
                              {-2 * qw, 2 * qz, -4 * qy}};
    const float drdz[3][3] = {{-4 * qz, -2 * qw, 2 * qx},
                              {2 * qw, -4 * qz, 2 * qy},
                              {2 * qx, 2 * qy, 0}};
    Vec4 dqn{contract(drdw), contract(drdx), contract(drdy),
             contract(drdz)};

    // Through normalization: dq = (I - qn qn^T) / |q| * dqn.
    float qnorm = q.norm();
    if (qnorm <= 0.0f)
        qnorm = 1.0f;
    Vec4 qv{qn.w, qn.x, qn.y, qn.z};
    float dot = qv.dot(dqn);
    Vec4 dq{(dqn.x - qv.x * dot) / qnorm, (dqn.y - qv.y * dot) / qnorm,
            (dqn.z - qv.z * dot) / qnorm, (dqn.w - qv.w * dot) / qnorm};

    // --- Color -> SH coefficients and direction -> position.
    Vec3 view = model.position(i) - camera.eye();
    float vnorm = view.norm();
    Vec3 dir = vnorm > 0.0f ? view / vnorm : Vec3{0, 0, 1};
    shBackward(dir, sh_degree, grads.d_color, proj.color_valid,
               &out.d_sh[i * kShDim]);

    Vec3 masked{proj.color_valid[0] ? grads.d_color.x : 0.0f,
                proj.color_valid[1] ? grads.d_color.y : 0.0f,
                proj.color_valid[2] ? grads.d_color.z : 0.0f};
    if (vnorm > 0.0f) {
        auto bg = shBasisGrad(dir);
        int nb = shBasisCount(std::clamp(sh_degree, 0, 3));
        const float *sh = model.sh(i);
        Vec3 ddir{0, 0, 0};
        for (int k = 0; k < nb; ++k) {
            float coeff_dot = sh[k * 3 + 0] * masked.x
                            + sh[k * 3 + 1] * masked.y
                            + sh[k * 3 + 2] * masked.z;
            ddir += bg[k] * coeff_dot;
        }
        // dir = view/|view|: dview = (I - dir dir^T)/|view| * ddir.
        float dd = dir.dot(ddir);
        Vec3 dview = (ddir - dir * dd) / vnorm;
        dpos += dview;
    }

    // --- Opacity: world = sigmoid(raw).
    float op = proj.opacity;
    float draw = grads.d_opacity * op * (1.0f - op);

    // Accumulate.
    out.d_position[i] += dpos;
    out.d_log_scale[i] += dls;
    out.d_rotation[i].w += dq.x;
    out.d_rotation[i].x += dq.y;
    out.d_rotation[i].y += dq.z;
    out.d_rotation[i].z += dq.w;
    out.d_opacity[i] += draw;
}

} // namespace clm
