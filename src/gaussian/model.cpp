#include "gaussian/model.hpp"

#include <algorithm>
#include <cstring>

#include "math/rng.hpp"
#include "util/logging.hpp"

namespace clm {

void
GaussianGrads::resize(size_t n)
{
    d_position.assign(n, Vec3{});
    d_log_scale.assign(n, Vec3{});
    d_rotation.assign(n, Quat{0, 0, 0, 0});
    d_sh.assign(n * kShDim, 0.0f);
    d_opacity.assign(n, 0.0f);
}

void
GaussianGrads::zero()
{
    std::fill(d_position.begin(), d_position.end(), Vec3{});
    std::fill(d_log_scale.begin(), d_log_scale.end(), Vec3{});
    std::fill(d_rotation.begin(), d_rotation.end(), Quat{0, 0, 0, 0});
    std::fill(d_sh.begin(), d_sh.end(), 0.0f);
    std::fill(d_opacity.begin(), d_opacity.end(), 0.0f);
}

void
packGradRecord(const GaussianGrads &grads, size_t i, float *out)
{
    out[0] = grads.d_position[i].x;
    out[1] = grads.d_position[i].y;
    out[2] = grads.d_position[i].z;
    out[3] = grads.d_log_scale[i].x;
    out[4] = grads.d_log_scale[i].y;
    out[5] = grads.d_log_scale[i].z;
    out[6] = grads.d_rotation[i].w;
    out[7] = grads.d_rotation[i].x;
    out[8] = grads.d_rotation[i].y;
    out[9] = grads.d_rotation[i].z;
    std::memcpy(out + kShOffset, &grads.d_sh[i * kShDim],
                kShDim * sizeof(float));
    out[kOpacityOffset] = grads.d_opacity[i];
}

void
GaussianModel::resize(size_t n)
{
    position_.resize(n, Vec3{});
    log_scale_.resize(n, Vec3{});
    rotation_.resize(n, Quat{});
    sh_.resize(n * kShDim, 0.0f);
    raw_opacity_.resize(n, 0.0f);
}

size_t
GaussianModel::append(const Vec3 &pos, const Vec3 &log_scale,
                      const Quat &rot, const float *sh48, float raw_opacity)
{
    position_.push_back(pos);
    log_scale_.push_back(log_scale);
    rotation_.push_back(rot);
    sh_.insert(sh_.end(), sh48, sh48 + kShDim);
    raw_opacity_.push_back(raw_opacity);
    return position_.size() - 1;
}

void
GaussianModel::removeRows(const std::vector<uint32_t> &sorted_indices)
{
    if (sorted_indices.empty())
        return;
    size_t n = size();
    size_t write = 0;
    size_t next_removed = 0;
    for (size_t read = 0; read < n; ++read) {
        if (next_removed < sorted_indices.size()
            && sorted_indices[next_removed] == read) {
            ++next_removed;
            continue;
        }
        if (write != read) {
            position_[write] = position_[read];
            log_scale_[write] = log_scale_[read];
            rotation_[write] = rotation_[read];
            raw_opacity_[write] = raw_opacity_[read];
            std::memcpy(&sh_[write * kShDim], &sh_[read * kShDim],
                        kShDim * sizeof(float));
        }
        ++write;
    }
    CLM_ASSERT(next_removed == sorted_indices.size(),
               "removeRows: indices not sorted/unique or out of range");
    resize(write);
}

Mat3
GaussianModel::covariance(size_t i) const
{
    Mat3 r = unitRotation(i).toRotationMatrix();
    Vec3 s = worldScale(i);
    Mat3 s2 = Mat3::diag({s.x * s.x, s.y * s.y, s.z * s.z});
    return r.mul(s2).mul(r.transposed());
}

void
GaussianModel::packNonCritical(size_t i, float *out) const
{
    std::memcpy(out + kNcShOffset, sh(i), kShDim * sizeof(float));
    out[kNcOpacityOffset] = raw_opacity_[i];
}

void
GaussianModel::unpackNonCritical(size_t i, const float *in)
{
    std::memcpy(sh(i), in + kNcShOffset, kShDim * sizeof(float));
    raw_opacity_[i] = in[kNcOpacityOffset];
}

void
GaussianModel::packCritical(size_t i, float *out) const
{
    out[0] = position_[i].x;
    out[1] = position_[i].y;
    out[2] = position_[i].z;
    out[3] = log_scale_[i].x;
    out[4] = log_scale_[i].y;
    out[5] = log_scale_[i].z;
    out[6] = rotation_[i].w;
    out[7] = rotation_[i].x;
    out[8] = rotation_[i].y;
    out[9] = rotation_[i].z;
}

void
GaussianModel::unpackCritical(size_t i, const float *in)
{
    position_[i] = {in[0], in[1], in[2]};
    log_scale_[i] = {in[3], in[4], in[5]};
    rotation_[i] = {in[6], in[7], in[8], in[9]};
}

GaussianModel
GaussianModel::fromPointCloud(const std::vector<Vec3> &points,
                              const std::vector<Vec3> &colors,
                              float initial_scale)
{
    CLM_ASSERT(points.size() == colors.size(),
               "point/color count mismatch");
    GaussianModel m;
    m.resize(points.size());
    float ls = std::log(initial_scale);
    // DC-only SH: color = 0.5 + Y0*c0 with Y0 = 0.2820948 => c0 from color.
    constexpr float kY0 = 0.28209479177387814f;
    for (size_t i = 0; i < points.size(); ++i) {
        m.position_[i] = points[i];
        m.log_scale_[i] = {ls, ls, ls};
        m.rotation_[i] = Quat{1, 0, 0, 0};
        float *sh = m.sh(i);
        sh[0] = (colors[i].x - 0.5f) / kY0;
        sh[1] = (colors[i].y - 0.5f) / kY0;
        sh[2] = (colors[i].z - 0.5f) / kY0;
        m.raw_opacity_[i] = inverseSigmoid(0.1f);
    }
    return m;
}

GaussianModel
GaussianModel::random(size_t n, const Vec3 &lo, const Vec3 &hi,
                      float initial_scale, Rng &rng)
{
    std::vector<Vec3> pts(n), cols(n);
    for (size_t i = 0; i < n; ++i) {
        pts[i] = rng.uniformInBox(lo, hi);
        cols[i] = {rng.uniform(0.05f, 0.95f), rng.uniform(0.05f, 0.95f),
                   rng.uniform(0.05f, 0.95f)};
    }
    return fromPointCloud(pts, cols, initial_scale);
}

} // namespace clm
