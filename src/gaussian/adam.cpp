#include "gaussian/adam.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "math/simd.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

void
CpuAdam::reset(size_t n)
{
    m_position_.assign(n, Vec3{});
    v_position_.assign(n, Vec3{});
    m_log_scale_.assign(n, Vec3{});
    v_log_scale_.assign(n, Vec3{});
    m_rotation_.assign(n, Quat{0, 0, 0, 0});
    v_rotation_.assign(n, Quat{0, 0, 0, 0});
    m_sh_.assign(n * kShDim, 0.0f);
    v_sh_.assign(n * kShDim, 0.0f);
    m_opacity_.assign(n, 0.0f);
    v_opacity_.assign(n, 0.0f);
    step_.assign(n, 0);
}

void
CpuAdam::update(GaussianModel &model, const GaussianGrads &grads)
{
    std::vector<uint32_t> all(model.size());
    std::iota(all.begin(), all.end(), 0u);
    updateSubset(model, grads, all);
}

void
CpuAdam::updateSubset(GaussianModel &model, const GaussianGrads &grads,
                      const std::vector<uint32_t> &indices)
{
    CLM_ASSERT(model.size() == size(),
               "optimizer state size mismatch: model=", model.size(),
               " adam=", size());
    CLM_ASSERT(grads.size() == size(), "gradient size mismatch");

    auto update_rows = [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
            uint32_t i = indices[k];
            updateRow(model, i, grads.d_position[i], grads.d_log_scale[i],
                      grads.d_rotation[i], &grads.d_sh[size_t(i) * kShDim],
                      grads.d_opacity[i]);
        }
    };
    if (config_.parallel && indices.size() > 1024)
        ThreadPool::global().parallelFor(indices.size(), update_rows);
    else
        update_rows(0, indices.size());
}

void
CpuAdam::packMoments(size_t i, float *m, float *v) const
{
    auto pack = [i](float *out, const std::vector<Vec3> &pos,
                    const std::vector<Vec3> &log_scale,
                    const std::vector<Quat> &rot,
                    const std::vector<float> &sh,
                    const std::vector<float> &opacity) {
        out[0] = pos[i].x;
        out[1] = pos[i].y;
        out[2] = pos[i].z;
        out[3] = log_scale[i].x;
        out[4] = log_scale[i].y;
        out[5] = log_scale[i].z;
        out[6] = rot[i].w;
        out[7] = rot[i].x;
        out[8] = rot[i].y;
        out[9] = rot[i].z;
        std::copy_n(&sh[i * kShDim], kShDim, out + kShOffset);
        out[kOpacityOffset] = opacity[i];
    };
    pack(m, m_position_, m_log_scale_, m_rotation_, m_sh_, m_opacity_);
    pack(v, v_position_, v_log_scale_, v_rotation_, v_sh_, v_opacity_);
}

float
CpuAdam::positionLr(uint32_t t) const
{
    if (config_.lr_position_final <= 0.0f
        || config_.lr_position_final == config_.lr_position
        || config_.position_lr_max_steps == 0) {
        return config_.lr_position;
    }
    float progress = std::min(
        1.0f, static_cast<float>(t)
                  / static_cast<float>(config_.position_lr_max_steps));
    // log-linear interpolation between initial and final LR.
    return config_.lr_position
           * std::pow(config_.lr_position_final / config_.lr_position,
                      progress);
}

void
CpuAdam::updateRecord(GaussianModel &model, uint32_t i, const float *grad)
{
    CLM_ASSERT(i < size(), "adam row ", i, " of ", size());
    updateRow(model, i, {grad[0], grad[1], grad[2]},
              {grad[3], grad[4], grad[5]},
              {grad[6], grad[7], grad[8], grad[9]}, grad + kShOffset,
              grad[kOpacityOffset]);
}

void
CpuAdam::updateRow(GaussianModel &model, uint32_t i, const Vec3 &d_position,
                   const Vec3 &d_log_scale, const Quat &d_rotation,
                   const float *d_sh, float d_opacity)
{
    const uint32_t t = ++step_[i];
    const float beta1 = config_.beta1;
    const float beta2 = config_.beta2;
    const float eps = config_.epsilon;
    // Every parameter of the row shares its step t, so both bias
    // corrections are computed once (same expression as per element).
    const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
    auto step = [&](float &param, float grad, float &m, float &v,
                    float lr) {
        m = beta1 * m + (1.0f - beta1) * grad;
        v = beta2 * v + (1.0f - beta2) * grad * grad;
        float m_hat = m / bc1;
        float v_hat = v / bc2;
        param -= lr * m_hat / (std::sqrt(v_hat) + eps);
    };

    const float lr_pos = positionLr(t);
    Vec3 &p = model.position(i);
    step(p.x, d_position.x, m_position_[i].x, v_position_[i].x, lr_pos);
    step(p.y, d_position.y, m_position_[i].y, v_position_[i].y, lr_pos);
    step(p.z, d_position.z, m_position_[i].z, v_position_[i].z, lr_pos);

    const float lr_s = config_.lr_log_scale;
    Vec3 &s = model.logScale(i);
    step(s.x, d_log_scale.x, m_log_scale_[i].x, v_log_scale_[i].x, lr_s);
    step(s.y, d_log_scale.y, m_log_scale_[i].y, v_log_scale_[i].y, lr_s);
    step(s.z, d_log_scale.z, m_log_scale_[i].z, v_log_scale_[i].z, lr_s);

    const float lr_r = config_.lr_rotation;
    Quat &q = model.rotation(i);
    step(q.w, d_rotation.w, m_rotation_[i].w, v_rotation_[i].w, lr_r);
    step(q.x, d_rotation.x, m_rotation_[i].x, v_rotation_[i].x, lr_r);
    step(q.y, d_rotation.y, m_rotation_[i].y, v_rotation_[i].y, lr_r);
    step(q.z, d_rotation.z, m_rotation_[i].z, v_rotation_[i].z, lr_r);

    // SH: the same per-element op sequence, eight lanes at a time (every
    // F8 op is the correctly-rounded IEEE single op, so lanes match the
    // scalar step bit for bit on every backend).
    static_assert(kShDim % 8 == 0, "SH row splits into F8 lanes");
    const F8 b1 = F8::broadcast(beta1), c1 = F8::broadcast(1.0f - beta1);
    const F8 b2 = F8::broadcast(beta2), c2 = F8::broadcast(1.0f - beta2);
    const F8 bc1v = F8::broadcast(bc1), bc2v = F8::broadcast(bc2);
    const F8 lr_sh = F8::broadcast(config_.lr_sh);
    const F8 epsv = F8::broadcast(eps);
    float *sh = model.sh(i);
    float *msh = &m_sh_[size_t(i) * kShDim];
    float *vsh = &v_sh_[size_t(i) * kShDim];
    for (int k = 0; k < kShDim; k += 8) {
        F8 g = F8::load(d_sh + k);
        F8 m = b1 * F8::load(msh + k) + c1 * g;
        F8 v = b2 * F8::load(vsh + k) + c2 * g * g;
        F8 m_hat = m / bc1v;
        F8 v_hat = v / bc2v;
        F8 param =
            F8::load(sh + k) - lr_sh * m_hat / (F8::sqrt(v_hat) + epsv);
        m.store(msh + k);
        v.store(vsh + k);
        param.store(sh + k);
    }

    step(model.rawOpacity(i), d_opacity, m_opacity_[i], v_opacity_[i],
         config_.lr_opacity);
}

} // namespace clm
