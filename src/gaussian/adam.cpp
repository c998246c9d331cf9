#include "gaussian/adam.hpp"

#include <algorithm>
#include <cmath>

#include "math/simd.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

void
CpuAdam::reset(size_t n)
{
    // Default-initialized: zeroBytes() is the one zeroing pass.
    const size_t floats = n * 2 * kParamsPerGaussian;
    state_.reset(new float[floats]);
    zeroBytes(state_.get(), floats * sizeof(float));
    step_.assign(n, 0);
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
        float rec[kParamsPerGaussian];
        for (size_t k = begin; k < end; ++k) {
            packGradRecord(grads, indices[k], rec);
            updateRecord(model, indices[k], rec);
        }
    };
    if (config_.parallel && indices.size() > kParallelAdamRows)
        ThreadPool::global().parallelFor(indices.size(), update_rows);
    else
        update_rows(0, indices.size());
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
    const uint32_t t = ++step_[i];
    const float beta1 = config_.beta1;
    const float beta2 = config_.beta2;
    const float eps = config_.epsilon;
    // Every parameter of the row shares its step t, so both bias
    // corrections are computed once (same expression as per element).
    const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
    float *m = &state_[size_t(i) * 2 * kParamsPerGaussian];
    float *v = m + kParamsPerGaussian;
    auto step = [&](float &param, int k, float lr) {
        m[k] = beta1 * m[k] + (1.0f - beta1) * grad[k];
        v[k] = beta2 * v[k] + (1.0f - beta2) * grad[k] * grad[k];
        float m_hat = m[k] / bc1;
        float v_hat = v[k] / bc2;
        param -= lr * m_hat / (std::sqrt(v_hat) + eps);
    };

    // The 10 critical parameters in record order, LR chosen by segment.
    Vec3 &p = model.position(i);
    Vec3 &s = model.logScale(i);
    Quat &q = model.rotation(i);
    float *const critical[kCriticalDim] = {&p.x, &p.y, &p.z, &s.x, &s.y,
                                           &s.z, &q.w, &q.x, &q.y, &q.z};
    const float lr_pos = positionLr(t);
    for (int k = 0; k < kCriticalDim; ++k)
        step(*critical[k], k,
             k < kScaleOffset ? lr_pos
             : k < kRotOffset ? config_.lr_log_scale
                              : config_.lr_rotation);

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
    for (int k = 0; k < kShDim; k += 8) {
        const int r = kShOffset + k;
        F8 g = F8::load(grad + r);
        F8 mk = b1 * F8::load(m + r) + c1 * g;
        F8 vk = b2 * F8::load(v + r) + c2 * g * g;
        F8 m_hat = mk / bc1v;
        F8 v_hat = vk / bc2v;
        F8 param =
            F8::load(sh + k) - lr_sh * m_hat / (F8::sqrt(v_hat) + epsv);
        mk.store(m + r);
        vk.store(v + r);
        param.store(sh + k);
    }

    step(model.rawOpacity(i), kOpacityOffset, config_.lr_opacity);
}

} // namespace clm
