/**
 * @file
 * CPU Adam optimizer over the Gaussian parameter store. Extends the
 * ZeRO-Offload-style CPU Adam to update an arbitrary *subset* of Gaussians
 * (§5.4), which is what makes the overlapped-finalization optimization
 * (§4.2.2) possible: Gaussians whose gradients are complete are updated
 * while later microbatches are still rendering.
 */

#ifndef CLM_GAUSSIAN_ADAM_HPP
#define CLM_GAUSSIAN_ADAM_HPP

#include <cstdint>
#include <vector>

#include "gaussian/model.hpp"

namespace clm {

/** Per-attribute learning rates, mirroring the reference 3DGS schedule. */
struct AdamConfig
{
    float lr_position = 1.6e-4f;
    /** Final position LR of the exponential decay schedule (reference
     *  3DGS decays 1.6e-4 -> 1.6e-6 over position_lr_max_steps). Set
     *  equal to lr_position to disable the schedule. */
    float lr_position_final = 1.6e-6f;
    /** Steps over which the position LR decays (per-Gaussian count). */
    uint32_t position_lr_max_steps = 30000;
    float lr_log_scale = 5e-3f;
    float lr_rotation = 1e-3f;
    float lr_sh = 2.5e-3f;
    float lr_opacity = 5e-2f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-15f;
    /** Spread large subset updates across the thread pool (rows are
     *  independent, so results are identical to the serial sweep). */
    bool parallel = true;
};

/**
 * Adam with first/second moment state for every parameter of every
 * Gaussian. The moment buffers are the "two additional versions" of each
 * parameter counted in the paper's 59 x 4 x 4 bytes model-state estimate.
 */
class CpuAdam
{
  public:
    explicit CpuAdam(AdamConfig config = {}) : config_(config) {}

    /** (Re)allocate moment state for @p n Gaussians, zeroed. */
    void reset(size_t n);

    /** Number of Gaussians with optimizer state. */
    size_t size() const { return m_position_.size(); }

    /**
     * Apply one Adam step to *all* Gaussians using @p grads.
     * Equivalent to updateSubset() with the full index range; used by the
     * non-overlapped (naive offload / GPU-only) training paths.
     */
    void update(GaussianModel &model, const GaussianGrads &grads);

    /**
     * Apply one Adam step to the Gaussians in @p indices only.
     *
     * Each listed Gaussian advances its *own* step counter, so a Gaussian
     * updated early (because it was finalized by an early microbatch) sees
     * exactly the same bias correction as it would at batch end. This is
     * what makes overlapped CPU Adam bit-identical to batch-end Adam.
     */
    void updateSubset(GaussianModel &model, const GaussianGrads &grads,
                      const std::vector<uint32_t> &indices);

    /**
     * Apply one Adam step to Gaussian @p i from its packed 59-float
     * gradient record @p grad (position, log-scale, rotation w x y z,
     * SH, opacity: the pinned gradient record layout). Bitwise identical
     * to updateSubset() over {i} with the same gradients; the
     * finalization pass uses it to update straight from pinned memory.
     */
    void updateRecord(GaussianModel &model, uint32_t i, const float *grad);

    /** Pack Gaussian @p i's first and second moments into 59-float
     *  records @p m and @p v (the gradient record layout). */
    void packMoments(size_t i, float *m, float *v) const;

    /** Per-Gaussian step counts (for tests and bias-correction checks). */
    uint32_t stepCount(size_t i) const { return step_[i]; }

    const AdamConfig &config() const { return config_; }

    /** Mutable config access (e.g. LR schedules). */
    AdamConfig &config() { return config_; }

    /** Bytes of optimizer state (two moments per parameter). */
    size_t stateBytes() const
    { return size() * kParamsPerGaussian * 2 * sizeof(float); }

  private:
    /** Full Adam update of one Gaussian's 59 parameters. The two bias
     *  corrections are computed once per row; the 48 SH coefficients
     *  run in F8 lanes with the scalar path's exact IEEE op sequence. */
    void updateRow(GaussianModel &model, uint32_t i, const Vec3 &d_position,
                   const Vec3 &d_log_scale, const Quat &d_rotation,
                   const float *d_sh, float d_opacity);

    /** Scheduled position LR at per-Gaussian step @p t. */
    float positionLr(uint32_t t) const;

    AdamConfig config_;
    std::vector<Vec3> m_position_, v_position_;
    std::vector<Vec3> m_log_scale_, v_log_scale_;
    std::vector<Quat> m_rotation_, v_rotation_;
    std::vector<float> m_sh_, v_sh_;
    std::vector<float> m_opacity_, v_opacity_;
    std::vector<uint32_t> step_;
};

} // namespace clm

#endif // CLM_GAUSSIAN_ADAM_HPP
