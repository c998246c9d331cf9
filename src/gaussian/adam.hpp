/**
 * @file
 * CPU Adam optimizer over the Gaussian parameter store. Extends the
 * ZeRO-Offload-style CPU Adam to update an arbitrary *subset* of Gaussians
 * (§5.4), which is what makes the overlapped-finalization optimization
 * (§4.2.2) possible: Gaussians whose gradients are complete are updated
 * while later microbatches are still rendering.
 *
 * The optimizer state is record-major: each Gaussian owns one m record
 * and one v record of kParamsPerGaussian floats in the pinned gradient
 * record order, so one row kernel updates a Gaussian straight from its
 * gradient record.
 */

#ifndef CLM_GAUSSIAN_ADAM_HPP
#define CLM_GAUSSIAN_ADAM_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "gaussian/model.hpp"

namespace clm {

/** Row sets larger than this spread over the thread pool, in
 *  CpuAdam::updateSubset and in the inline finalization pass (rows are
 *  independent, so the result is the serial sweep's). */
constexpr size_t kParallelAdamRows = 1024;

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
 * Gaussian. The moments are the "two additional versions" of each
 * parameter counted in the paper's 59 x 4 x 4 bytes model-state
 * estimate: Gaussian i's m record (59 floats: position, log-scale,
 * rotation w x y z, SH, opacity) is followed by its v record in the
 * same order, with no padding. One row kernel, updateRecord(), serves
 * every trainer.
 */
class CpuAdam
{
  public:
    explicit CpuAdam(AdamConfig config = {}) : config_(config) {}

    /** (Re)allocate moment state for @p n Gaussians, zeroed in one
     *  pass (zeroBytes, util/thread_pool.hpp). */
    void reset(size_t n);

    /** Number of Gaussians with optimizer state. */
    size_t size() const { return step_.size(); }

    /**
     * Apply one Adam step to the Gaussians in @p indices only: each row
     * is packed into a gradient record and run through updateRecord().
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
     * gradient record @p grad (the pinned gradient record layout); the
     * finalization pass uses it to update straight from pinned memory.
     * The two bias corrections are computed once per row; the 48 SH
     * coefficients run in F8 lanes with the scalar path's exact IEEE op
     * sequence.
     */
    void updateRecord(GaussianModel &model, uint32_t i, const float *grad);

    /** Gaussian @p i's first-moment record (gradient record layout);
     *  its second-moment record follows at + kParamsPerGaussian. */
    const float *firstMoments(size_t i) const
    { return &state_[i * 2 * kParamsPerGaussian]; }

    /** Per-Gaussian step counts (for tests and bias-correction checks). */
    uint32_t stepCount(size_t i) const { return step_[i]; }

    const AdamConfig &config() const { return config_; }

    /** Mutable config access (e.g. LR schedules). */
    AdamConfig &config() { return config_; }

    /** Bytes of optimizer state (two moments per parameter). */
    size_t stateBytes() const
    { return size() * kParamsPerGaussian * 2 * sizeof(float); }

  private:
    /** Scheduled position LR at per-Gaussian step @p t. */
    float positionLr(uint32_t t) const;

    AdamConfig config_;
    std::unique_ptr<float[]> state_;    //!< Per Gaussian: m, v records.
    std::vector<uint32_t> step_;
};

} // namespace clm

#endif // CLM_GAUSSIAN_ADAM_HPP
