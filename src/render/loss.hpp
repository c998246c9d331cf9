/**
 * @file
 * Training loss: (1 - lambda) * L1 + lambda * D-SSIM, the reference 3DGS
 * objective, with an exact analytic backward pass into dL/d(rendered).
 *
 * The SSIM statistics (box window, clamped borders) are computed from
 * summed-area tables: five integral images (x, y, x^2, y^2, x*y) fused
 * across the three channels give every center's window statistics in
 * O(1), and the backward scatter collapses to three more integral
 * images of the per-center gradient coefficient fields — so the whole
 * loss is O(w*h) forward and backward instead of the brute-force
 * O(w*h*window^2). Both directions tile across the global ThreadPool
 * with a fixed chunk partition and an in-order partial reduction (the
 * backward-rasterizer determinism recipe): parallel runs are bitwise
 * identical to serial runs on the same machine.
 *
 * The pre-SAT brute-force implementation is retained as
 * computeLossReference() — the ground truth for tests and the speedup
 * baseline for bench/micro_train_step.
 */

#ifndef CLM_RENDER_LOSS_HPP
#define CLM_RENDER_LOSS_HPP

#include <vector>

#include "render/image.hpp"

namespace clm {

/** Loss weighting and SSIM window parameters. */
struct LossConfig
{
    float lambda_dssim = 0.2f;    //!< Weight of the D-SSIM term.
    int ssim_window = 11;         //!< Box window edge (odd).
    float ssim_c1 = 0.01f * 0.01f;    //!< (k1 L)^2 with L = 1.
    float ssim_c2 = 0.03f * 0.03f;    //!< (k2 L)^2 with L = 1.
    /** Tile the SAT passes across the global thread pool. The chunk
     *  partition (at most eight row chunks) depends neither on this
     *  flag nor on the pool size, so parallel and serial runs at any
     *  thread count perform identical arithmetic, exactly like the
     *  backward rasterizer. */
    bool parallel = true;
};

/** Scalar loss values from one view. */
struct LossResult
{
    double total = 0.0;
    double l1 = 0.0;
    double dssim = 0.0;    //!< 1 - mean SSIM.
};

/** Wall-clock split of one computeLoss call (train-step bench). */
struct LossStageTimes
{
    double forward_s = 0;     //!< L1 + SSIM statistics passes.
    double backward_s = 0;    //!< Gradient field + scatter passes.
};

/**
 * Reusable scratch for the SAT loss. One per concurrently-evaluating
 * caller (a Trainer owns one); holds up to 33 doubles per pixel when
 * gradients are requested (15-field statistics SAT, 9-field coefficient
 * image, 9-field coefficient SAT), reused across calls.
 */
struct LossScratch
{
    std::vector<double> sat;          //!< (w+1)*(h+1)*15 statistics SAT.
    std::vector<double> field;        //!< w*h*9 gradient coefficients.
    std::vector<double> field_sat;    //!< (w+1)*(h+1)*9 coefficient SAT.
};

/**
 * Compute the loss between @p rendered and @p ground_truth.
 *
 * @param d_rendered When non-null, filled with dL/d(rendered) (same size
 *        as the images); the buffer is overwritten, not accumulated.
 */
LossResult computeLoss(const Image &rendered, const Image &ground_truth,
                       Image *d_rendered, const LossConfig &config = {});

/**
 * Scratch-reusing overload for hot loops (bitwise-identical results).
 * @p times, when non-null, receives the forward/backward wall split.
 */
LossResult computeLoss(const Image &rendered, const Image &ground_truth,
                       Image *d_rendered, const LossConfig &config,
                       LossScratch &scratch,
                       LossStageTimes *times = nullptr);

/**
 * Reference implementation: the serial O(w*h*window^2) brute-force
 * window sweep (forward and backward). Retained as the accuracy ground
 * truth for tests and as the speedup baseline for the train-step
 * micro-bench; not used by any training path.
 */
LossResult computeLossReference(const Image &rendered,
                                const Image &ground_truth,
                                Image *d_rendered,
                                const LossConfig &config = {},
                                LossStageTimes *times = nullptr);

/**
 * Mean SSIM between two images (box window, clamped borders). Forward
 * only, via the same SAT passes as computeLoss.
 */
double meanSsim(const Image &a, const Image &b, const LossConfig &config = {});

} // namespace clm

#endif // CLM_RENDER_LOSS_HPP
