#include "render/loss.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace clm {

namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/** Row chunks per pass (at most): a constant, so every pool size
 *  splits the reductions the same way. */
constexpr size_t kLossChunks = 8;

/** Fixed row-chunk plan shared by every parallel pass: derived from the
 *  row count only (neither the parallel flag nor the pool size), so
 *  serial and parallel execution at any thread count perform identical
 *  arithmetic — the backward-rasterizer determinism recipe. */
struct ChunkPlan
{
    size_t n_chunks = 1;
    size_t per_chunk = 0;

    static ChunkPlan forRows(size_t rows)
    {
        ChunkPlan p;
        p.n_chunks = std::max<size_t>(1, std::min(rows, kLossChunks));
        p.per_chunk = rows == 0 ? 0 : (rows + p.n_chunks - 1) / p.n_chunks;
        return p;
    }
};

/** Run @p body(chunk_index) over the plan, across the pool or serially
 *  in chunk order — the split itself never changes. */
template <typename Body>
void
runChunks(const ChunkPlan &plan, bool parallel, const Body &body)
{
    if (parallel && plan.n_chunks > 1) {
        ThreadPool::global().parallelFor(
            plan.n_chunks, [&](size_t begin, size_t end) {
                for (size_t c = begin; c < end; ++c)
                    body(c);
            });
    } else {
        for (size_t c = 0; c < plan.n_chunks; ++c)
            body(c);
    }
}

/**
 * Column-prefix pass of a SAT whose rows already hold row prefixes:
 * row y += row y-1 walking down, split into flat column slices (each
 * slice sees the same serial y-order, so any split is deterministic).
 * Row 0 is the zero guard row; row 1 needs no add.
 */
void
satColumnPrefix(std::vector<double> &sat, size_t row_w, int h,
                bool parallel)
{
    const ChunkPlan cols = ChunkPlan::forRows(row_w);
    runChunks(cols, parallel, [&](size_t c) {
        const size_t i0 = c * cols.per_chunk;
        const size_t i1 = std::min<size_t>(i0 + cols.per_chunk, row_w);
        for (int y = 2; y <= h; ++y) {
            double *cur = &sat[static_cast<size_t>(y) * row_w];
            const double *prev =
                &sat[static_cast<size_t>(y - 1) * row_w];
            for (size_t i = i0; i < i1; ++i)
                cur[i] += prev[i];
        }
    });
}

/**
 * Build a summed-area table over a per-pixel @p values image of
 * @p stride doubles per pixel (fused fields): row-prefix pass (rows are
 * independent) followed by the column-prefix pass, both tiled over the
 * pool. @p sat is laid out (h+1) x (w+1) x stride with a zero guard
 * row/column, so any clamped box sum is four corner lookups.
 */
void
buildSat(const double *values, int w, int h, int stride, bool parallel,
         std::vector<double> &sat)
{
    const size_t row_w = static_cast<size_t>(w + 1) * stride;
    sat.resize(row_w * (h + 1));
    std::memset(sat.data(), 0, row_w * sizeof(double));    // guard row

    const ChunkPlan rows = ChunkPlan::forRows(h);
    runChunks(rows, parallel, [&](size_t c) {
        const size_t y0 = c * rows.per_chunk;
        const size_t y1 = std::min<size_t>(y0 + rows.per_chunk, h);
        std::vector<double> run(stride);
        for (size_t y = y0; y < y1; ++y) {
            std::fill(run.begin(), run.end(), 0.0);
            double *dst = &sat[(y + 1) * row_w];
            std::memset(dst, 0, stride * sizeof(double));    // guard col
            const double *src =
                values + y * static_cast<size_t>(w) * stride;
            for (int x = 0; x < w; ++x) {
                for (int k = 0; k < stride; ++k)
                    run[k] += src[static_cast<size_t>(x) * stride + k];
                std::memcpy(dst + (static_cast<size_t>(x) + 1) * stride,
                            run.data(), stride * sizeof(double));
            }
        }
    });
    satColumnPrefix(sat, row_w, h, parallel);
}

// Fused-channel layouts.
constexpr int kStats = 5;                  // sx, sy, sxx, syy, sxy
constexpr int kSatStride = 3 * kStats;     // all 3 channels in one pass
constexpr int kFieldStride = 3 * 3;        // A, B, C per channel

/**
 * SSIM statistics pass: build the fused 15-field SAT of (x, y, x^2,
 * y^2, x*y) for all channels, then evaluate every center's window
 * statistics in O(1). Returns the ssim sum over all pixels and
 * channels (chunk partials reduced in chunk order). When @p field is
 * non-null, also writes the three backward coefficient fields per
 * channel:
 *
 *   A = (1/N) * (d_mu - 2*d_var*mu_x - d_cov*mu_y)
 *   B = (1/N) * d_var        (coefficient of 2*x(q))
 *   C = (1/N) * d_cov        (coefficient of y(q))
 *
 * so dL_ssim/dx(q) reduces to a clamped box sum of (A, B, C) around q
 * — the set of centers whose clamped window covers q is exactly the
 * clamped window around q, border pixels included.
 */
double
ssimStatsPass(const Image &x_img, const Image &y_img, const LossConfig &cfg,
              LossScratch &scratch, double *field)
{
    const int w = x_img.width();
    const int h = x_img.height();
    const int r = cfg.ssim_window / 2;
    const std::vector<float> &xd = x_img.data();
    const std::vector<float> &yd = y_img.data();

    // Pass 1: per-pixel moments, fused across channels, straight into
    // the SAT fill (no intermediate moment image: the row-prefix run
    // accumulates the moments as it walks the row).
    const size_t row_w = static_cast<size_t>(w + 1) * kSatStride;
    std::vector<double> &sat = scratch.sat;
    sat.resize(row_w * (h + 1));
    std::memset(sat.data(), 0, row_w * sizeof(double));

    const ChunkPlan rows = ChunkPlan::forRows(h);
    runChunks(rows, cfg.parallel, [&](size_t c) {
        const size_t y0 = c * rows.per_chunk;
        const size_t y1 = std::min<size_t>(y0 + rows.per_chunk, h);
        for (size_t y = y0; y < y1; ++y) {
            double run[kSatStride] = {};
            double *dst = &sat[(y + 1) * row_w];
            std::memset(dst, 0, kSatStride * sizeof(double));
            const float *xp = &xd[y * static_cast<size_t>(w) * 3];
            const float *yp = &yd[y * static_cast<size_t>(w) * 3];
            for (int x = 0; x < w; ++x) {
                for (int ch = 0; ch < 3; ++ch) {
                    const double xv = xp[x * 3 + ch];
                    const double yv = yp[x * 3 + ch];
                    double *m = run + ch * kStats;
                    m[0] += xv;
                    m[1] += yv;
                    m[2] += xv * xv;
                    m[3] += yv * yv;
                    m[4] += xv * yv;
                }
                std::memcpy(
                    dst + (static_cast<size_t>(x) + 1) * kSatStride, run,
                    sizeof(run));
            }
        }
    });
    satColumnPrefix(sat, row_w, h, cfg.parallel);

    // Pass 2: O(1) window statistics per center.
    std::vector<double> partials(rows.n_chunks, 0.0);
    runChunks(rows, cfg.parallel, [&](size_t c) {
        const size_t py0c = c * rows.per_chunk;
        const size_t py1c = std::min<size_t>(py0c + rows.per_chunk, h);
        double local = 0.0;
        for (size_t py = py0c; py < py1c; ++py) {
            const int y0 = std::max<int>(static_cast<int>(py) - r, 0);
            const int y1 =
                std::min<int>(static_cast<int>(py) + r, h - 1);
            const double *top = &sat[static_cast<size_t>(y0) * row_w];
            const double *bot =
                &sat[static_cast<size_t>(y1 + 1) * row_w];
            for (int px = 0; px < w; ++px) {
                const int x0 = std::max(px - r, 0);
                const int x1 = std::min(px + r, w - 1);
                const double inv = 1.0 / ((x1 - x0 + 1) * (y1 - y0 + 1));
                const double *c00 =
                    top + static_cast<size_t>(x0) * kSatStride;
                const double *c01 =
                    top + static_cast<size_t>(x1 + 1) * kSatStride;
                const double *c10 =
                    bot + static_cast<size_t>(x0) * kSatStride;
                const double *c11 =
                    bot + static_cast<size_t>(x1 + 1) * kSatStride;
                const size_t pi = py * static_cast<size_t>(w) + px;
                for (int ch = 0; ch < 3; ++ch) {
                    const int b = ch * kStats;
                    const double sx =
                        c11[b] - c01[b] - c10[b] + c00[b];
                    const double sy = c11[b + 1] - c01[b + 1]
                                    - c10[b + 1] + c00[b + 1];
                    const double sxx = c11[b + 2] - c01[b + 2]
                                     - c10[b + 2] + c00[b + 2];
                    const double syy = c11[b + 3] - c01[b + 3]
                                     - c10[b + 3] + c00[b + 3];
                    const double sxy = c11[b + 4] - c01[b + 4]
                                     - c10[b + 4] + c00[b + 4];
                    const double mx = sx * inv, my = sy * inv;
                    const double vx = sxx * inv - mx * mx;
                    const double vy = syy * inv - my * my;
                    const double cxy = sxy * inv - mx * my;

                    const double u = 2.0 * mx * my + cfg.ssim_c1;
                    const double v = 2.0 * cxy + cfg.ssim_c2;
                    const double s = mx * mx + my * my + cfg.ssim_c1;
                    const double t = vx + vy + cfg.ssim_c2;
                    local += (u * v) / (s * t);

                    if (field) {
                        const double d_mu =
                            2.0 * my * v / (s * t)
                            - (u * v) * 2.0 * mx / (s * s * t);
                        const double d_var = -(u * v) / (s * t * t);
                        const double d_cov = 2.0 * u / (s * t);
                        double *f = field + pi * kFieldStride + ch * 3;
                        f[0] = inv
                             * (d_mu - 2.0 * d_var * mx - d_cov * my);
                        f[1] = inv * d_var;
                        f[2] = inv * d_cov;
                    }
                }
            }
        }
        partials[c] = local;
    });
    double ssim_sum = 0.0;
    for (double p : partials)
        ssim_sum += p;
    return ssim_sum;
}

// ---------------------------------------------------------------------------
// Brute-force reference (the pre-SAT implementation, serial)
// ---------------------------------------------------------------------------

/**
 * Per-center SSIM statistics for one channel, plus the three coefficient
 * fields the backward pass scatters through the window.
 */
struct SsimField
{
    std::vector<double> mu_x, mu_y;
    std::vector<double> d_mu;      // dSSIM/dmu_x at each center
    std::vector<double> d_var;     // dSSIM/dsigma_x2 at each center
    std::vector<double> d_cov;     // dSSIM/dsigma_xy at each center
    std::vector<double> inv_n;     // 1/window-size at each center
    double ssim_sum = 0.0;
};

SsimField
ssimChannel(const Image &x_img, const Image &y_img, int ch,
            const LossConfig &cfg, bool want_grads)
{
    const int w = x_img.width();
    const int h = x_img.height();
    const int r = cfg.ssim_window / 2;
    const size_t n = static_cast<size_t>(w) * h;

    SsimField f;
    f.mu_x.resize(n);
    f.mu_y.resize(n);
    if (want_grads) {
        f.d_mu.assign(n, 0.0);
        f.d_var.assign(n, 0.0);
        f.d_cov.assign(n, 0.0);
        f.inv_n.assign(n, 0.0);
    }

    const std::vector<float> &xd = x_img.data();
    const std::vector<float> &yd = y_img.data();
    auto at = [&](const std::vector<float> &d, int px, int py) {
        return double(d[(static_cast<size_t>(py) * w + px) * 3 + ch]);
    };

    for (int py = 0; py < h; ++py) {
        for (int px = 0; px < w; ++px) {
            int x0 = std::max(px - r, 0), x1 = std::min(px + r, w - 1);
            int y0 = std::max(py - r, 0), y1 = std::min(py + r, h - 1);
            int cnt = (x1 - x0 + 1) * (y1 - y0 + 1);
            double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
            for (int yy = y0; yy <= y1; ++yy) {
                for (int xx = x0; xx <= x1; ++xx) {
                    double xv = at(xd, xx, yy);
                    double yv = at(yd, xx, yy);
                    sx += xv;
                    sy += yv;
                    sxx += xv * xv;
                    syy += yv * yv;
                    sxy += xv * yv;
                }
            }
            double mx = sx / cnt, my = sy / cnt;
            double vx = sxx / cnt - mx * mx;
            double vy = syy / cnt - my * my;
            double cxy = sxy / cnt - mx * my;

            double u = 2.0 * mx * my + cfg.ssim_c1;
            double v = 2.0 * cxy + cfg.ssim_c2;
            double s = mx * mx + my * my + cfg.ssim_c1;
            double t = vx + vy + cfg.ssim_c2;
            double ssim = (u * v) / (s * t);
            f.ssim_sum += ssim;

            size_t pi = static_cast<size_t>(py) * w + px;
            f.mu_x[pi] = mx;
            f.mu_y[pi] = my;
            if (want_grads) {
                f.d_mu[pi] = 2.0 * my * v / (s * t)
                           - (u * v) * 2.0 * mx / (s * s * t);
                f.d_var[pi] = -(u * v) / (s * t * t);
                f.d_cov[pi] = 2.0 * u / (s * t);
                f.inv_n[pi] = 1.0 / cnt;
            }
        }
    }
    return f;
}

} // namespace

LossResult
computeLoss(const Image &rendered, const Image &gt, Image *d_rendered,
            const LossConfig &cfg)
{
    LossScratch scratch;
    return computeLoss(rendered, gt, d_rendered, cfg, scratch, nullptr);
}

LossResult
computeLoss(const Image &rendered, const Image &gt, Image *d_rendered,
            const LossConfig &cfg, LossScratch &scratch,
            LossStageTimes *times)
{
    CLM_ASSERT(rendered.width() == gt.width()
                   && rendered.height() == gt.height(),
               "image size mismatch");
    CLM_ASSERT(cfg.ssim_window % 2 == 1, "ssim window must be odd");

    const int w = rendered.width();
    const int h = rendered.height();
    const size_t pixels = rendered.pixels();
    const size_t total_vals = rendered.data().size();
    const double lam = cfg.lambda_dssim;
    const int r = cfg.ssim_window / 2;

    Timer timer;

    LossResult result;
    result.l1 = rendered.l1(gt);

    // Forward SSIM statistics (+ the backward coefficient fields when
    // gradients are wanted).
    double *field = nullptr;
    if (d_rendered) {
        scratch.field.resize(pixels * kFieldStride);
        field = scratch.field.data();
    }
    const double ssim_sum =
        ssimStatsPass(rendered, gt, cfg, scratch, field);
    const double mean_ssim = ssim_sum / (3.0 * pixels);
    result.dssim = 1.0 - mean_ssim;
    result.total = (1.0 - lam) * result.l1 + lam * result.dssim;
    if (times)
        times->forward_s = timer.seconds();
    if (!d_rendered)
        return result;
    timer.reset();

    // Backward: SAT the coefficient fields, then one fused scatter pass
    // writing dL/dx(q) = L1 sign term + ssim_scale * (S_A + 2 x(q) S_B
    // + y(q) S_C) — every output value written exactly once, so the
    // pass parallelizes over disjoint rows.
    buildSat(field, w, h, kFieldStride, cfg.parallel, scratch.field_sat);
    const std::vector<double> &fsat = scratch.field_sat;
    const size_t frow_w = static_cast<size_t>(w + 1) * kFieldStride;

    d_rendered->resetUnfilled(w, h);
    std::vector<float> &dd = d_rendered->data();
    const std::vector<float> &xd = rendered.data();
    const std::vector<float> &yd = gt.data();
    const double l1_scale = (1.0 - lam) / total_vals;
    const double ssim_scale = -lam / (3.0 * pixels);

    const ChunkPlan rows = ChunkPlan::forRows(h);
    runChunks(rows, cfg.parallel, [&](size_t c) {
        const size_t qy0c = c * rows.per_chunk;
        const size_t qy1c = std::min<size_t>(qy0c + rows.per_chunk, h);
        for (size_t qy = qy0c; qy < qy1c; ++qy) {
            const int y0 = std::max<int>(static_cast<int>(qy) - r, 0);
            const int y1 =
                std::min<int>(static_cast<int>(qy) + r, h - 1);
            const double *top = &fsat[static_cast<size_t>(y0) * frow_w];
            const double *bot =
                &fsat[static_cast<size_t>(y1 + 1) * frow_w];
            for (int qx = 0; qx < w; ++qx) {
                const int x0 = std::max(qx - r, 0);
                const int x1 = std::min(qx + r, w - 1);
                const double *c00 =
                    top + static_cast<size_t>(x0) * kFieldStride;
                const double *c01 =
                    top + static_cast<size_t>(x1 + 1) * kFieldStride;
                const double *c10 =
                    bot + static_cast<size_t>(x0) * kFieldStride;
                const double *c11 =
                    bot + static_cast<size_t>(x1 + 1) * kFieldStride;
                const size_t qi = qy * static_cast<size_t>(w) + qx;
                for (int ch = 0; ch < 3; ++ch) {
                    const int b = ch * 3;
                    const double sa =
                        c11[b] - c01[b] - c10[b] + c00[b];
                    const double sb = c11[b + 1] - c01[b + 1]
                                    - c10[b + 1] + c00[b + 1];
                    const double sc = c11[b + 2] - c01[b + 2]
                                    - c10[b + 2] + c00[b + 2];
                    const double xq = xd[qi * 3 + ch];
                    const double yq = yd[qi * 3 + ch];
                    const double acc = sa + 2.0 * xq * sb + yq * sc;
                    const double diff = xq - yq;
                    const double sign =
                        diff > 0 ? 1.0 : (diff < 0 ? -1.0 : 0.0);
                    dd[qi * 3 + ch] = static_cast<float>(
                        l1_scale * sign + ssim_scale * acc);
                }
            }
        }
    });
    if (times)
        times->backward_s = timer.seconds();
    return result;
}

LossResult
computeLossReference(const Image &rendered, const Image &gt,
                     Image *d_rendered, const LossConfig &cfg,
                     LossStageTimes *times)
{
    CLM_ASSERT(rendered.width() == gt.width()
                   && rendered.height() == gt.height(),
               "image size mismatch");
    CLM_ASSERT(cfg.ssim_window % 2 == 1, "ssim window must be odd");

    const int w = rendered.width();
    const int h = rendered.height();
    const size_t total_vals = rendered.data().size();
    const double lam = cfg.lambda_dssim;

    Timer timer;
    double fwd_s = 0, bwd_s = 0;

    if (d_rendered)
        *d_rendered = Image(w, h, {0, 0, 0});

    LossResult result;
    result.l1 = rendered.l1(gt);

    // L1 gradient: (1-lam)/total * sign(x - y).
    if (d_rendered) {
        auto &dd = d_rendered->data();
        const auto &xd = rendered.data();
        const auto &yd = gt.data();
        double scale = (1.0 - lam) / total_vals;
        for (size_t i = 0; i < total_vals; ++i) {
            double diff = double(xd[i]) - double(yd[i]);
            dd[i] += static_cast<float>(
                scale * (diff > 0 ? 1.0 : (diff < 0 ? -1.0 : 0.0)));
        }
    }
    fwd_s += timer.seconds();

    // SSIM term, per channel.
    const int r = cfg.ssim_window / 2;
    double ssim_acc = 0.0;
    const double pixel_count = static_cast<double>(rendered.pixels());
    for (int ch = 0; ch < 3; ++ch) {
        timer.reset();
        SsimField f =
            ssimChannel(rendered, gt, ch, cfg, d_rendered != nullptr);
        ssim_acc += f.ssim_sum;
        fwd_s += timer.seconds();
        if (!d_rendered)
            continue;
        timer.reset();
        // dL/dx(q) = -lam / (3P) * sum_{centers p covering q} (1/N_p) *
        //   [d_mu(p) + d_var(p)*2*(x(q)-mu_x(p)) + d_cov(p)*(y(q)-mu_y(p))]
        auto &dd = d_rendered->data();
        const auto &xd = rendered.data();
        const auto &yd = gt.data();
        double scale = -lam / (3.0 * pixel_count);
        for (int qy = 0; qy < h; ++qy) {
            for (int qx = 0; qx < w; ++qx) {
                size_t qi = static_cast<size_t>(qy) * w + qx;
                double xq = xd[qi * 3 + ch];
                double yq = yd[qi * 3 + ch];
                double acc = 0.0;
                int py0 = std::max(qy - r, 0), py1 = std::min(qy + r, h - 1);
                int px0 = std::max(qx - r, 0), px1 = std::min(qx + r, w - 1);
                for (int py = py0; py <= py1; ++py) {
                    for (int px = px0; px <= px1; ++px) {
                        size_t pi = static_cast<size_t>(py) * w + px;
                        acc += f.inv_n[pi]
                             * (f.d_mu[pi]
                                + f.d_var[pi] * 2.0 * (xq - f.mu_x[pi])
                                + f.d_cov[pi] * (yq - f.mu_y[pi]));
                    }
                }
                dd[qi * 3 + ch] += static_cast<float>(scale * acc);
            }
        }
        bwd_s += timer.seconds();
    }
    double mean_ssim = ssim_acc / (3.0 * pixel_count);
    result.dssim = 1.0 - mean_ssim;
    result.total = (1.0 - lam) * result.l1 + lam * result.dssim;
    if (times) {
        times->forward_s = fwd_s;
        times->backward_s = bwd_s;
    }
    return result;
}

double
meanSsim(const Image &a, const Image &b, const LossConfig &cfg)
{
    CLM_ASSERT(a.width() == b.width() && a.height() == b.height(),
               "image size mismatch");
    LossScratch scratch;
    const double ssim_sum = ssimStatsPass(a, b, cfg, scratch, nullptr);
    return ssim_sum / (3.0 * a.pixels());
}

} // namespace clm
