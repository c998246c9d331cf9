/**
 * @file
 * Tests for the Gaussian parameter store, the attribute-wise split, the
 * subset-capable CPU Adam and adaptive densification.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "gaussian/adam.hpp"
#include "gaussian/densify.hpp"
#include "gaussian/model.hpp"
#include "math/rng.hpp"
#include "util/thread_pool.hpp"

namespace clm {
namespace {

GaussianModel
randomModel(size_t n, uint64_t seed)
{
    Rng rng(seed);
    GaussianModel m = GaussianModel::random(n, {-5, -5, -5}, {5, 5, 5},
                                            0.1f, rng);
    for (size_t i = 0; i < n; ++i) {
        m.rotation(i) = Quat{rng.normal(), rng.normal(), rng.normal(),
                             rng.normal()};
        if (m.rotation(i).norm() < 1e-3f)
            m.rotation(i) = Quat{1, 0, 0, 0};
        for (int k = 0; k < kShDim; ++k)
            m.sh(i)[k] = rng.normal(0.0f, 0.3f);
    }
    return m;
}

GaussianGrads
randomGrads(size_t n, uint64_t seed)
{
    Rng rng(seed);
    GaussianGrads g;
    g.resize(n);
    for (size_t i = 0; i < n; ++i) {
        g.d_position[i] = rng.normal3({0, 0, 0}, 1.0f);
        g.d_log_scale[i] = rng.normal3({0, 0, 0}, 1.0f);
        g.d_rotation[i] = Quat{rng.normal(), rng.normal(), rng.normal(),
                               rng.normal()};
        g.d_opacity[i] = rng.normal();
        for (int k = 0; k < kShDim; ++k)
            g.d_sh[i * kShDim + k] = rng.normal();
    }
    return g;
}

/** Every row index of an @p n-Gaussian model (a full Adam step). */
std::vector<uint32_t>
allRows(size_t n)
{
    std::vector<uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    return all;
}

TEST(Attributes, LayoutConstants)
{
    EXPECT_EQ(kParamsPerGaussian, 59);
    EXPECT_EQ(kCriticalDim, 10);
    EXPECT_EQ(kNonCriticalDim, 49);
    EXPECT_EQ(kModelStateBytesPerGaussian, 59u * 4u * 4u);
    EXPECT_EQ(kPaddedNonCriticalBytes % kCacheLineBytes, 0u);
    // Critical fraction is under 20% of the footprint (§4.1).
    EXPECT_LT(double(kCriticalDim) / kParamsPerGaussian, 0.20);
}

TEST(GaussianModel, PackUnpackCriticalRoundTrip)
{
    GaussianModel m = randomModel(8, 1);
    float rec[kCriticalDim];
    m.packCritical(3, rec);
    GaussianModel m2(8);
    m2.unpackCritical(3, rec);
    EXPECT_FLOAT_EQ(m2.position(3).x, m.position(3).x);
    EXPECT_FLOAT_EQ(m2.logScale(3).z, m.logScale(3).z);
    EXPECT_FLOAT_EQ(m2.rotation(3).w, m.rotation(3).w);
    EXPECT_FLOAT_EQ(m2.rotation(3).z, m.rotation(3).z);
}

TEST(GaussianModel, PackUnpackNonCriticalRoundTrip)
{
    GaussianModel m = randomModel(8, 2);
    float rec[kNonCriticalDim];
    m.packNonCritical(5, rec);
    GaussianModel m2(8);
    m2.unpackNonCritical(5, rec);
    for (int k = 0; k < kShDim; ++k)
        EXPECT_FLOAT_EQ(m2.sh(5)[k], m.sh(5)[k]);
    EXPECT_FLOAT_EQ(m2.rawOpacity(5), m.rawOpacity(5));
}

TEST(GaussianModel, ActivationsApplied)
{
    GaussianModel m(1);
    m.logScale(0) = {0.0f, std::log(2.0f), std::log(0.5f)};
    m.rawOpacity(0) = 0.0f;
    Vec3 ws = m.worldScale(0);
    EXPECT_NEAR(ws.x, 1.0f, 1e-6f);
    EXPECT_NEAR(ws.y, 2.0f, 1e-6f);
    EXPECT_NEAR(ws.z, 0.5f, 1e-6f);
    EXPECT_NEAR(m.worldOpacity(0), 0.5f, 1e-6f);
    EXPECT_NEAR(inverseSigmoid(0.1f), -2.19722f, 1e-4f);
}

TEST(GaussianModel, CovarianceIsSymmetricPsd)
{
    GaussianModel m = randomModel(20, 3);
    for (size_t i = 0; i < m.size(); ++i) {
        Mat3 cov = m.covariance(i);
        for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b)
                EXPECT_NEAR(cov.m[a][b], cov.m[b][a], 1e-4f);
        // Diagonal entries of a PSD matrix are non-negative; determinant
        // of R S^2 R^T equals det(S^2) > 0.
        for (int a = 0; a < 3; ++a)
            EXPECT_GE(cov.m[a][a], 0.0f);
        EXPECT_GT(cov.det(), 0.0f);
    }
}

TEST(GaussianModel, RemoveRowsKeepsOrder)
{
    GaussianModel m = randomModel(10, 4);
    Vec3 keep2 = m.position(2);
    Vec3 keep9 = m.position(9);
    m.removeRows({0, 5, 7});
    EXPECT_EQ(m.size(), 7u);
    EXPECT_FLOAT_EQ(m.position(1).x, keep2.x);    // 2 shifted to 1
    EXPECT_FLOAT_EQ(m.position(6).x, keep9.x);    // 9 shifted to 6
}

TEST(GaussianModel, AppendGrows)
{
    GaussianModel m(2);
    float sh[kShDim] = {1.5f};
    size_t idx = m.append({1, 2, 3}, {0, 0, 0}, {1, 0, 0, 0}, sh, 0.25f);
    EXPECT_EQ(idx, 2u);
    EXPECT_EQ(m.size(), 3u);
    EXPECT_FLOAT_EQ(m.sh(2)[0], 1.5f);
    EXPECT_FLOAT_EQ(m.rawOpacity(2), 0.25f);
}

/** Reference scalar Adam for cross-checking. */
void
refAdam(float &p, float g, float &m, float &v, float lr, int t,
        const AdamConfig &c)
{
    m = c.beta1 * m + (1 - c.beta1) * g;
    v = c.beta2 * v + (1 - c.beta2) * g * g;
    float mh = m / (1 - std::pow(c.beta1, float(t)));
    float vh = v / (1 - std::pow(c.beta2, float(t)));
    p -= lr * mh / (std::sqrt(vh) + c.epsilon);
}

TEST(CpuAdam, MatchesReferenceScalarAdam)
{
    GaussianModel m = randomModel(3, 8);
    float p0 = m.position(1).x;
    CpuAdam adam;
    adam.reset(3);
    GaussianGrads g = randomGrads(3, 9);

    float rp = p0, rm = 0, rv = 0;
    for (int t = 1; t <= 5; ++t) {
        adam.updateSubset(m, g, allRows(3));
        refAdam(rp, g.d_position[1].x, rm, rv,
                adam.config().lr_position, t, adam.config());
    }
    EXPECT_NEAR(m.position(1).x, rp, 1e-5f);
}

TEST(CpuAdam, SubsetUpdateOnlyTouchesSubset)
{
    GaussianModel m = randomModel(6, 10);
    GaussianModel before = m;
    CpuAdam adam;
    adam.reset(6);
    GaussianGrads g = randomGrads(6, 11);
    adam.updateSubset(m, g, {1, 4});

    for (size_t i : {0u, 2u, 3u, 5u}) {
        EXPECT_FLOAT_EQ(m.position(i).x, before.position(i).x);
        EXPECT_FLOAT_EQ(m.rawOpacity(i), before.rawOpacity(i));
    }
    EXPECT_NE(m.position(1).x, before.position(1).x);
    EXPECT_NE(m.position(4).x, before.position(4).x);
    EXPECT_EQ(adam.stepCount(1), 1u);
    EXPECT_EQ(adam.stepCount(0), 0u);
}

TEST(CpuAdam, EarlySubsetUpdateEqualsBatchEndUpdate)
{
    // The §4.2.2 safety property: updating a finalized Gaussian early
    // gives the identical result to updating it at batch end, because
    // per-Gaussian step counters drive bias correction.
    GaussianModel m1 = randomModel(4, 12);
    GaussianModel m2 = m1;
    CpuAdam a1, a2;
    a1.reset(4);
    a2.reset(4);
    GaussianGrads g = randomGrads(4, 13);

    // a1: update {0,1} "early", then {2,3} "later".
    a1.updateSubset(m1, g, {0, 1});
    a1.updateSubset(m1, g, {2, 3});
    // a2: one batch-end update of everything.
    a2.updateSubset(m2, g, allRows(4));

    for (size_t i = 0; i < 4; ++i) {
        EXPECT_FLOAT_EQ(m1.position(i).x, m2.position(i).x);
        EXPECT_FLOAT_EQ(m1.logScale(i).y, m2.logScale(i).y);
        EXPECT_FLOAT_EQ(m1.rawOpacity(i), m2.rawOpacity(i));
        EXPECT_FLOAT_EQ(m1.sh(i)[10], m2.sh(i)[10]);
    }
}

TEST(CpuAdam, ResetZeroesEveryMomentAndStep)
{
    // Above the parallel zeroing threshold, after real updates.
    const size_t n = 3000;
    ASSERT_GT(n * 2 * kParamsPerGaussian * sizeof(float),
              kParallelZeroBytes);
    GaussianModel m = randomModel(n, 40);
    GaussianGrads g = randomGrads(n, 41);
    CpuAdam adam;
    adam.reset(n);
    adam.updateSubset(m, g, allRows(n));
    adam.updateSubset(m, g, allRows(n));
    ASSERT_EQ(adam.stepCount(n - 1), 2u);
    ASSERT_NE(adam.firstMoments(n - 1)[0], 0.0f);
    for (size_t size : {n, n + 1}) {
        adam.reset(size);
        ASSERT_EQ(adam.size(), size);
        for (size_t i = 0; i < size; ++i) {
            EXPECT_EQ(adam.stepCount(i), 0u) << "row " << i;
            const float *mv = adam.firstMoments(i);
            EXPECT_TRUE(std::all_of(mv, mv + 2 * kParamsPerGaussian,
                                    [](float x) {
                                        uint32_t bits;
                                        std::memcpy(&bits, &x, 4);
                                        return bits == 0;
                                    }))
                << "row " << i;
        }
    }
}

TEST(CpuAdam, StateBytesMatchPaperEstimate)
{
    CpuAdam adam;
    adam.reset(1000);
    // Two moments per parameter = half of the 4-values-per-param total.
    EXPECT_EQ(adam.stateBytes(), 1000u * 59u * 2u * sizeof(float));
}

/**
 * Per-parameter reference Adam: the update as it was written before the
 * per-row bias corrections and the F8 SH lanes — one std::pow pair per
 * element, state kept as 59-float records (gradient record layout).
 */
class PerParameterAdam
{
  public:
    PerParameterAdam(const GaussianModel &model, AdamConfig config)
        : config_(config), params_(model.size() * kParamsPerGaussian),
          m_(params_.size(), 0.0f), v_(params_.size(), 0.0f),
          step_(model.size(), 0)
    {
        for (size_t i = 0; i < model.size(); ++i) {
            model.packCritical(i, row(params_, i));
            model.packNonCritical(i, row(params_, i) + kShOffset);
        }
    }

    void
    updateRow(uint32_t i, const float *grad)
    {
        uint32_t t = ++step_[i];
        for (int k = 0; k < kParamsPerGaussian; ++k) {
            float lr = k < kScaleOffset  ? positionLr(t)
                       : k < kRotOffset  ? config_.lr_log_scale
                       : k < kShOffset   ? config_.lr_rotation
                       : k < kOpacityOffset ? config_.lr_sh
                                            : config_.lr_opacity;
            step(row(params_, i)[k], grad[k], row(m_, i)[k], row(v_, i)[k],
                 lr, t);
        }
    }

    float *params(size_t i) { return row(params_, i); }
    float *m(size_t i) { return row(m_, i); }
    float *v(size_t i) { return row(v_, i); }

  private:
    static float *
    row(std::vector<float> &a, size_t i)
    {
        return &a[i * kParamsPerGaussian];
    }

    void
    step(float &param, float grad, float &m, float &v, float lr,
         uint32_t t) const
    {
        m = config_.beta1 * m + (1.0f - config_.beta1) * grad;
        v = config_.beta2 * v + (1.0f - config_.beta2) * grad * grad;
        float bc1 = 1.0f - std::pow(config_.beta1, static_cast<float>(t));
        float bc2 = 1.0f - std::pow(config_.beta2, static_cast<float>(t));
        float m_hat = m / bc1;
        float v_hat = v / bc2;
        param -= lr * m_hat / (std::sqrt(v_hat) + config_.epsilon);
    }

    float
    positionLr(uint32_t t) const
    {
        if (config_.lr_position_final <= 0.0f
            || config_.lr_position_final == config_.lr_position
            || config_.position_lr_max_steps == 0) {
            return config_.lr_position;
        }
        float progress = std::min(
            1.0f, static_cast<float>(t)
                      / static_cast<float>(config_.position_lr_max_steps));
        return config_.lr_position
               * std::pow(config_.lr_position_final / config_.lr_position,
                          progress);
    }

    AdamConfig config_;
    std::vector<float> params_, m_, v_;
    std::vector<uint32_t> step_;
};

/** Bit-pattern equality of two 59-float records. */
void
expectRecordBitwise(const float *a, const float *b, const char *what,
                    size_t i, int round)
{
    for (int k = 0; k < kParamsPerGaussian; ++k) {
        uint32_t ua, ub;
        std::memcpy(&ua, &a[k], sizeof(ua));
        std::memcpy(&ub, &b[k], sizeof(ub));
        ASSERT_EQ(ua, ub) << what << " row " << i << " param " << k
                          << " round " << round;
    }
}

TEST(CpuAdam, BitwiseMatchesPerParameterReference)
{
    // Per-row bias corrections and the F8 SH lanes perform exactly the
    // per-parameter IEEE op sequence, so every parameter and both
    // moments must match the reference bit for bit — through the
    // gradient-buffer path and the pinned-record path, on every F8
    // backend. A short LR schedule puts rows past
    // position_lr_max_steps; random subsets give rows different t.
    constexpr size_t kRows = 24;
    constexpr int kRounds = 20;
    AdamConfig config;
    config.position_lr_max_steps = 7;
    config.parallel = false;
    GaussianModel by_grads = randomModel(kRows, 21);
    GaussianModel by_record = by_grads;
    PerParameterAdam ref(by_grads, config);
    CpuAdam grads_adam(config), record_adam(config);
    grads_adam.reset(kRows);
    record_adam.reset(kRows);

    Rng rng(22);
    for (int round = 0; round < kRounds; ++round) {
        GaussianGrads g = randomGrads(kRows, 100 + round);
        // Mix in magnitudes far from 1, and exact zeros.
        for (size_t i = 0; i < kRows; ++i) {
            float scale = std::pow(10.0f, rng.uniform(-6.0f, 3.0f));
            for (int k = 0; k < kShDim; ++k)
                g.d_sh[i * kShDim + k] *= (k % 7 == 3) ? 0.0f : scale;
            g.d_position[i] = g.d_position[i] * scale;
        }
        std::vector<uint32_t> subset;
        for (uint32_t i = 0; i < kRows; ++i)
            if (round < 2 || rng.uniform() < 0.7f)
                subset.push_back(i);

        grads_adam.updateSubset(by_grads, g, subset);
        for (uint32_t i : subset) {
            float rec[kParamsPerGaussian];
            packGradRecord(g, i, rec);
            record_adam.updateRecord(by_record, i, rec);
            ref.updateRow(i, rec);
        }

        for (size_t i = 0; i < kRows; ++i) {
            float p_grads[kParamsPerGaussian], p_record[kParamsPerGaussian];
            by_grads.packCritical(i, p_grads);
            by_grads.packNonCritical(i, p_grads + kShOffset);
            by_record.packCritical(i, p_record);
            by_record.packNonCritical(i, p_record + kShOffset);
            expectRecordBitwise(p_grads, ref.params(i), "param/grads", i,
                                round);
            expectRecordBitwise(p_record, ref.params(i), "param/record", i,
                                round);
            const float *m = grads_adam.firstMoments(i);
            expectRecordBitwise(m, ref.m(i), "m/grads", i, round);
            expectRecordBitwise(m + kParamsPerGaussian, ref.v(i), "v/grads",
                                i, round);
            m = record_adam.firstMoments(i);
            expectRecordBitwise(m, ref.m(i), "m/record", i, round);
            expectRecordBitwise(m + kParamsPerGaussian, ref.v(i), "v/record",
                                i, round);
        }
    }
    // The schedule really ran past its end for some rows.
    uint32_t max_t = 0;
    for (size_t i = 0; i < kRows; ++i)
        max_t = std::max(max_t, grads_adam.stepCount(i));
    EXPECT_GT(max_t, config.position_lr_max_steps);
}

TEST(Densifier, PrunesTransparent)
{
    GaussianModel m = randomModel(10, 14);
    for (size_t i = 0; i < 3; ++i)
        m.rawOpacity(i) = inverseSigmoid(0.001f);    // below threshold
    CpuAdam adam;
    adam.reset(10);
    adam.updateSubset(m, randomGrads(10, 18), allRows(10));    // state != 0
    Densifier d;
    d.reset(10);
    Rng rng(1);
    DensifyStats stats = d.densify(m, adam, rng);
    EXPECT_EQ(stats.pruned, 3u);
    EXPECT_EQ(m.size(), 7u);
    ASSERT_EQ(adam.size(), 7u);
    // A topology change restarts every row's optimizer state.
    for (size_t i = 0; i < adam.size(); ++i) {
        EXPECT_EQ(adam.stepCount(i), 0u) << "row " << i;
        const float *mv = adam.firstMoments(i);
        for (int k = 0; k < 2 * kParamsPerGaussian; ++k)
            ASSERT_EQ(mv[k], 0.0f) << "row " << i << " state " << k;
    }
}

TEST(Densifier, ClonesHighGradientSmallGaussians)
{
    GaussianModel m = randomModel(4, 15);
    for (size_t i = 0; i < 4; ++i) {
        m.rawOpacity(i) = inverseSigmoid(0.8f);
        m.logScale(i) = {-5, -5, -5};    // tiny -> clone, not split
    }
    Densifier d;
    d.reset(4);
    GaussianGrads g;
    g.resize(4);
    g.d_position[2] = {1.0f, 0, 0};    // only #2 above threshold
    d.observe(g);
    CpuAdam adam;
    adam.reset(4);
    Rng rng(2);
    DensifyStats stats = d.densify(m, adam, rng);
    EXPECT_EQ(stats.cloned, 1u);
    EXPECT_EQ(stats.split, 0u);
    EXPECT_EQ(m.size(), 5u);
}

TEST(Densifier, SplitsLargeGaussiansAndRemovesParent)
{
    GaussianModel m = randomModel(4, 16);
    for (size_t i = 0; i < 4; ++i)
        m.rawOpacity(i) = inverseSigmoid(0.8f);
    m.logScale(1) = {2.0f, 2.0f, 2.0f};    // huge -> split
    Densifier d;
    d.reset(4);
    GaussianGrads g;
    g.resize(4);
    g.d_position[1] = {1.0f, 0, 0};
    d.observe(g);
    CpuAdam adam;
    adam.reset(4);
    Rng rng(3);
    DensifyStats stats = d.densify(m, adam, rng);
    EXPECT_EQ(stats.split, 1u);
    // 4 - 1 parent + 2 children = 5.
    EXPECT_EQ(m.size(), 5u);
}

TEST(Densifier, RespectsMaxGaussiansCap)
{
    DensifyConfig cfg;
    cfg.max_gaussians = 4;
    Densifier d(cfg);
    GaussianModel m = randomModel(4, 17);
    for (size_t i = 0; i < 4; ++i)
        m.rawOpacity(i) = inverseSigmoid(0.8f);
    d.reset(4);
    GaussianGrads g;
    g.resize(4);
    for (size_t i = 0; i < 4; ++i)
        g.d_position[i] = {1.0f, 0, 0};
    d.observe(g);
    CpuAdam adam;
    adam.reset(4);
    Rng rng(4);
    d.densify(m, adam, rng);
    EXPECT_LE(m.size(), 4u);
}

} // namespace
} // namespace clm
