/**
 * @file
 * Batch-planner tests: DAG validity for all four systems, byte
 * accounting, the 1F1B two-stream structure of §5.3 (prefetch before the
 * previous store on the communication stream) and CLM's dependency wiring
 * (loads gated on double-buffer reuse, Adam gated on gradient arrival).
 */

#include <gtest/gtest.h>

#include <numeric>

#include "math/rng.hpp"
#include "offload/planner.hpp"

namespace clm {
namespace {

BatchWorkload
makeWorkload(int views, uint32_t universe, double density, uint64_t seed,
             double n_target_scale = 1.0)
{
    Rng rng(seed);
    BatchWorkload wl;
    for (int v = 0; v < views; ++v) {
        std::vector<uint32_t> s;
        for (uint32_t g = 0; g < universe; ++g)
            if (rng.uniform() < density)
                s.push_back(g);
        wl.sets.push_back(std::move(s));
        wl.camera_centers.push_back(
            rng.uniformInBox({0, 0, 0}, {10, 10, 10}));
    }
    wl.n_synthetic = universe;
    wl.n_target = universe * n_target_scale;
    wl.pixels_per_view = 1920.0 * 1080.0;
    return wl;
}

int
countOps(const BatchPlan &plan, OpKind kind)
{
    int n = 0;
    for (const auto &op : plan.ops)
        if (op.kind == kind)
            ++n;
    return n;
}

TEST(Planner, SystemNames)
{
    EXPECT_STREQ(systemName(SystemKind::Clm), "CLM");
    EXPECT_STREQ(systemName(SystemKind::NaiveOffload),
                 "Naive Offloading");
}

class PlannerSystemsTest : public ::testing::TestWithParam<SystemKind>
{
};

TEST_P(PlannerSystemsTest, PlanIsValidDag)
{
    PlannerConfig cfg;
    cfg.system = GetParam();
    BatchWorkload wl = makeWorkload(6, 400, 0.2, 1);
    BatchPlanResult r = planBatch(cfg, wl);
    r.plan.validate();    // panics on violation
    EXPECT_EQ(r.plan.batch_size, 6);
    // One forward and one backward per view for every system.
    EXPECT_EQ(countOps(r.plan, OpKind::Forward), 6);
    EXPECT_EQ(countOps(r.plan, OpKind::Backward), 6);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, PlannerSystemsTest,
    ::testing::Values(SystemKind::Baseline, SystemKind::EnhancedBaseline,
                      SystemKind::NaiveOffload, SystemKind::Clm));

TEST(Planner, BaselineProcessesAllGaussians)
{
    PlannerConfig cfg;
    cfg.system = SystemKind::Baseline;
    BatchWorkload wl = makeWorkload(3, 500, 0.1, 2);
    BatchPlanResult r = planBatch(cfg, wl);
    for (const auto &op : r.plan.ops) {
        if (op.kind == OpKind::Forward) {
            EXPECT_DOUBLE_EQ(op.gaussians, 500.0);    // no pre-cull
        }
    }
    EXPECT_EQ(countOps(r.plan, OpKind::Cull), 0);
    EXPECT_DOUBLE_EQ(r.plan.h2dBytes(), 0.0);
    EXPECT_DOUBLE_EQ(r.plan.d2hBytes(), 0.0);
}

TEST(Planner, EnhancedBaselineProcessesInFrustumOnly)
{
    PlannerConfig cfg;
    cfg.system = SystemKind::EnhancedBaseline;
    BatchWorkload wl = makeWorkload(3, 500, 0.1, 3);
    BatchPlanResult r = planBatch(cfg, wl);
    EXPECT_EQ(countOps(r.plan, OpKind::Cull), 1);
    int f = 0;
    for (const auto &op : r.plan.ops) {
        if (op.kind == OpKind::Forward) {
            EXPECT_DOUBLE_EQ(op.gaussians,
                             static_cast<double>(wl.sets[f++].size()));
        }
    }
}

TEST(Planner, NaiveMovesAllParametersBothWays)
{
    PlannerConfig cfg;
    cfg.system = SystemKind::NaiveOffload;
    BatchWorkload wl = makeWorkload(4, 300, 0.2, 4);
    BatchPlanResult r = planBatch(cfg, wl);
    // The Figure 3 pattern: one bulk load, one bulk store, one CPU Adam.
    EXPECT_EQ(countOps(r.plan, OpKind::LoadAll), 1);
    EXPECT_EQ(countOps(r.plan, OpKind::StoreAll), 1);
    EXPECT_EQ(countOps(r.plan, OpKind::CpuAdam), 1);
    EXPECT_DOUBLE_EQ(r.plan.h2dBytes(),
                     300.0 * kParamBytesPerGaussian);
    EXPECT_DOUBLE_EQ(r.plan.d2hBytes(),
                     300.0 * kParamBytesPerGaussian);
}

TEST(Planner, ClmLoadsMatchCachePlan)
{
    PlannerConfig cfg;
    cfg.system = SystemKind::Clm;
    BatchWorkload wl = makeWorkload(6, 400, 0.25, 5);
    BatchPlanResult r = planBatch(cfg, wl);

    double load_bytes = 0;
    for (const auto &op : r.plan.ops)
        if (op.kind == OpKind::LoadParams)
            load_bytes += op.h2d_bytes;
    EXPECT_NEAR(load_bytes, static_cast<double>(r.cache.paramLoadBytes()),
                1.0);

    double store_bytes = 0;
    for (const auto &op : r.plan.ops)
        if (op.kind == OpKind::StoreGrads)
            store_bytes += op.d2h_bytes;
    EXPECT_NEAR(store_bytes,
                static_cast<double>(r.cache.gradStoreBytes()), 1.0);
}

TEST(Planner, ClmScalesToTargetModelSize)
{
    PlannerConfig cfg;
    cfg.system = SystemKind::Clm;
    BatchWorkload small = makeWorkload(4, 400, 0.25, 6, 1.0);
    BatchWorkload big = makeWorkload(4, 400, 0.25, 6, 1000.0);
    BatchPlanResult rs = planBatch(cfg, small);
    BatchPlanResult rb = planBatch(cfg, big);
    EXPECT_NEAR(rb.paramLoadBytesScaled(),
                1000.0 * rs.paramLoadBytesScaled(), 1e-3);
    EXPECT_DOUBLE_EQ(rb.scale, 1000.0);
}

TEST(Planner, Clm1F1BCommStreamInterleaving)
{
    // On the communication stream, microbatch i+1's LoadParams must be
    // enqueued before microbatch i's StoreGrads (prefetching, Figure 6).
    PlannerConfig cfg;
    cfg.system = SystemKind::Clm;
    BatchWorkload wl = makeWorkload(5, 400, 0.3, 7);
    BatchPlanResult r = planBatch(cfg, wl);

    std::vector<std::pair<OpKind, int>> comm_seq;
    for (const auto &op : r.plan.ops)
        if (op.engine == EngineId::CommStream
            && (op.kind == OpKind::LoadParams
                || op.kind == OpKind::StoreGrads))
            comm_seq.emplace_back(op.kind, op.microbatch);

    for (size_t a = 0; a < comm_seq.size(); ++a) {
        for (size_t b = a + 1; b < comm_seq.size(); ++b) {
            if (comm_seq[a].first == OpKind::StoreGrads
                && comm_seq[b].first == OpKind::LoadParams) {
                // A store enqueued before a load implies the store's
                // microbatch is at least two behind (1F1B).
                EXPECT_LT(comm_seq[a].second, comm_seq[b].second);
            }
        }
    }
    // Load for microbatch 1 precedes store for microbatch 0.
    auto find_pos = [&](OpKind k, int mb) {
        for (size_t i = 0; i < comm_seq.size(); ++i)
            if (comm_seq[i] == std::make_pair(k, mb))
                return static_cast<int>(i);
        return -1;
    };
    EXPECT_LT(find_pos(OpKind::LoadParams, 1),
              find_pos(OpKind::StoreGrads, 0));
}

TEST(Planner, ClmComputeStreamIsFwdBwdAlternating)
{
    PlannerConfig cfg;
    cfg.system = SystemKind::Clm;
    BatchWorkload wl = makeWorkload(4, 300, 0.3, 8);
    BatchPlanResult r = planBatch(cfg, wl);
    std::vector<std::pair<OpKind, int>> seq;
    for (const auto &op : r.plan.ops)
        if (op.engine == EngineId::ComputeStream
            && (op.kind == OpKind::Forward
                || op.kind == OpKind::Backward))
            seq.emplace_back(op.kind, op.microbatch);
    ASSERT_EQ(seq.size(), 8u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(seq[2 * i].first, OpKind::Forward);
        EXPECT_EQ(seq[2 * i].second, i);
        EXPECT_EQ(seq[2 * i + 1].first, OpKind::Backward);
        EXPECT_EQ(seq[2 * i + 1].second, i);
    }
}

TEST(Planner, ClmOverlapAdamEmitsPerMicrobatchUpdates)
{
    PlannerConfig cfg;
    cfg.system = SystemKind::Clm;
    cfg.overlap_adam = true;
    BatchWorkload wl = makeWorkload(6, 400, 0.3, 9);
    BatchPlanResult with = planBatch(cfg, wl);
    cfg.overlap_adam = false;
    BatchPlanResult without = planBatch(cfg, wl);
    EXPECT_GT(countOps(with.plan, OpKind::CpuAdam), 1);
    EXPECT_EQ(countOps(without.plan, OpKind::CpuAdam), 1);
    // Total Adam work identical.
    auto total_adam = [](const BatchPlan &p) {
        double g = 0;
        for (const auto &op : p.ops)
            if (op.kind == OpKind::CpuAdam)
                g += op.gaussians;
        return g;
    };
    EXPECT_NEAR(total_adam(with.plan), total_adam(without.plan), 1e-6);
}

TEST(Planner, ClmNoCacheLoadsEverything)
{
    PlannerConfig cfg;
    cfg.system = SystemKind::Clm;
    cfg.enable_cache = false;
    BatchWorkload wl = makeWorkload(5, 400, 0.3, 10);
    BatchPlanResult r = planBatch(cfg, wl);
    size_t total = 0;
    for (const auto &s : wl.sets)
        total += s.size();
    EXPECT_DOUBLE_EQ(static_cast<double>(r.cache.paramLoadBytes()),
                     static_cast<double>(total)
                         * kNonCriticalBytesPerGaussian);
    EXPECT_EQ(r.cache.cacheHits(), 0u);
}

TEST(Planner, OrderingStrategyChangesOrder)
{
    PlannerConfig cfg;
    cfg.system = SystemKind::Clm;
    BatchWorkload wl = makeWorkload(8, 400, 0.3, 11);
    cfg.ordering = OrderingStrategy::GsCount;
    auto by_count = planBatch(cfg, wl).order;
    // GS-count order: descending set sizes.
    for (size_t i = 0; i + 1 < by_count.size(); ++i)
        EXPECT_GE(wl.sets[by_count[i]].size(),
                  wl.sets[by_count[i + 1]].size());
}

TEST(Planner, TspOrderingReducesLoadsVsRandom)
{
    // Sliding-window sets shuffled; TSP must recover the sweep and load
    // strictly less than the random order.
    Rng rng(12);
    BatchWorkload wl;
    std::vector<int> shuffled(10);
    std::iota(shuffled.begin(), shuffled.end(), 0);
    std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
    for (int v : shuffled) {
        std::vector<uint32_t> s;
        for (uint32_t g = v * 20; g < uint32_t(v * 20 + 120); ++g)
            s.push_back(g);
        wl.sets.push_back(std::move(s));
        wl.camera_centers.push_back({float(v), 0, 0});
    }
    wl.n_synthetic = 400;
    wl.n_target = 400;
    wl.pixels_per_view = 1e6;

    PlannerConfig cfg;
    cfg.system = SystemKind::Clm;
    cfg.tsp.kick_patience = 320;
    cfg.ordering = OrderingStrategy::Tsp;
    auto tsp = planBatch(cfg, wl);
    cfg.ordering = OrderingStrategy::Random;
    auto random = planBatch(cfg, wl);
    EXPECT_LT(tsp.cache.paramLoadBytes(),
              random.cache.paramLoadBytes());
}

TEST(Planner, RejectsMalformedWorkloads)
{
    PlannerConfig cfg;
    BatchWorkload empty;
    EXPECT_ANY_THROW(planBatch(cfg, empty));
    BatchWorkload wl = makeWorkload(3, 100, 0.2, 13);
    wl.camera_centers.pop_back();
    EXPECT_ANY_THROW(planBatch(cfg, wl));
}

} // namespace
} // namespace clm
