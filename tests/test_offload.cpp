/**
 * @file
 * Offload-core tests: the cache planner's conservation invariants, the
 * finalization schedule (§4.2.2), the pinned pool layout (§5.2), the
 * selective copy kernels' round-trip/accumulation semantics (§5.3) and
 * the TransferEngine's staging/scatter behaviour with up to W
 * microbatches in flight over its buffer ring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <map>
#include <numeric>
#include <set>

#include "gaussian/model.hpp"
#include "math/rng.hpp"
#include "offload/cache_planner.hpp"
#include "offload/finalization.hpp"
#include "offload/frustum_sets.hpp"
#include "offload/pinned_pool.hpp"
#include "offload/selective_copy.hpp"
#include "offload/transfer_engine.hpp"
#include "util/thread_pool.hpp"

namespace clm {
namespace {

std::vector<std::vector<uint32_t>>
randomSets(size_t n_views, uint32_t universe, double density,
           uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<uint32_t>> sets(n_views);
    for (auto &s : sets)
        for (uint32_t g = 0; g < universe; ++g)
            if (rng.uniform() < density)
                s.push_back(g);
    return sets;
}

std::vector<uint32_t>
merge(const std::vector<uint32_t> &a, const std::vector<uint32_t> &b)
{
    std::vector<uint32_t> u = a;
    u.insert(u.end(), b.begin(), b.end());
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
    return u;
}

/** Property suite over random batch shapes. */
class CachePlanProperty
    : public ::testing::TestWithParam<std::tuple<int, double, uint64_t>>
{
};

TEST_P(CachePlanProperty, ConservationInvariants)
{
    auto [views, density, seed] = GetParam();
    auto sets = randomSets(views, 500, density, seed);
    CachePlan plan = planCache(sets, true);
    ASSERT_EQ(plan.mb.size(), sets.size());

    for (size_t i = 0; i < sets.size(); ++i) {
        const MicrobatchTransfers &t = plan.mb[i];
        // (1) load_new and copy_cached partition S_i.
        EXPECT_EQ(merge(t.load_new, t.copy_cached), sets[i]) << i;
        std::vector<uint32_t> inter;
        std::set_intersection(t.load_new.begin(), t.load_new.end(),
                              t.copy_cached.begin(), t.copy_cached.end(),
                              std::back_inserter(inter));
        EXPECT_TRUE(inter.empty());
        // (2) cached rows must exist in the previous microbatch.
        if (i == 0) {
            EXPECT_TRUE(t.copy_cached.empty());
        } else {
            EXPECT_TRUE(std::includes(sets[i - 1].begin(),
                                      sets[i - 1].end(),
                                      t.copy_cached.begin(),
                                      t.copy_cached.end()));
        }
        // (3) store_grads and carry_grads partition S_i.
        EXPECT_EQ(merge(t.store_grads, t.carry_grads), sets[i]);
        // (4) carried rows must be in the next microbatch.
        if (i + 1 == sets.size()) {
            EXPECT_TRUE(t.carry_grads.empty());
        } else {
            EXPECT_TRUE(std::includes(sets[i + 1].begin(),
                                      sets[i + 1].end(),
                                      t.carry_grads.begin(),
                                      t.carry_grads.end()));
        }
    }
    // (5) every Gaussian's gradient reaches the CPU exactly as many
    // times as it leaves the working set == store events reconstruct
    // the full touched multiset.
    EXPECT_EQ(plan.totalLoads(),
              std::accumulate(sets.begin(), sets.end(), size_t{0},
                              [](size_t acc, const auto &s) {
                                  return acc + s.size();
                              }));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CachePlanProperty,
    ::testing::Combine(::testing::Values(1, 2, 5, 12),
                       ::testing::Values(0.05, 0.3, 0.8),
                       ::testing::Values(1u, 2u, 3u)));

TEST(CachePlan, NoCacheDisablesEverything)
{
    auto sets = randomSets(6, 200, 0.4, 4);
    CachePlan plan = planCache(sets, false);
    for (size_t i = 0; i < sets.size(); ++i) {
        EXPECT_EQ(plan.mb[i].load_new, sets[i]);
        EXPECT_TRUE(plan.mb[i].copy_cached.empty());
        EXPECT_EQ(plan.mb[i].store_grads, sets[i]);
        EXPECT_TRUE(plan.mb[i].carry_grads.empty());
    }
    EXPECT_EQ(plan.cacheHits(), 0u);
}

TEST(CachePlan, CachingReducesLoadBytes)
{
    // Overlapping consecutive sets: the cache must cut PCIe loads.
    std::vector<std::vector<uint32_t>> sets;
    for (uint32_t v = 0; v < 8; ++v) {
        std::vector<uint32_t> s;
        for (uint32_t g = v * 5; g < v * 5 + 40; ++g)
            s.push_back(g);
        sets.push_back(std::move(s));
    }
    CachePlan with = planCache(sets, true);
    CachePlan without = planCache(sets, false);
    EXPECT_LT(with.paramLoadBytes(), without.paramLoadBytes());
    EXPECT_GT(with.cacheHits(), 0u);
    EXPECT_LT(with.gradStoreBytes(), without.gradStoreBytes());
}

TEST(CachePlan, ByteAccounting)
{
    std::vector<std::vector<uint32_t>> sets{{0, 1, 2}, {2, 3}};
    CachePlan plan = planCache(sets, true);
    // Loads: 3 new + 1 new (gaussian 2 cached).
    EXPECT_EQ(plan.paramLoadBytes(),
              4u * kNonCriticalBytesPerGaussian);
    EXPECT_EQ(plan.cacheCopyBytes(), 1u * kNonCriticalBytesPerGaussian);
    // Stores: mb0 flushes {0,1} (2 carried to mb1), mb1 flushes {2,3}.
    EXPECT_EQ(plan.gradStoreBytes(), 4u * kGradBytesPerGaussian);
    EXPECT_EQ(plan.gradFetchBytes(), plan.gradStoreBytes());
}

TEST(Finalization, LastTouchComputedCorrectly)
{
    std::vector<std::vector<uint32_t>> sets{
        {0, 1, 2}, {1, 3}, {1, 4}};
    FinalizationSchedule f = computeFinalization(6, sets, true);
    ASSERT_EQ(f.finalized_after.size(), 4u);
    EXPECT_EQ(f.finalized_after[0], (std::vector<uint32_t>{5}));
    EXPECT_EQ(f.finalized_after[1], (std::vector<uint32_t>{0, 2}));
    EXPECT_EQ(f.finalized_after[2], (std::vector<uint32_t>{3}));
    EXPECT_EQ(f.finalized_after[3], (std::vector<uint32_t>{1, 4}));
    EXPECT_EQ(f.touched(), 5u);
    EXPECT_EQ(f.overlappableUpdates(), 3u);
    EXPECT_EQ(f.trailingUpdates(), 2u);
}

TEST(Finalization, SafetyProperty)
{
    // A Gaussian may never be finalized before a microbatch that still
    // touches it (the §4.2.2 safety property).
    auto sets = randomSets(8, 300, 0.25, 5);
    FinalizationSchedule f = computeFinalization(300, sets, false);
    for (size_t j = 0; j < f.finalized_after.size(); ++j) {
        for (uint32_t g : f.finalized_after[j]) {
            for (size_t later = j; later < sets.size(); ++later) {
                // Microbatch indices are 1-based in the schedule:
                // ordered_sets[later] is microbatch later+1 > j.
                EXPECT_FALSE(std::binary_search(sets[later].begin(),
                                                sets[later].end(), g))
                    << "g=" << g << " finalized at " << j
                    << " but touched by microbatch " << later + 1;
            }
        }
    }
}

TEST(Finalization, PartitionsTouchedSet)
{
    auto sets = randomSets(6, 200, 0.3, 6);
    FinalizationSchedule f = computeFinalization(200, sets, true);
    // Union of all F_j (j>=1) == union of sets; F_0 is the complement.
    std::vector<uint32_t> all_f;
    for (size_t j = 1; j < f.finalized_after.size(); ++j)
        all_f.insert(all_f.end(), f.finalized_after[j].begin(),
                     f.finalized_after[j].end());
    std::sort(all_f.begin(), all_f.end());
    std::vector<uint32_t> expected;
    for (const auto &s : sets)
        expected = merge(expected, s);
    EXPECT_EQ(all_f, expected);
    EXPECT_EQ(f.finalized_after[0].size(), 200u - expected.size());
}

TEST(Finalization, MatchesOrderedMapReference)
{
    // The dense last-touch pass against a std::map reference, over
    // random batches (some views repeated, some sets empty) and both
    // F_0 modes — twice each, since the pass reuses its stamps.
    Rng rng(7);
    for (int trial = 0; trial < 40; ++trial) {
        const uint32_t n = 1 + static_cast<uint32_t>(rng.uniformInt(0, 400));
        const size_t views = static_cast<size_t>(rng.uniformInt(0, 9));
        auto sets = randomSets(views, n, rng.uniform() * 0.5,
                               100 + static_cast<uint64_t>(trial));
        if (views > 2)
            sets[views - 1] = sets[0];    // a repeated view
        std::map<uint32_t, uint32_t> last;
        for (size_t i = 0; i < sets.size(); ++i)
            for (uint32_t g : sets[i])
                last[g] = static_cast<uint32_t>(i + 1);
        std::vector<std::vector<uint32_t>> expect(views + 1);
        for (const auto &[g, l] : last)
            expect[l].push_back(g);
        std::vector<uint32_t> untouched;
        for (uint32_t g = 0; g < n; ++g)
            if (!last.count(g))
                untouched.push_back(g);
        for (bool include_untouched : {false, true, false}) {
            expect[0] = include_untouched ? untouched
                                          : std::vector<uint32_t>{};
            FinalizationSchedule f =
                computeFinalization(n, sets, include_untouched);
            EXPECT_EQ(f.finalized_after, expect)
                << "trial " << trial << " n=" << n << " views=" << views;
        }
    }
    // An out-of-range index throws and leaves no stamp behind.
    EXPECT_THROW(computeFinalization(4, {{2, 9}}, false), std::logic_error);
    FinalizationSchedule f = computeFinalization(10, {{1}}, true);
    EXPECT_EQ(f.finalized_after[0],
              (std::vector<uint32_t>{0, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(PinnedPool, LayoutAndAlignment)
{
    PinnedPool pool(100);
    EXPECT_EQ(pool.size(), 100u);
    EXPECT_EQ(PinnedLayout::paramStride(), 256u);
    EXPECT_EQ(PinnedLayout::gradStride(), 256u);    // 236 -> 256
    // Gradient records and signal slots only: parameters stay in the
    // master model.
    EXPECT_EQ(pool.bytes(), 100 * PinnedLayout::gradStride()
                                + kSignalSlots * kCacheLineBytes);
    // Every record cache-line aligned (§5.2).
    for (size_t i : {0u, 1u, 57u, 99u}) {
        EXPECT_EQ(reinterpret_cast<uintptr_t>(pool.gradRecord(i))
                      % kCacheLineBytes,
                  0u);
    }
    // Signal slots distinct cache lines (§5.4).
    EXPECT_NE(pool.signalSlot(0), pool.signalSlot(1));
    EXPECT_GE(reinterpret_cast<uintptr_t>(pool.signalSlot(1))
                  - reinterpret_cast<uintptr_t>(pool.signalSlot(0)),
              kCacheLineBytes);
}

TEST(PinnedPool, FreshPoolIsZeroAboveParallelThreshold)
{
    const size_t n = 8000;
    ASSERT_GT(n * PinnedLayout::gradStride(), kParallelZeroBytes);
    // Free a dirtied pool of the same size first: a reused heap block
    // would show through a missing zeroing pass.
    {
        PinnedPool dirty(n);
        std::memset(dirty.gradRecord(0), 0xA5, dirty.bytes());
    }
    PinnedPool pool(n);
    auto all_zero = [](const void *p, size_t bytes) {
        const auto *b = static_cast<const unsigned char *>(p);
        return std::all_of(b, b + bytes,
                           [](unsigned char c) { return c == 0; });
    };
    for (size_t i = 0; i < n; ++i)
        EXPECT_TRUE(all_zero(pool.gradRecord(i), PinnedLayout::gradStride()))
            << "grad record " << i;
    for (size_t s = 0; s < kSignalSlots; ++s)
        EXPECT_TRUE(all_zero(pool.signalSlot(s), kCacheLineBytes))
            << "signal slot " << s;
}

TEST(DeviceBuffer, BindAndRowLookup)
{
    DeviceBuffer buf;
    buf.bind({2, 5, 9});
    EXPECT_EQ(buf.rows(), 3u);
    EXPECT_EQ(buf.rowOf(2), 0);
    EXPECT_EQ(buf.rowOf(9), 2);
    EXPECT_EQ(buf.rowOf(3), -1);
    EXPECT_THROW(buf.bind({3, 1}), std::logic_error);    // unsorted

    // Storage follows the bound sets: rebinding to a larger set grows
    // it, a smaller one reuses it, and every bound row stages exactly.
    Rng rng(12);
    GaussianModel m = GaussianModel::random(40, {-1, -1, -1}, {1, 1, 1},
                                            0.1f, rng);
    auto expectStaged = [&](const std::vector<uint32_t> &set) {
        buf.bind(set);
        gatherParams(m, buf, set);
        buf.zeroGrads();
        ASSERT_EQ(buf.rows(), set.size());
        for (size_t r = 0; r < set.size(); ++r) {
            EXPECT_EQ(buf.boundRow(set[r]), r);
            float expect[kNonCriticalDim];
            m.packNonCritical(set[r], expect);
            EXPECT_EQ(std::memcmp(buf.paramRow(r), expect, sizeof(expect)),
                      0)
                << "row " << r << " of " << set.size();
            for (int k = 0; k < kParamsPerGaussian; ++k)
                EXPECT_EQ(buf.gradRow(r)[k], 0.0f);
            buf.gradRow(r)[kParamsPerGaussian - 1] = 1.0f;
        }
    };
    expectStaged({2, 5, 9});
    std::vector<uint32_t> large(37);
    std::iota(large.begin(), large.end(), 3u);
    expectStaged(large);
    expectStaged({0, 39});
}

TEST(SelectiveCopy, GatherScatterRoundTrip)
{
    Rng rng(14);
    GaussianModel m = GaussianModel::random(30, {-1, -1, -1}, {1, 1, 1},
                                            0.1f, rng);
    DeviceBuffer buf;
    std::vector<uint32_t> set{3, 7, 8, 21};
    buf.bind(set);
    gatherParams(m, buf, set);
    for (size_t r = 0; r < set.size(); ++r) {
        float expect[kNonCriticalDim];
        m.packNonCritical(set[r], expect);
        for (int k = 0; k < kNonCriticalDim; ++k)
            EXPECT_FLOAT_EQ(buf.paramRow(r)[k], expect[k]);
    }
}

TEST(SelectiveCopy, CachedCopyMatchesPinnedLoad)
{
    Rng rng(15);
    GaussianModel m = GaussianModel::random(30, {-1, -1, -1}, {1, 1, 1},
                                            0.1f, rng);
    DeviceBuffer a, b;
    a.bind({1, 2, 3, 4});
    gatherParams(m, a, a.indices());
    b.bind({2, 3, 10});
    // 2 and 3 cached from a; 10 loaded from its master row.
    copyCachedParams(a, b, {2, 3});
    gatherParams(m, b, {10});
    for (uint32_t g : {2u, 3u, 10u}) {
        float expect[kNonCriticalDim];
        m.packNonCritical(g, expect);
        const float *row = b.paramRow(b.boundRow(g));
        for (int k = 0; k < kNonCriticalDim; ++k)
            EXPECT_FLOAT_EQ(row[k], expect[k]) << "g=" << g;
    }
}

TEST(SelectiveCopy, ScatterAccumulatesRmw)
{
    PinnedPool pool(5);
    DeviceBuffer buf;
    buf.bind({1, 3});
    buf.zeroGrads();
    buf.gradRow(0)[0] = 2.0f;      // gaussian 1
    buf.gradRow(1)[58] = -1.5f;    // gaussian 3, opacity slot

    scatterAccumulateGrads(buf, pool, {1, 3});
    scatterAccumulateGrads(buf, pool, {1});    // accumulate again
    EXPECT_FLOAT_EQ(pool.gradRecord(1)[0], 4.0f);
    EXPECT_FLOAT_EQ(pool.gradRecord(3)[58], -1.5f);
    EXPECT_FLOAT_EQ(pool.gradRecord(0)[0], 0.0f);
}

TEST(SelectiveCopy, CarryAccumulation)
{
    DeviceBuffer a, b;
    a.bind({2, 4});
    a.zeroGrads();
    a.gradRow(0)[5] = 1.25f;    // gaussian 2
    b.bind({2, 5});
    b.zeroGrads();
    b.gradRow(0)[5] = 0.75f;
    accumulateCarriedGrads(a, b, {2});
    EXPECT_FLOAT_EQ(b.gradRow(0)[5], 2.0f);
}

TEST(TransferEngine, GatherScatterRoundTripBitExact)
{
    Rng rng(16);
    GaussianModel m = GaussianModel::random(40, {-1, -1, -1}, {1, 1, 1},
                                            0.1f, rng);
    for (size_t i = 0; i < m.size(); ++i)
        for (int k = 0; k < kShDim; ++k)
            m.sh(i)[k] = rng.normal();

    TransferEngine engine(m);

    std::vector<uint32_t> set{1, 4, 5, 19, 33};
    CachePlan cache = planCache({set}, true);
    std::vector<float> written;
    engine.runBatch(
        {set}, std::move(cache), FinalizationSchedule{}, 1,
        [&](size_t, const DeviceBuffer &buf) {
            // Staged parameter rows are bit-exact copies of the master
            // rows.
            for (size_t r = 0; r < set.size(); ++r) {
                float expect[kNonCriticalDim];
                m.packNonCritical(set[r], expect);
                EXPECT_EQ(std::memcmp(buf.paramRow(r), expect,
                                      sizeof(expect)),
                          0)
                    << "row " << r;
            }
        },
        [&](size_t, DeviceBuffer &buf) {
            for (size_t r = 0; r < set.size(); ++r)
                for (int k = 0; k < kParamsPerGaussian; ++k) {
                    buf.gradRow(r)[k] =
                        0.25f * float(r + 1) - 0.01f * float(k);
                    written.push_back(buf.gradRow(r)[k]);
                }
        });
    // Gradient rows written on the "GPU" come back bit-exactly through
    // the RMW scatter (pool gradients start at zero).
    for (size_t r = 0; r < set.size(); ++r)
        EXPECT_EQ(std::memcmp(engine.pool().gradRecord(set[r]),
                              &written[r * kParamsPerGaussian],
                              kParamsPerGaussian * sizeof(float)),
                  0)
            << "record " << set[r];

    EXPECT_EQ(engine.counters().records_loaded, set.size());
    EXPECT_EQ(engine.counters().records_stored, set.size());
    EXPECT_EQ(engine.peakBufferRows(), set.size());
}

/**
 * Drive one batch through an engine over @p m at @p depth with a
 * deterministic fake "compute" running on its own thread (grad row r of
 * microbatch i gets i + r/100) and return the pool grads. Each compute
 * checks that its staged params match m's rows; @p max_in_flight gets
 * the most microbatches ever launched and not yet collected.
 */
std::vector<std::vector<float>>
runFakeBatch(TransferEngine &engine, const GaussianModel &m,
             const std::vector<std::vector<uint32_t>> &sets, size_t depth,
             size_t *max_in_flight = nullptr)
{
    CachePlan cache = planCache(sets, true);
    std::vector<std::future<std::vector<float>>> computes(sets.size());
    std::atomic<size_t> in_flight{0}, peak{0}, bad_rows{0};
    engine.runBatch(
        sets, std::move(cache), FinalizationSchedule{}, depth,
        [&](size_t i, const DeviceBuffer &buf) {
            peak = std::max(peak.load(), ++in_flight);
            computes[i] = std::async(std::launch::async, [&, i] {
                std::vector<float> grads;
                for (size_t r = 0; r < buf.rows(); ++r) {
                    // Staged params must match the master rows
                    // whether they came by PCIe gather or cached copy.
                    float expect[kNonCriticalDim];
                    m.packNonCritical(buf.indices()[r], expect);
                    if (std::memcmp(buf.paramRow(r), expect,
                                    sizeof(expect)) != 0)
                        ++bad_rows;
                    grads.push_back(float(i) + float(r) / 100.0f);
                }
                return grads;
            });
        },
        [&](size_t i, DeviceBuffer &buf) {
            const std::vector<float> grads = computes[i].get();
            --in_flight;
            for (size_t r = 0; r < buf.rows(); ++r)
                for (int k = 0; k < kParamsPerGaussian; ++k)
                    buf.gradRow(r)[k] += grads[r];
        });
    EXPECT_EQ(bad_rows.load(), 0u);
    if (max_in_flight)
        *max_in_flight = peak.load();
    std::vector<std::vector<float>> grads;
    for (size_t g = 0; g < m.size(); ++g)
        grads.emplace_back(engine.pool().gradRecord(g),
                           engine.pool().gradRecord(g)
                               + kParamsPerGaussian);
    return grads;
}

TEST(TransferEngine, PrefetchMatchesSynchronousStaging)
{
    Rng rng(17);
    GaussianModel m = GaussianModel::random(60, {-1, -1, -1}, {1, 1, 1},
                                            0.1f, rng);
    // Overlapping sets exercise caching, carried grads and RMW stores;
    // nine microbatches wrap every ring below depth 8.
    auto sets = randomSets(9, 60, 0.4, 18);
    sets[5] = sets[4];    // a repeated view: everything cached, carried

    TransferEngine sync_engine(m);
    auto sync_grads = runFakeBatch(sync_engine, m, sets, 1);
    for (size_t depth : {2u, 3u, 4u, 8u, 12u}) {
        TransferEngine engine(m);
        size_t in_flight = 0;
        auto grads = runFakeBatch(engine, m, sets, depth, &in_flight);
        EXPECT_EQ(in_flight, std::min(depth, sets.size()));
        for (size_t g = 0; g < 60; ++g)
            EXPECT_EQ(std::memcmp(sync_grads[g].data(), grads[g].data(),
                                  kParamsPerGaussian * sizeof(float)),
                      0)
                << "gaussian " << g << " depth " << depth;

        // Identical plans -> identical traffic counters at any depth.
        EXPECT_EQ(sync_engine.counters().records_loaded,
                  engine.counters().records_loaded);
        EXPECT_EQ(sync_engine.counters().cache_hits,
                  engine.counters().cache_hits);
        EXPECT_EQ(sync_engine.counters().records_stored,
                  engine.counters().records_stored);
    }
}

TEST(TransferEngine, FinalizationDispatchAndCounters)
{
    Rng rng(19);
    GaussianModel m = GaussianModel::random(30, {-1, -1, -1}, {1, 1, 1},
                                            0.1f, rng);
    std::vector<std::vector<uint32_t>> sets{{0, 1, 2, 3}, {2, 3, 9}};
    FinalizationSchedule fin = computeFinalization(30, sets, false);

    for (bool async : {false, true}) {
        TransferEngine engine(m, async);
        std::vector<uint32_t> finalized;
        engine.setFinalizeFn([&](const std::vector<uint32_t> &f) {
            finalized.insert(finalized.end(), f.begin(), f.end());
            return f.size();
        });
        CachePlan cache = planCache(sets, true);
        engine.runBatch(sets, std::move(cache), fin, 2,
                        [](size_t, const DeviceBuffer &) {},
                        [](size_t, DeviceBuffer &) {});
        // Every touched Gaussian finalized exactly once.
        std::sort(finalized.begin(), finalized.end());
        EXPECT_EQ(finalized,
                  (std::vector<uint32_t>{0, 1, 2, 3, 9}))
            << "async=" << async;
        EXPECT_EQ(engine.counters().finalized, 5u);
    }
}

TEST(TransferEngine, StagesMasterEditsWithoutUpload)
{
    // The master model is the one host copy: an in-place edit of its
    // SH and opacity (what CPU Adam does) reaches the next staging with
    // no upload step in between.
    Rng rng(22);
    GaussianModel m = GaussianModel::random(30, {-1, -1, -1}, {1, 1, 1},
                                            0.1f, rng);
    TransferEngine engine(m);
    const std::vector<uint32_t> set{0, 4, 11, 29};
    auto stageAndCompare = [&] {
        size_t bad_rows = 0;
        engine.runBatch(
            {set}, planCache({set}, true), FinalizationSchedule{}, 1,
            [&](size_t, const DeviceBuffer &buf) {
                for (size_t r = 0; r < set.size(); ++r) {
                    float expect[kNonCriticalDim];
                    m.packNonCritical(set[r], expect);
                    if (std::memcmp(buf.paramRow(r), expect,
                                    sizeof(expect)) != 0)
                        ++bad_rows;
                }
            },
            [](size_t, DeviceBuffer &) {});
        return bad_rows;
    };
    EXPECT_EQ(stageAndCompare(), 0u);
    for (uint32_t g : set) {
        for (int k = 0; k < kShDim; ++k)
            m.sh(g)[k] = rng.normal();
        m.rawOpacity(g) = rng.normal();
    }
    EXPECT_EQ(stageAndCompare(), 0u);
    EXPECT_EQ(engine.counters().records_loaded, set.size());
}

TEST(TransferEngine, StageTimingsAccumulate)
{
    Rng rng(20);
    GaussianModel m = GaussianModel::random(30, {-1, -1, -1}, {1, 1, 1},
                                            0.1f, rng);
    auto sets = randomSets(3, 30, 0.5, 21);
    TransferEngine engine(m);
    runFakeBatch(engine, m, sets, 2);
    const StageTimings &t = engine.timings();
    EXPECT_EQ(t.microbatches.size(), sets.size());
    EXPECT_GT(t[TrainStage::Compute], 0.0);
    EXPECT_GT(t[TrainStage::Gather], 0.0);
    EXPECT_GT(t[TrainStage::Scatter], 0.0);
    EXPECT_GT(t.batch_seconds, 0.0);
    engine.resetTimings();
    EXPECT_EQ(engine.timings().total(), 0.0);
    EXPECT_TRUE(engine.timings().microbatches.empty());
}

TEST(DeviceBuffer, BoundRowAssertsOnMiss)
{
    DeviceBuffer buf;
    buf.bind({2, 5, 9});
    EXPECT_EQ(buf.boundRow(5), 1u);
    EXPECT_THROW(buf.boundRow(3), std::logic_error);
}

TEST(FrustumSetsHelpers, UnionAndSelect)
{
    FrustumSets fs;
    fs.total_gaussians = 10;
    fs.sets = {{1, 2}, {2, 3}, {8}};
    EXPECT_EQ(fs.unionSet(), (std::vector<uint32_t>{1, 2, 3, 8}));
    auto rho = fs.sparsities();
    EXPECT_DOUBLE_EQ(rho[0], 0.2);
    FrustumSets sel = selectViews(fs, {2, 0});
    ASSERT_EQ(sel.sets.size(), 2u);
    EXPECT_EQ(sel.sets[0], (std::vector<uint32_t>{8}));
}

} // namespace
} // namespace clm
