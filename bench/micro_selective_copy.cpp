/**
 * @file
 * Microbenchmark for the selective loading / gradient offloading kernels
 * of §5.2-§5.3 (google-benchmark): batched gather from padded pinned
 * records vs naive per-record copy calls (the cudaMemcpyAsync-per-
 * Gaussian strawman the paper rejects), plus the RMW gradient scatter
 * and the GPU-side cache copy.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <numeric>

#include "math/rng.hpp"
#include "offload/cache_planner.hpp"
#include "offload/pinned_pool.hpp"
#include "offload/selective_copy.hpp"

namespace clm {
namespace {

constexpr size_t kPoolSize = 1 << 16;

/** Sparse ascending index set covering `frac` of the pool. */
std::vector<uint32_t>
sparseIndices(double frac, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint32_t> idx;
    for (uint32_t g = 0; g < kPoolSize; ++g)
        if (rng.uniform() < frac)
            idx.push_back(g);
    return idx;
}

void
BM_GatherBatched(benchmark::State &state)
{
    PinnedPool pool(kPoolSize);
    auto idx = sparseIndices(0.05, 1);
    DeviceBuffer buf;
    buf.bind(idx);
    for (auto _ : state) {
        gatherParams(pool, buf, idx);
        benchmark::DoNotOptimize(buf.paramRow(0));
    }
    state.SetBytesProcessed(state.iterations() * idx.size()
                            * kNonCriticalBytesPerGaussian);
}
BENCHMARK(BM_GatherBatched);

void
BM_GatherPerRecordCalls(benchmark::State &state)
{
    // The strawman: one "transfer call" per Gaussian, modeled as an
    // individually dispatched copy through a volatile call boundary.
    PinnedPool pool(kPoolSize);
    auto idx = sparseIndices(0.05, 1);
    DeviceBuffer buf;
    buf.bind(idx);
    // One dispatched copy per Gaussian with a per-call row lookup —
    // the cudaMemcpyAsync-per-record pattern §5.2 rejects.
    using CopyFn = void (*)(const float *, float *);
    static volatile CopyFn copy_one = +[](const float *src, float *dst) {
        std::memcpy(dst, src, kNonCriticalDim * sizeof(float));
    };
    for (auto _ : state) {
        for (uint32_t g : idx) {
            size_t r = buf.boundRow(g);
            copy_one(pool.paramRecord(g), buf.paramRow(r));
        }
        benchmark::DoNotOptimize(buf.paramRow(0));
    }
    state.SetBytesProcessed(state.iterations() * idx.size()
                            * kNonCriticalBytesPerGaussian);
}
BENCHMARK(BM_GatherPerRecordCalls);

void
BM_ScatterAccumulateGrads(benchmark::State &state)
{
    PinnedPool pool(kPoolSize);
    auto idx = sparseIndices(0.05, 2);
    DeviceBuffer buf;
    buf.bind(idx);
    buf.zeroGrads();
    for (auto _ : state) {
        scatterAccumulateGrads(buf, pool, idx);
        benchmark::DoNotOptimize(pool.gradRecord(idx[0]));
    }
    state.SetBytesProcessed(state.iterations() * idx.size()
                            * kGradBytesPerGaussian * 2);    // RMW
}
BENCHMARK(BM_ScatterAccumulateGrads);

void
BM_CachedCopy(benchmark::State &state)
{
    PinnedPool pool(kPoolSize);
    auto idx = sparseIndices(0.05, 3);
    DeviceBuffer a, b;
    a.bind(idx);
    b.bind(idx);
    gatherParams(pool, a, idx);
    for (auto _ : state) {
        copyCachedParams(a, b, idx);
        benchmark::DoNotOptimize(b.paramRow(0));
    }
    state.SetBytesProcessed(state.iterations() * idx.size()
                            * kNonCriticalBytesPerGaussian);
}
BENCHMARK(BM_CachedCopy);

} // namespace
} // namespace clm

BENCHMARK_MAIN();
