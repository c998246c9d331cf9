#include "sched/ordering.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "math/mat.hpp"
#include "util/logging.hpp"

namespace clm {

const char *
orderingName(OrderingStrategy s)
{
    switch (s) {
      case OrderingStrategy::Random:
        return "Random Order";
      case OrderingStrategy::Camera:
        return "Camera Order";
      case OrderingStrategy::GsCount:
        return "GS Count Order";
      case OrderingStrategy::Tsp:
        return "TSP Order";
    }
    return "?";
}

std::vector<OrderingStrategy>
allOrderingStrategies()
{
    return {OrderingStrategy::Random, OrderingStrategy::Camera,
            OrderingStrategy::GsCount, OrderingStrategy::Tsp};
}

size_t
intersectionSize(const std::vector<uint32_t> &a,
                 const std::vector<uint32_t> &b)
{
    size_t i = 0, j = 0, n = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            ++i;
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            ++n;
            ++i;
            ++j;
        }
    }
    return n;
}

size_t
symmetricDifferenceSize(const std::vector<uint32_t> &a,
                        const std::vector<uint32_t> &b)
{
    return a.size() + b.size() - 2 * intersectionSize(a, b);
}

DistanceMatrix
buildOverlapDistanceMatrix(const std::vector<std::vector<uint32_t>> &sets)
{
    const size_t b = sets.size();
    const size_t words = (b + 63) / 64;
    uint32_t universe = 0;
    for (const std::vector<uint32_t> &s : sets)
        if (!s.empty())
            universe = std::max(universe, s.back() + 1);

    // Dense per-Gaussian view bitmasks (`words` words per Gaussian), all
    // zero between calls: set here, cleared again on the way out
    // (exceptions included), so a call costs O(sum |S_i|) plus one
    // count per shared (Gaussian, view pair) instead of a merge per
    // view pair.
    thread_local std::vector<uint64_t> masks;
    if (masks.size() < universe * words)
        masks.resize(universe * words);
    struct ClearMasks
    {
        const std::vector<std::vector<uint32_t>> &sets;
        size_t words;
        ~ClearMasks()
        {
            for (const auto &set : sets)
                for (uint32_t g : set)
                    std::fill_n(masks.begin() + g * words, words, 0);
        }
    } clear{sets, words};
    for (size_t i = 0; i < b; ++i) {
        const uint64_t bit = uint64_t(1) << (i % 64);
        for (uint32_t g : sets[i]) {
            uint64_t &m = masks[g * words + i / 64];
            CLM_ASSERT((m & bit) == 0, "view ", i, " lists Gaussian ", g,
                       " twice");
            m |= bit;
        }
    }

    // |S_i & S_j| for i < j: each Gaussian of S_i counts once towards
    // every later view whose bit it carries.
    std::vector<size_t> inter(b * b, 0);
    for (size_t i = 0; i < b; ++i) {
        for (uint32_t g : sets[i]) {
            const uint64_t *m = &masks[g * words];
            for (size_t w = i / 64; w < words; ++w) {
                uint64_t bits = m[w];
                if (w == i / 64)    // views j > i only
                    bits &= ~uint64_t(0) << (i % 64) << 1;
                while (bits != 0) {
                    const size_t j = w * 64 + __builtin_ctzll(bits);
                    ++inter[i * b + j];
                    bits &= bits - 1;
                }
            }
        }
    }

    DistanceMatrix d(b);
    for (size_t i = 0; i < b; ++i)
        for (size_t j = i + 1; j < b; ++j)
            d.set(i, j, static_cast<double>(sets[i].size() + sets[j].size()
                                            - 2 * inter[i * b + j]));
    return d;
}

namespace {

/** Principal axis of a point set via power iteration on the covariance. */
Vec3
principalAxis(const std::vector<Vec3> &pts)
{
    if (pts.size() < 2)
        return {1, 0, 0};
    Vec3 mean{0, 0, 0};
    for (const Vec3 &p : pts)
        mean += p;
    mean *= 1.0f / pts.size();

    Mat3 cov;
    for (const Vec3 &p : pts) {
        Vec3 d = p - mean;
        cov.m[0][0] += d.x * d.x;
        cov.m[0][1] += d.x * d.y;
        cov.m[0][2] += d.x * d.z;
        cov.m[1][1] += d.y * d.y;
        cov.m[1][2] += d.y * d.z;
        cov.m[2][2] += d.z * d.z;
    }
    cov.m[1][0] = cov.m[0][1];
    cov.m[2][0] = cov.m[0][2];
    cov.m[2][1] = cov.m[1][2];

    Vec3 v{1.0f, 0.7f, 0.3f};
    for (int it = 0; it < 32; ++it) {
        Vec3 nv = cov.mul(v);
        float n = nv.norm();
        if (n < 1e-20f)
            return {1, 0, 0};
        v = nv * (1.0f / n);
    }
    return v;
}

} // namespace

std::vector<int>
orderViews(OrderingStrategy strategy, size_t n_views,
           const OrderingInputs &inputs)
{
    std::vector<int> order(n_views);
    std::iota(order.begin(), order.end(), 0);
    if (n_views <= 1)
        return order;

    switch (strategy) {
      case OrderingStrategy::Random: {
        std::mt19937_64 rng(inputs.seed);
        std::shuffle(order.begin(), order.end(), rng);
        break;
      }
      case OrderingStrategy::Camera: {
        CLM_ASSERT(inputs.camera_centers
                       && inputs.camera_centers->size() == n_views,
                   "camera order needs camera centers");
        Vec3 axis = principalAxis(*inputs.camera_centers);
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            return (*inputs.camera_centers)[a].dot(axis)
                 < (*inputs.camera_centers)[b].dot(axis);
        });
        break;
      }
      case OrderingStrategy::GsCount: {
        CLM_ASSERT(inputs.sets && inputs.sets->size() == n_views,
                   "GS count order needs in-frustum sets");
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            return (*inputs.sets)[a].size() > (*inputs.sets)[b].size();
        });
        break;
      }
      case OrderingStrategy::Tsp: {
        CLM_ASSERT(inputs.sets && inputs.sets->size() == n_views,
                   "TSP order needs in-frustum sets");
        DistanceMatrix d = buildOverlapDistanceMatrix(*inputs.sets);
        TspConfig cfg = inputs.tsp;
        cfg.seed = inputs.seed;
        TspResult r = solveTsp(d, cfg);
        order = r.tour;
        break;
      }
    }
    return order;
}

} // namespace clm
