#include "sched/tsp.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>

#include "util/logging.hpp"

namespace clm {

DistanceMatrix::DistanceMatrix(size_t n) : n_(n), d_(n * n, 0.0) {}

void
DistanceMatrix::set(size_t i, size_t j, double v)
{
    CLM_ASSERT(i < n_ && j < n_, "distance index out of range");
    d_[i * n_ + j] = v;
    d_[j * n_ + i] = v;
}

bool
DistanceMatrix::isMetric(double tol) const
{
    for (size_t i = 0; i < n_; ++i) {
        if (std::abs(at(i, i)) > tol)
            return false;
        for (size_t j = 0; j < n_; ++j) {
            if (at(i, j) < -tol)
                return false;
            if (std::abs(at(i, j) - at(j, i)) > tol)
                return false;
        }
    }
    for (size_t i = 0; i < n_; ++i)
        for (size_t j = 0; j < n_; ++j)
            for (size_t k = 0; k < n_; ++k)
                if (at(i, j) > at(i, k) + at(k, j) + tol)
                    return false;
    return true;
}

double
tourLength(const DistanceMatrix &d, const std::vector<int> &tour)
{
    double len = 0.0;
    for (size_t i = 0; i + 1 < tour.size(); ++i)
        len += d.at(tour[i], tour[i + 1]);
    return len;
}

namespace {

/** Greedy nearest-neighbour construction from a random start (A.1). */
std::vector<int>
nearestNeighbourTour(const DistanceMatrix &d, std::mt19937_64 &rng)
{
    size_t n = d.size();
    std::vector<int> tour;
    tour.reserve(n);
    std::vector<bool> used(n, false);
    int cur = static_cast<int>(
        std::uniform_int_distribution<size_t>(0, n - 1)(rng));
    tour.push_back(cur);
    used[cur] = true;
    for (size_t step = 1; step < n; ++step) {
        int best = -1;
        double best_d = std::numeric_limits<double>::max();
        for (size_t j = 0; j < n; ++j) {
            if (!used[j] && d.at(cur, j) < best_d) {
                best_d = d.at(cur, j);
                best = static_cast<int>(j);
            }
        }
        tour.push_back(best);
        used[best] = true;
        cur = best;
    }
    return tour;
}

/**
 * One full 2-opt sweep on an open path: reverse tour[i..j] when it
 * shortens the two boundary edges. Returns true if any move improved.
 */
bool
twoOptSweep(const DistanceMatrix &d, std::vector<int> &tour)
{
    size_t n = tour.size();
    bool improved = false;
    for (size_t i = 0; i + 1 < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            // Edges removed: (i-1, i) and (j, j+1); path ends have none.
            double removed = 0.0, added = 0.0;
            if (i > 0) {
                removed += d.at(tour[i - 1], tour[i]);
                added += d.at(tour[i - 1], tour[j]);
            }
            if (j + 1 < n) {
                removed += d.at(tour[j], tour[j + 1]);
                added += d.at(tour[i], tour[j + 1]);
            }
            if (added + 1e-12 < removed) {
                std::reverse(tour.begin() + i, tour.begin() + j + 1);
                improved = true;
            }
        }
    }
    return improved;
}

/** Double-bridge 4-segment reconnection (the classic 3/4-opt kick). */
std::vector<int>
doubleBridge(const std::vector<int> &tour, std::mt19937_64 &rng)
{
    size_t n = tour.size();
    if (n < 8)
        return tour;
    std::uniform_int_distribution<size_t> dist(1, n - 3);
    size_t a = dist(rng), b = dist(rng), c = dist(rng);
    size_t cuts[3] = {a, b, c};
    std::sort(cuts, cuts + 3);
    if (cuts[0] == cuts[1] || cuts[1] == cuts[2])
        return tour;
    std::vector<int> out;
    out.reserve(n);
    out.insert(out.end(), tour.begin(), tour.begin() + cuts[0]);
    out.insert(out.end(), tour.begin() + cuts[1], tour.begin() + cuts[2]);
    out.insert(out.end(), tour.begin() + cuts[0], tour.begin() + cuts[1]);
    out.insert(out.end(), tour.begin() + cuts[2], tour.end());
    return out;
}

} // namespace

TspResult
solveTsp(const DistanceMatrix &d, const TspConfig &config)
{
    TspResult result;
    size_t n = d.size();
    if (n == 0)
        return result;
    if (n == 1) {
        result.tour = {0};
        return result;
    }

    std::mt19937_64 rng(config.seed);

    std::vector<int> best = nearestNeighbourTour(d, rng);
    if (config.kick_patience > 0) {
        while (twoOptSweep(d, best))
            ++result.sweeps;
    }
    double best_len = tourLength(d, best);

    // Stochastic local search: perturb + re-optimize until the budget
    // of consecutive non-improving kicks is spent.
    for (int stale = 0; config.use_3opt && stale < config.kick_patience;) {
        std::vector<int> cand = doubleBridge(best, rng);
        while (twoOptSweep(d, cand))
            ++result.sweeps;
        ++result.perturbations;
        double cand_len = tourLength(d, cand);
        if (cand_len + 1e-12 < best_len) {
            best = std::move(cand);
            best_len = cand_len;
            stale = 0;
        } else {
            ++stale;
        }
    }

    result.tour = std::move(best);
    result.length = best_len;
    return result;
}

TspResult
solveTspExact(const DistanceMatrix &d)
{
    size_t n = d.size();
    CLM_ASSERT(n >= 1 && n <= 20, "exact solver limited to small n");
    TspResult result;
    if (n == 1) {
        result.tour = {0};
        return result;
    }

    const size_t full = (size_t(1) << n) - 1;
    constexpr double inf = std::numeric_limits<double>::max() / 4;
    // dp[mask][j]: shortest path covering `mask`, ending at j.
    std::vector<double> dp((full + 1) * n, inf);
    std::vector<int> parent((full + 1) * n, -1);
    for (size_t j = 0; j < n; ++j)
        dp[(size_t(1) << j) * n + j] = 0.0;

    for (size_t mask = 1; mask <= full; ++mask) {
        for (size_t j = 0; j < n; ++j) {
            if (!(mask & (size_t(1) << j)))
                continue;
            double cur = dp[mask * n + j];
            if (cur >= inf)
                continue;
            for (size_t k = 0; k < n; ++k) {
                if (mask & (size_t(1) << k))
                    continue;
                size_t nmask = mask | (size_t(1) << k);
                double cand = cur + d.at(j, k);
                if (cand < dp[nmask * n + k]) {
                    dp[nmask * n + k] = cand;
                    parent[nmask * n + k] = static_cast<int>(j);
                }
            }
        }
    }

    size_t end = 0;
    double best = inf;
    for (size_t j = 0; j < n; ++j) {
        if (dp[full * n + j] < best) {
            best = dp[full * n + j];
            end = j;
        }
    }
    // Reconstruct.
    std::vector<int> tour;
    size_t mask = full;
    int cur = static_cast<int>(end);
    while (cur >= 0) {
        tour.push_back(cur);
        int p = parent[mask * n + cur];
        mask &= ~(size_t(1) << cur);
        cur = p;
    }
    std::reverse(tour.begin(), tour.end());
    result.tour = std::move(tour);
    result.length = best;
    return result;
}

} // namespace clm
