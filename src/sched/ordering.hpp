/**
 * @file
 * The four microbatch ordering strategies of Table 4: Random, Camera
 * (principal-axis sort), GS Count (descending in-frustum count), and the
 * TSP order used by CLM. Also provides the sorted-set helpers used to
 * build the symmetric-difference distance matrix.
 */

#ifndef CLM_SCHED_ORDERING_HPP
#define CLM_SCHED_ORDERING_HPP

#include <cstdint>
#include <vector>

#include "math/vec.hpp"
#include "sched/tsp.hpp"

namespace clm {

/** The ordering strategies compared in the paper's ablation (Table 4). */
enum class OrderingStrategy
{
    Random,     //!< Uniformly shuffled views (the default baseline).
    Camera,     //!< Sorted by camera center along the principal axis.
    GsCount,    //!< Sorted descending by |S_i| (finalize more, earlier).
    Tsp,        //!< CLM's overlap-maximizing TSP order (§4.2.3).
};

/** Human-readable strategy name, as used in the paper's tables. */
const char *orderingName(OrderingStrategy s);

/** All four strategies in the paper's presentation order. */
std::vector<OrderingStrategy> allOrderingStrategies();

/** |a intersect b| for ascending-sorted index sets. */
size_t intersectionSize(const std::vector<uint32_t> &a,
                        const std::vector<uint32_t> &b);

/** |a xor b| (symmetric difference) for ascending-sorted index sets. */
size_t symmetricDifferenceSize(const std::vector<uint32_t> &a,
                               const std::vector<uint32_t> &b);

/**
 * Build the TSP distance matrix d(i,j) = |S_i xor S_j| from the per-view
 * in-frustum sets (each ascending and duplicate-free, the frustumCull
 * contract). Counts every pairwise intersection in one pass over
 * per-Gaussian view bitmasks, O(sum |S_i|) plus one step per shared
 * (Gaussian, view pair); the distances equal symmetricDifferenceSize()
 * of every pair exactly.
 */
DistanceMatrix buildOverlapDistanceMatrix(
    const std::vector<std::vector<uint32_t>> &sets);

/** Inputs an ordering strategy may need. */
struct OrderingInputs
{
    /** Per-view in-frustum sets, ascending-sorted (GS count, TSP). */
    const std::vector<std::vector<uint32_t>> *sets = nullptr;
    /** Per-view camera centers (camera order). */
    const std::vector<Vec3> *camera_centers = nullptr;
    /** Randomness for the Random strategy / TSP restarts. */
    uint64_t seed = 1;
    /** TSP budget (CLM uses 1 ms). */
    TspConfig tsp;
};

/**
 * Compute the processing order for the views of one batch.
 *
 * @return A permutation of 0..n-1 (n = number of views in the batch).
 */
std::vector<int> orderViews(OrderingStrategy strategy, size_t n_views,
                            const OrderingInputs &inputs);

} // namespace clm

#endif // CLM_SCHED_ORDERING_HPP
