/**
 * @file
 * Traveling-salesman machinery for pipeline order optimization (§4.2.3,
 * Appendix A.1). Views are nodes; the distance between two views is the
 * symmetric difference of their in-frustum Gaussian sets |S_i xor S_j|; the
 * shortest Hamiltonian *path* maximizes consecutive overlap. The solver is
 * stochastic local search: nearest-neighbour construction followed by
 * 2-opt sweeps and 3-opt (double-bridge) perturbations under a kick
 * budget. It reads no clock, so a seed gives one tour on every host.
 */

#ifndef CLM_SCHED_TSP_HPP
#define CLM_SCHED_TSP_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace clm {

/** Dense symmetric distance matrix. */
class DistanceMatrix
{
  public:
    /** An n x n matrix initialized to zero. */
    explicit DistanceMatrix(size_t n);

    size_t size() const { return n_; }

    double at(size_t i, size_t j) const { return d_[i * n_ + j]; }

    /** Set d(i,j) and d(j,i). */
    void set(size_t i, size_t j, double v);

    /**
     * Verify metric-TSP preconditions (symmetry, zero diagonal,
     * non-negativity, triangle inequality); returns false on violation.
     * The symmetric-difference metric always satisfies these (A.1).
     */
    bool isMetric(double tolerance = 1e-9) const;

  private:
    size_t n_;
    std::vector<double> d_;
};

/** Solver knobs. */
struct TspConfig
{
    /**
     * Search budget: the search stops once this many double-bridge
     * kicks in a row fail to shorten the best tour. The paper bounds
     * the search by 1 ms of wall clock per batch (A.1); a kick count
     * makes the tour independent of the host's speed and load. 0 =
     * construction only: the nearest-neighbour tour, no 2-opt.
     */
    int kick_patience = 64;
    /** Enable 3-opt (double-bridge) perturbations after 2-opt converges. */
    bool use_3opt = true;
    /** Seed for the stochastic components. */
    uint64_t seed = 7;
};

/** Solver output. */
struct TspResult
{
    std::vector<int> tour;    //!< Permutation of 0..n-1 (open path).
    double length = 0.0;      //!< Sum of consecutive distances.
    int sweeps = 0;           //!< 2-opt improvement sweeps performed.
    int perturbations = 0;    //!< 3-opt perturbations attempted.
};

/** Length of an open path through @p tour. */
double tourLength(const DistanceMatrix &d, const std::vector<int> &tour);

/**
 * Solve the open-path TSP with nearest-neighbour + 2-opt/3-opt SLS.
 * Always returns a valid permutation, even on a zero budget.
 */
TspResult solveTsp(const DistanceMatrix &d, const TspConfig &config = {});

/**
 * Exact open-path solution via Held-Karp dynamic programming. Exponential;
 * intended for n <= 15 (tests and the Appendix A.1 quality bench).
 */
TspResult solveTspExact(const DistanceMatrix &d);

} // namespace clm

#endif // CLM_SCHED_TSP_HPP
