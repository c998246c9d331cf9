/**
 * @file
 * Extension bench (§8 future work): BVH-accelerated frustum culling vs
 * the linear sweep, next to the cull that serving and training actually
 * run — frustumCullBatch over batches of four views with its per-Gaussian
 * stage cached (the state between two snapshot publishes), once on one
 * thread and once on the global pool as serving runs it. Reports
 * wall-clock per view, the BVH's build and refit cost, exact-test counts
 * and verifies identical selections across the five scenes —
 * quantifying when the paper's proposed spatial data structure starts
 * to pay, and whether it pays against the cull the hot paths use.
 */

#include <algorithm>
#include <iostream>

#include "common.hpp"
#include "render/batch.hpp"
#include "render/bvh.hpp"
#include "render/culling.hpp"

using namespace clm;
using namespace clm::bench;

/** ms per view of the serving/training cull: frustumCullBatch over
 *  batches of four views with the shared SoA stage cached. One untimed
 *  call fills the cache, as the first batch after a snapshot publish
 *  does. */
double
cachedBatchMs(const GaussianModel &m, const std::vector<Camera> &cams,
              bool parallel, std::vector<std::vector<uint32_t>> &sets)
{
    constexpr size_t kBatch = 4;
    BatchCullScratch scratch;
    std::vector<std::vector<uint32_t>> subsets;
    frustumCullBatch(m, cams, scratch, subsets, parallel, 1);
    Timer timer;
    for (size_t b = 0; b < cams.size(); b += kBatch) {
        const std::vector<Camera> views(
            cams.begin() + b,
            cams.begin() + std::min(b + kBatch, cams.size()));
        frustumCullBatch(m, views, scratch, subsets, parallel, 1);
        sets.insert(sets.end(), subsets.begin(), subsets.end());
    }
    return timer.millis() / cams.size();
}

int
main()
{
    std::cout << "=== Extension: BVH-accelerated frustum culling (§8) "
                 "===\n\n";
    std::cout << bench::contextLine()
              << " (linear and BVH on one thread; cached batch on one "
                 "thread and on the pool)\n\n";
    Table t({"Scene", "Gaussians", "Linear (ms/view)", "BVH (ms/view)",
             "Batch 1T (ms/view)", "Batch pool (ms/view)",
             "BVH build/refit (ms)", "Exact tests", "Identical?"});

    for (const SceneSpec &spec : SceneSpec::all()) {
        size_t n = spec.sim.n_gaussians / 2;
        GaussianModel m = generateSceneGaussians(spec, n);
        auto cams = generateCameraPath(spec, 12, spec.sim.width,
                                       spec.sim.height);
        Timer build_timer;
        GaussianBvh bvh(m);
        const double build_ms = build_timer.millis();
        Timer refit_timer;
        bvh.refit(m);
        const double refit_ms = refit_timer.millis();

        Timer linear_timer;
        std::vector<std::vector<uint32_t>> linear_sets;
        for (const Camera &cam : cams)
            linear_sets.push_back(frustumCull(m, cam));
        double linear_ms = linear_timer.millis() / cams.size();

        Timer bvh_timer;
        std::vector<std::vector<uint32_t>> bvh_sets;
        size_t exact_tests = 0;
        for (const Camera &cam : cams) {
            bvh_sets.push_back(bvh.cull(cam));
            exact_tests += bvh.lastStats().leaf_tests;
        }
        double bvh_ms = bvh_timer.millis() / cams.size();

        std::vector<std::vector<uint32_t>> serial_sets, pool_sets;
        const double serial_ms = cachedBatchMs(m, cams, false, serial_sets);
        const double pool_ms = cachedBatchMs(m, cams, true, pool_sets);

        bool identical = linear_sets == bvh_sets
                      && linear_sets == serial_sets
                      && linear_sets == pool_sets;
        t.addRow({spec.name, std::to_string(n), Table::fmt(linear_ms, 2),
                  Table::fmt(bvh_ms, 2), Table::fmt(serial_ms, 2),
                  Table::fmt(pool_ms, 2),
                  Table::fmt(build_ms, 1) + "/" + Table::fmt(refit_ms, 1),
                  Table::fmt(100.0 * exact_tests / (cams.size() * n), 1)
                      + "%",
                  identical ? "yes" : "NO"});
    }
    t.print(std::cout);
    std::cout
        << "\nShape check: the BVH prunes almost all exact ellipsoid "
           "tests on sparse scenes (BigCity) and pays off more the "
           "sparser the scene — confirming §8's expectation that "
           "spatial structures matter once N grows while rho shrinks. "
           "The cached packed batch cull that serving and training run "
           "closes most of that gap without a tree: the BVH keeps a lead "
           "of a fraction of a millisecond per view on the sparsest "
           "scenes (smaller on the pool, where the batch cull splits "
           "while each traversal stays serial) and adds a per-publish "
           "refit and a per-densify rebuild (build/refit column).\n";
    return 0;
}
