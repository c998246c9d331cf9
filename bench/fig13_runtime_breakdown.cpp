/**
 * @file
 * Figure 13: per-batch runtime decomposition for Rubble and BigCity on
 * the RTX 4090, CLM vs naive offloading, normalized to the naive total.
 * Naive decomposes into communication / computation / non-overlapped CPU
 * Adam; CLM into scheduling / overlapped pipeline / non-overlapped Adam.
 *
 * Two sources back the figure: the calibrated event simulator at paper
 * scale, and *measured* stage timers — the TransferEngine stamps every
 * gather / cached copy / compute / scatter / finalize while the
 * functional trainers run, and sim/metrics decomposes the record with
 * the same rules, so no stage time is recomputed by the bench.
 */

#include <iostream>

#include "common.hpp"
#include "train/clm_trainer.hpp"
#include "train/naive_offload_trainer.hpp"
#include "train/quality_harness.hpp"

using namespace clm;
using namespace clm::bench;

namespace {

void
report(const SceneSpec &scene)
{
    DeviceSpec dev = DeviceSpec::rtx4090();
    SimWorkload w = SimWorkload::load(scene);
    double n_target =
        maxTrainableGaussians(SystemKind::NaiveOffload, scene, dev);

    PlannerConfig naive_cfg;
    naive_cfg.system = SystemKind::NaiveOffload;
    PlannerConfig clm_cfg;
    clm_cfg.system = SystemKind::Clm;
    ThroughputResult rn = simulateThroughput(naive_cfg, w, n_target, dev);
    ThroughputResult rc = simulateThroughput(clm_cfg, w, n_target, dev);

    double norm = rn.mean_batch_seconds;
    std::cout << "--- " << scene.name << " at " << fmtMillions(n_target)
              << "M Gaussians (times normalized to naive total = 1.00) "
                 "---\n";
    Table t({"System", "Total", "Compute", "Communication",
             "Scheduling", "Non-overlapped CPU Adam"});
    auto add = [&](const char *name, const ThroughputResult &r,
                   bool pipelined) {
        const RuntimeBreakdown &b = r.breakdown;
        t.addRow({name, Table::fmt(r.mean_batch_seconds / norm, 2),
                  Table::fmt(b.compute / norm, 2),
                  pipelined
                      ? Table::fmt(b.communication / norm, 2)
                            + " (overlapped)"
                      : Table::fmt(b.communication / norm, 2),
                  Table::fmt(b.scheduling / norm, 3),
                  Table::fmt(b.trailing_adam / norm, 2)});
    };
    add("Naive Offloading", rn, false);
    add("CLM", rc, true);
    t.print(std::cout);
    std::cout << "\n";
}

/** Measured decomposition from the functional trainers' stage timers.
 *  @return CLM's scheduling time as a share of the naive total. */
double
reportMeasured()
{
    SceneSpec spec = SceneSpec::rubble();
    spec.train = {1200, 8, 48, 48};
    GaussianModel gt = generateGroundTruth(spec, 1200);
    std::vector<Camera> cameras = trainCameras(spec);
    TrainConfig cfg;
    cfg.batch_size = 4;
    cfg.render.sh_degree = 1;
    cfg.loss.ssim_window = 5;
    cfg.planner.tsp.kick_patience = 32;
    std::vector<Image> gt_images =
        renderGroundTruth(gt, cameras, cfg.render);

    // CLM runs the full pipeline including the dedicated Adam thread
    // (§5.4); naive keeps Figure 3's synchronous, non-overlapped Adam.
    TrainConfig clm_cfg = cfg;
    clm_cfg.async_adam = true;
    ClmTrainer clm_t(makeTrainee(gt, 900, 3), cameras, gt_images,
                     clm_cfg);
    NaiveOffloadTrainer naive_t(makeTrainee(gt, 900, 3), cameras,
                                gt_images, cfg);
    clm_t.trainSteps(4);
    naive_t.trainSteps(4);

    RuntimeBreakdown bn = computeBreakdown(naive_t.stageTimings());
    RuntimeBreakdown bc = computeBreakdown(clm_t.stageTimings());
    double norm = bn.total;

    std::cout << "--- Measured (functional trainers, CPU-scale profile; "
                 "stage timers from the TransferEngine,\n    normalized "
                 "to naive total = 1.00) ---\n";
    Table t({"System", "Total", "Compute", "Communication", "Scheduling",
             "Overlapped Adam", "Non-overlapped CPU Adam"});
    auto add = [&](const char *name, const RuntimeBreakdown &b,
                   bool pipelined) {
        t.addRow({name, Table::fmt(b.total / norm, 2),
                  Table::fmt(b.compute / norm, 2),
                  pipelined ? Table::fmt(b.communication / norm, 2)
                                  + " (overlapped)"
                            : Table::fmt(b.communication / norm, 2),
                  Table::fmt(b.scheduling / norm, 3),
                  Table::fmt(b.overlapped_adam / norm, 3),
                  Table::fmt(b.trailing_adam / norm, 3)});
    };
    add("Naive Offloading", bn, false);
    add("CLM", bc, true);
    t.print(std::cout);
    std::cout << "\n";
    return bc.scheduling / norm;
}

} // namespace

int
main()
{
    std::cout << "=== Figure 13: runtime decomposition (RTX 4090) "
                 "===\n\n";
    report(SceneSpec::rubble());
    report(SceneSpec::bigCity());
    const double measured_scheduling = reportMeasured();
    std::cout
        << "Shape check (simulated tables): naive spends >50% of the "
           "batch on communication + CPU Adam; CLM's total approaches "
           "its compute time (communication hidden), and its scheduling "
           "cost is marginal.\n"
        << "Measured table (CPU-scale profile, not held to that "
           "shape): CLM Scheduling = "
        << Table::fmt(measured_scheduling, 3) << " of the naive total.\n";
    return 0;
}
