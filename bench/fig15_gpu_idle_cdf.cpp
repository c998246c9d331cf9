/**
 * @file
 * Figure 15: CDF of the GPU idle rate (100 - SMs Active) for CLM vs
 * naive offloading across the five scenes on the RTX 4090, from the
 * simulated compute-stream timeline sampled Nsight-style — plus a
 * measured CDF built from the TransferEngine's real stage timers (each
 * microbatch's staging stall vs compute time) via sim/metrics.
 */

#include <iostream>

#include "common.hpp"
#include "math/stats.hpp"
#include "train/clm_trainer.hpp"
#include "train/naive_offload_trainer.hpp"
#include "train/quality_harness.hpp"

using namespace clm;
using namespace clm::bench;

namespace {

/** Measured idle-rate CDFs from the functional trainers. */
void
reportMeasured(Table &t)
{
    SceneSpec spec = SceneSpec::bicycle();
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
    ClmTrainer clm_t(makeTrainee(gt, 900, 5), cameras, gt_images,
                     clm_cfg);
    NaiveOffloadTrainer naive_t(makeTrainee(gt, 900, 5), cameras,
                                gt_images, cfg);
    clm_t.trainSteps(4);
    naive_t.trainSteps(4);

    auto add = [&](const char *name, const StageTimings &timings) {
        EmpiricalCdf cdf(gpuIdleSamples(timings, 2000));
        RuntimeBreakdown b = computeBreakdown(timings);
        t.addRow({"measured (func.)", name, Table::fmt(cdf.mean(), 1),
                  Table::fmt(cdf.percentile(50), 0),
                  Table::fmt(cdf.percentile(90), 0),
                  Table::fmt(100.0 * b.compute / b.total, 1)});
    };
    add(systemName(SystemKind::NaiveOffload), naive_t.stageTimings());
    add(systemName(SystemKind::Clm), clm_t.stageTimings());
}

} // namespace

int
main()
{
    std::cout << "=== Figure 15: GPU idle-rate CDFs (RTX 4090) ===\n\n";
    DeviceSpec dev = DeviceSpec::rtx4090();

    Table t({"Scene", "System", "Mean idle (%)", "P50 idle", "P90 idle",
             "Busy fraction (%)"});
    for (const SceneSpec &s : SceneSpec::all()) {
        SimWorkload w = SimWorkload::load(s);
        double n_target =
            maxTrainableGaussians(SystemKind::NaiveOffload, s, dev);
        for (SystemKind sys :
             {SystemKind::NaiveOffload, SystemKind::Clm}) {
            PlannerConfig cfg;
            cfg.system = sys;
            ThroughputResult r =
                simulateThroughput(cfg, w, n_target, dev);
            EmpiricalCdf cdf(r.idle_samples);
            t.addRow({s.name, systemName(sys),
                      Table::fmt(cdf.mean(), 1),
                      Table::fmt(cdf.percentile(50), 0),
                      Table::fmt(cdf.percentile(90), 0),
                      Table::fmt(r.utilization.sm_active, 1)});
        }
    }
    reportMeasured(t);
    t.print(std::cout);
    std::cout << "\nShape check (Figure 15): CLM's idle-rate curve "
                 "dominates naive offloading's on every scene (lower "
                 "mean idle, higher SMs-active), and high-resolution "
                 "scenes (Bicycle, Rubble) show the best utilization. "
                 "The 'measured' rows sample the TransferEngine's real "
                 "stall/compute timers; at the CPU-scale functional "
                 "profile the software rasterizer dominates, so both "
                 "systems sit near zero idle — the paper-scale contrast "
                 "comes from the simulated rows above.\n";
    return 0;
}
