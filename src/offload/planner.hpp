/**
 * @file
 * Batch planner. scheduleBatch() is CLM's §4.2 batch analysis:
 * ordering (§4.2.3), Gaussian caching (§4.2.1) and finalization
 * (§4.2.2) over a batch's in-frustum sets. The functional CLM trainer
 * runs it directly. planBatch() turns a batch of views into the
 * simulator's op-DAG for one of the four evaluated systems — GPU-only
 * baseline, enhanced baseline (pre-rendering culling), naive offloading
 * (ZeRO-Offload-style, Figure 3) and CLM (Figure 6); for CLM it calls
 * scheduleBatch() and emits the 1F1B-interleaved two-stream schedule of
 * §5.3, so the trainer and the simulator share one analysis.
 */

#ifndef CLM_OFFLOAD_PLANNER_HPP
#define CLM_OFFLOAD_PLANNER_HPP

#include <cstdint>
#include <vector>

#include "math/vec.hpp"
#include "offload/batch_plan.hpp"
#include "offload/cache_planner.hpp"
#include "offload/finalization.hpp"
#include "sched/ordering.hpp"

namespace clm {

/** The four systems compared throughout §6. */
enum class SystemKind
{
    Baseline,            //!< GPU-only, fused culling (Grendel + gsplat).
    EnhancedBaseline,    //!< GPU-only + pre-rendering frustum culling.
    NaiveOffload,        //!< Figure 3: load-all / train / store-all / Adam.
    Clm,                 //!< Full CLM pipeline.
};

/** Display name used by the benches (matches the paper's legends). */
const char *systemName(SystemKind s);

/** Planner knobs (CLM ablations toggle these). */
struct PlannerConfig
{
    SystemKind system = SystemKind::Clm;
    OrderingStrategy ordering = OrderingStrategy::Tsp;
    bool enable_cache = true;        //!< Precise Gaussian caching §4.2.1.
    /** Overlapped CPU Adam §4.2.2. Shapes only the simulator's DAG;
     *  the functional trainers follow TrainConfig::async_adam. */
    bool overlap_adam = true;
    TspConfig tsp;                   //!< Default kick budget.
    uint64_t seed = 1;
};

/** CLM's §4.2 analysis of one batch (see scheduleBatch()). */
struct BatchSchedule
{
    std::vector<int> order;    //!< Microbatch processing order.
    /** S_i in processing order (sets[i] is view order[i]'s). */
    std::vector<std::vector<uint32_t>> sets;
    CachePlan cache;             //!< Transfers per microbatch (§4.2.1).
    FinalizationSchedule fin;    //!< F_0..F_B (§4.2.2).
};

/**
 * Order the views of a batch under @p config's ordering strategy, seed
 * and TSP budget, then plan caching (config.enable_cache) and
 * finalization over the ordered sets.
 *
 * @param sets Per-view in-frustum sets (ascending) in dataset order;
 *        moved into the result in processing order.
 * @param camera_centers Per-view camera centers (Camera ordering).
 * @param n_gaussians Model size the set indices refer to.
 */
BatchSchedule scheduleBatch(const PlannerConfig &config,
                            std::vector<std::vector<uint32_t>> sets,
                            const std::vector<Vec3> &camera_centers,
                            size_t n_gaussians);

/** One batch's workload description (simulator input). */
struct BatchWorkload
{
    /** Per-view in-frustum sets (ascending-sorted), in dataset order. */
    std::vector<std::vector<uint32_t>> sets;
    /** Per-view camera centers (needed for Camera ordering). */
    std::vector<Vec3> camera_centers;
    /** Synthetic model size the sets were measured against. */
    size_t n_synthetic = 0;
    /** Paper-scale model size the plan should be costed at; the planner
     *  scales all Gaussian counts/bytes by n_target / n_synthetic. */
    double n_target = 0;
    /** Pixels per rendered view (at the scene's native resolution). */
    double pixels_per_view = 0;
};

/** Planner output: the DAG plus the schedule it was emitted from (at
 *  synthetic scale; the non-CLM systems fill only the order). */
struct BatchPlanResult : BatchSchedule
{
    BatchPlan plan;
    double scale = 1.0;              //!< n_target / n_synthetic.

    /** Paper-scale PCIe CPU->GPU parameter bytes (the Figure 14 metric). */
    double paramLoadBytesScaled() const;
};

/** Build the plan for one batch under @p config. */
BatchPlanResult planBatch(const PlannerConfig &config,
                          const BatchWorkload &workload);

} // namespace clm

#endif // CLM_OFFLOAD_PLANNER_HPP
