/**
 * @file
 * Batch planner: turns a batch of views (with their in-frustum sets) into
 * the op-DAG of one of the four evaluated systems — GPU-only baseline,
 * enhanced baseline (pre-rendering culling), naive offloading
 * (ZeRO-Offload-style, Figure 3) and CLM (Figure 6). For CLM the planner
 * runs ordering (§4.2.3), Gaussian caching (§4.2.1) and finalization
 * (§4.2.2), and emits the 1F1B-interleaved two-stream schedule of §5.3.
 * The functional CLM trainer uses only BatchPlanResult's order, cache and
 * fin; the op-DAG and its costs feed the simulator.
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

/** One batch's workload description. */
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

/** Planner output: the DAG plus the intermediate analyses benches report. */
struct BatchPlanResult
{
    BatchPlan plan;
    std::vector<int> order;          //!< Microbatch processing order.
    CachePlan cache;                 //!< At synthetic scale.
    FinalizationSchedule fin;        //!< At synthetic scale.
    double scale = 1.0;              //!< n_target / n_synthetic.
    double scheduling_seconds = 0;   //!< Measured planning wall time.

    /** Paper-scale PCIe CPU->GPU parameter bytes (the Figure 14 metric). */
    double paramLoadBytesScaled() const;
};

/** Build the plan for one batch under @p config. */
BatchPlanResult planBatch(const PlannerConfig &config,
                          const BatchWorkload &workload);

} // namespace clm

#endif // CLM_OFFLOAD_PLANNER_HPP
