/**
 * @file
 * The op-DAG a training system launches for one batch, as the
 * discrete-event GPU simulator times it. The functional trainers never
 * build it: the CLM trainer runs scheduleBatch() (planner.hpp) and hands
 * its order, cache plan and finalization schedule to the
 * TransferEngine, while planBatch() emits this DAG from the same
 * schedule. The simulated and the measured pipelines share those three
 * decisions, not their op-level timing.
 */

#ifndef CLM_OFFLOAD_BATCH_PLAN_HPP
#define CLM_OFFLOAD_BATCH_PLAN_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace clm {

/** Operation types across all four systems. */
enum class OpKind
{
    Cull,          //!< Pre-rendering frustum culling over N Gaussians.
    Schedule,      //!< CPU-side microbatch ordering (TSP) + plan build.
    LoadParams,    //!< Selective PCIe load of non-critical params (CLM).
    CopyCached,    //!< GPU-to-GPU copy of cached params (CLM).
    Forward,       //!< Forward rasterization of one microbatch.
    Backward,      //!< Backward pass of one microbatch.
    StoreGrads,    //!< Selective RMW gradient offload (CLM).
    CarryGrads,    //!< On-GPU gradient accumulation for cached rows (CLM).
    CpuAdam,       //!< CPU Adam over a subset of Gaussians.
    GpuAdam,       //!< GPU Adam (GPU-only baselines).
    LoadAll,       //!< Bulk PCIe load of all parameters (naive offload).
    StoreAll,      //!< Bulk PCIe store of all gradients (naive offload).
    WriteCritical, //!< Write back updated critical attributes (CLM).
};

/** Execution engines: two CUDA streams plus the CPU Adam thread. */
enum class EngineId : uint8_t
{
    ComputeStream = 0,    //!< Stream 0: rendering kernels.
    CommStream = 1,       //!< Stream 1: transfer kernels (higher priority).
    CpuThread = 2,        //!< Dedicated CPU Adam / scheduling thread.
};

constexpr int kNumEngines = 3;

/** One node of the plan DAG. */
struct PlanOp
{
    OpKind kind;
    EngineId engine;
    int microbatch = -1;       //!< -1 for batch-level ops.
    double gaussians = 0;      //!< Gaussians processed (scaled count).
    double pixels = 0;         //!< Pixels rendered (compute ops).
    double h2d_bytes = 0;      //!< PCIe CPU->GPU traffic.
    double d2h_bytes = 0;      //!< PCIe GPU->CPU traffic.
    double dram_bytes = 0;     //!< GPU-DRAM traffic beyond PCIe mirroring.
    double fixed_seconds = 0;  //!< When > 0, overrides the cost model
                               //!< (used for measured scheduling time).
    bool scattered_adam = false;   //!< CpuAdam over a scattered index
                                   //!< subset (slower per param than a
                                   //!< bulk sweep).
    std::vector<int> deps;     //!< Indices of prerequisite ops.
    std::string label;
};

/** The full batch DAG. Ops within an engine run in emission (FIFO) order,
 *  like operations enqueued on a CUDA stream. */
struct BatchPlan
{
    std::vector<PlanOp> ops;
    int batch_size = 0;

    /** Append an op, returning its index for dependency wiring. */
    int add(PlanOp op);

    /** Total PCIe CPU->GPU bytes across the plan. */
    double h2dBytes() const;
    /** Total PCIe GPU->CPU bytes across the plan. */
    double d2hBytes() const;

    /** Sanity-check the DAG: dependencies exist and precede their users. */
    void validate() const;
};

/** Short human-readable name of an op kind. */
const char *opKindName(OpKind k);

} // namespace clm

#endif // CLM_OFFLOAD_BATCH_PLAN_HPP
