#include "offload/planner.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace clm {

namespace {

/** Bytes written back for one updated Gaussian's critical attributes. */
constexpr double kCriticalWriteBytes =
    static_cast<double>(kCriticalBytesPerGaussian);

/** The simulated schedule op's cost: the paper's 1 ms TSP budget per
 *  batch (A.1). A constant, not this host's planning time, so the
 *  simulated tables repeat exactly from run to run; the functional
 *  solver runs on a kick budget instead. */
constexpr double kPaperTspSeconds = 1e-3;

std::string
mbLabel(const char *prefix, int i)
{
    return std::string(prefix) + " " + std::to_string(i);
}

/** GPU-only baselines: per-image forward/backward (+ optional pre-cull). */
BatchPlanResult
planGpuOnly(const PlannerConfig &config, const BatchWorkload &wl,
            bool enhanced)
{
    (void)config;
    BatchPlanResult r;
    size_t b = wl.sets.size();
    r.scale = wl.n_target / std::max<double>(wl.n_synthetic, 1);
    r.order.resize(b);
    for (size_t i = 0; i < b; ++i)
        r.order[i] = static_cast<int>(i);

    BatchPlan &plan = r.plan;
    plan.batch_size = static_cast<int>(b);

    int cull = -1;
    if (enhanced) {
        PlanOp op;
        op.kind = OpKind::Cull;
        op.engine = EngineId::ComputeStream;
        op.gaussians = wl.n_target;
        op.label = "cull";
        cull = plan.add(std::move(op));
    }
    double union_touched = 0;
    {
        std::vector<uint32_t> u;
        for (const auto &s : wl.sets)
            u.insert(u.end(), s.begin(), s.end());
        std::sort(u.begin(), u.end());
        u.erase(std::unique(u.begin(), u.end()), u.end());
        union_touched = static_cast<double>(u.size()) * r.scale;
    }

    for (size_t i = 0; i < b; ++i) {
        // Without pre-rendering culling the kernels take all N Gaussians
        // as input (§5.1); with it, only |S_i|.
        double g = enhanced
                       ? static_cast<double>(wl.sets[i].size()) * r.scale
                       : wl.n_target;
        PlanOp fwd;
        fwd.kind = OpKind::Forward;
        fwd.engine = EngineId::ComputeStream;
        fwd.microbatch = static_cast<int>(i);
        fwd.gaussians = g;
        fwd.pixels = wl.pixels_per_view;
        if (cull >= 0)
            fwd.deps.push_back(cull);
        fwd.label = mbLabel("fwd", static_cast<int>(i));
        int f = plan.add(std::move(fwd));

        PlanOp bwd;
        bwd.kind = OpKind::Backward;
        bwd.engine = EngineId::ComputeStream;
        bwd.microbatch = static_cast<int>(i);
        // The baseline's backward touches the full input tensor even for
        // out-of-frustum Gaussians (§5.1).
        bwd.gaussians = g;
        bwd.pixels = wl.pixels_per_view;
        bwd.deps.push_back(f);
        bwd.label = mbLabel("bwd", static_cast<int>(i));
        plan.add(std::move(bwd));
    }

    PlanOp adam;
    adam.kind = OpKind::GpuAdam;
    adam.engine = EngineId::ComputeStream;
    adam.gaussians = union_touched;
    adam.dram_bytes =
        union_touched * kModelStateBytesPerGaussian * 2.0;    // r/w states
    adam.label = "gpu adam";
    plan.add(std::move(adam));

    plan.validate();
    return r;
}

/** Naive offloading (Figure 3): load all / train / store all / CPU Adam. */
BatchPlanResult
planNaive(const PlannerConfig &config, const BatchWorkload &wl)
{
    (void)config;
    BatchPlanResult r;
    size_t b = wl.sets.size();
    r.scale = wl.n_target / std::max<double>(wl.n_synthetic, 1);
    r.order.resize(b);
    for (size_t i = 0; i < b; ++i)
        r.order[i] = static_cast<int>(i);

    BatchPlan &plan = r.plan;
    plan.batch_size = static_cast<int>(b);

    // Load ALL parameters (59 floats each) to the GPU.
    PlanOp load;
    load.kind = OpKind::LoadAll;
    load.engine = EngineId::CommStream;
    load.gaussians = wl.n_target;
    load.h2d_bytes = wl.n_target * kParamBytesPerGaussian;
    load.label = "load all params";
    int ld = plan.add(std::move(load));

    // Naive offloading adopts pre-rendering frustum culling too (§6.1).
    PlanOp cull;
    cull.kind = OpKind::Cull;
    cull.engine = EngineId::ComputeStream;
    cull.gaussians = wl.n_target;
    cull.deps.push_back(ld);
    cull.label = "cull";
    int cu = plan.add(std::move(cull));

    int last_bwd = cu;
    for (size_t i = 0; i < b; ++i) {
        double g = static_cast<double>(wl.sets[i].size()) * r.scale;
        PlanOp fwd;
        fwd.kind = OpKind::Forward;
        fwd.engine = EngineId::ComputeStream;
        fwd.microbatch = static_cast<int>(i);
        fwd.gaussians = g;
        fwd.pixels = wl.pixels_per_view;
        fwd.deps.push_back(cu);
        fwd.label = mbLabel("fwd", static_cast<int>(i));
        int f = plan.add(std::move(fwd));

        PlanOp bwd;
        bwd.kind = OpKind::Backward;
        bwd.engine = EngineId::ComputeStream;
        bwd.microbatch = static_cast<int>(i);
        bwd.gaussians = g;
        bwd.pixels = wl.pixels_per_view;
        bwd.deps.push_back(f);
        bwd.label = mbLabel("bwd", static_cast<int>(i));
        last_bwd = plan.add(std::move(bwd));
    }

    // Store ALL gradients back.
    PlanOp store;
    store.kind = OpKind::StoreAll;
    store.engine = EngineId::CommStream;
    store.gaussians = wl.n_target;
    store.d2h_bytes = wl.n_target * kParamBytesPerGaussian;
    store.deps.push_back(last_bwd);
    store.label = "store all grads";
    int st = plan.add(std::move(store));

    // CPU Adam over every Gaussian, after the full gradient arrives.
    PlanOp adam;
    adam.kind = OpKind::CpuAdam;
    adam.engine = EngineId::CpuThread;
    adam.gaussians = wl.n_target;
    adam.deps.push_back(st);
    adam.label = "cpu adam (all)";
    plan.add(std::move(adam));

    plan.validate();
    return r;
}

/** The CLM pipeline of Figure 6 with the 1F1B stream schedule of §5.3. */
BatchPlanResult
planClm(const PlannerConfig &config, const BatchWorkload &wl)
{
    BatchPlanResult r;
    size_t b = wl.sets.size();
    r.scale = wl.n_target / std::max<double>(wl.n_synthetic, 1);

    // 1. Ordering (§4.2.3).
    OrderingInputs oi;
    oi.sets = &wl.sets;
    oi.camera_centers = &wl.camera_centers;
    oi.seed = config.seed;
    oi.tsp = config.tsp;
    r.order = orderViews(config.ordering, b, oi);

    std::vector<std::vector<uint32_t>> ordered;
    ordered.reserve(b);
    for (int v : r.order)
        ordered.push_back(wl.sets[v]);

    // 2. Caching (§4.2.1) and finalization (§4.2.2).
    r.cache = planCache(ordered, config.enable_cache);
    r.fin = computeFinalization(wl.n_synthetic, ordered, false);

    // 3. Emit the op DAG.
    BatchPlan &plan = r.plan;
    plan.batch_size = static_cast<int>(b);

    PlanOp cull_op;
    cull_op.kind = OpKind::Cull;
    cull_op.engine = EngineId::ComputeStream;
    cull_op.gaussians = wl.n_target;
    cull_op.label = "cull";
    int cull = plan.add(std::move(cull_op));

    PlanOp sched_op;
    sched_op.kind = OpKind::Schedule;
    sched_op.engine = EngineId::CpuThread;
    sched_op.deps.push_back(cull);
    sched_op.fixed_seconds = kPaperTspSeconds;
    sched_op.label = "schedule (tsp)";
    int sched = plan.add(std::move(sched_op));

    const double p_bytes =
        static_cast<double>(kNonCriticalBytesPerGaussian);
    const double g_bytes = static_cast<double>(kGradBytesPerGaussian);

    std::vector<int> ld(b, -1), cp(b, -1), fwd(b, -1), bwd(b, -1);
    std::vector<int> adam_ops;

    auto emit_loads = [&](size_t i) {
        const MicrobatchTransfers &t = r.cache.mb[i];
        PlanOp op;
        op.kind = OpKind::LoadParams;
        op.engine = EngineId::CommStream;
        op.microbatch = static_cast<int>(i);
        op.gaussians = static_cast<double>(t.load_new.size()) * r.scale;
        op.h2d_bytes = op.gaussians * p_bytes;
        op.dram_bytes = op.gaussians * p_bytes;    // register -> GPU mem
        op.deps.push_back(sched);
        if (i >= 2)
            op.deps.push_back(bwd[i - 2]);    // double-buffer reuse
        op.label = mbLabel("LD", static_cast<int>(i));
        ld[i] = plan.add(std::move(op));

        if (!t.copy_cached.empty()) {
            PlanOp cop;
            cop.kind = OpKind::CopyCached;
            cop.engine = EngineId::CommStream;
            cop.microbatch = static_cast<int>(i);
            cop.gaussians =
                static_cast<double>(t.copy_cached.size()) * r.scale;
            cop.dram_bytes = cop.gaussians * p_bytes * 2.0;    // r + w
            if (i >= 2)
                cop.deps.push_back(bwd[i - 2]);
            cop.label = mbLabel("COPY", static_cast<int>(i));
            cp[i] = plan.add(std::move(cop));
        }
    };

    auto emit_compute_fwd = [&](size_t i) {
        PlanOp op;
        op.kind = OpKind::Forward;
        op.engine = EngineId::ComputeStream;
        op.microbatch = static_cast<int>(i);
        op.gaussians = static_cast<double>(ordered[i].size()) * r.scale;
        op.pixels = wl.pixels_per_view;
        op.deps.push_back(ld[i]);
        if (cp[i] >= 0)
            op.deps.push_back(cp[i]);
        op.label = mbLabel("FWD", static_cast<int>(i));
        fwd[i] = plan.add(std::move(op));
    };

    auto emit_compute_bwd = [&](size_t i) {
        PlanOp op;
        op.kind = OpKind::Backward;
        op.engine = EngineId::ComputeStream;
        op.microbatch = static_cast<int>(i);
        op.gaussians = static_cast<double>(ordered[i].size()) * r.scale;
        op.pixels = wl.pixels_per_view;
        op.deps.push_back(fwd[i]);
        op.label = mbLabel("BWD", static_cast<int>(i));
        bwd[i] = plan.add(std::move(op));
    };

    auto emit_store = [&](size_t i) {
        const MicrobatchTransfers &t = r.cache.mb[i];
        if (!t.carry_grads.empty()) {
            PlanOp carry;
            carry.kind = OpKind::CarryGrads;
            carry.engine = EngineId::CommStream;
            carry.microbatch = static_cast<int>(i);
            carry.gaussians =
                static_cast<double>(t.carry_grads.size()) * r.scale;
            carry.dram_bytes = carry.gaussians * g_bytes * 3.0;  // r+r+w
            carry.deps.push_back(bwd[i]);
            carry.label = mbLabel("CARRY", static_cast<int>(i));
            plan.add(std::move(carry));
        }
        PlanOp st;
        st.kind = OpKind::StoreGrads;
        st.engine = EngineId::CommStream;
        st.microbatch = static_cast<int>(i);
        st.gaussians = static_cast<double>(t.store_grads.size()) * r.scale;
        st.d2h_bytes = st.gaussians * g_bytes;
        st.h2d_bytes = st.gaussians * g_bytes;    // RMW fetch (§5.3)
        st.deps.push_back(bwd[i]);
        st.label = mbLabel("ST", static_cast<int>(i));
        int st_id = plan.add(std::move(st));

        // Overlapped CPU Adam for F_{i+1} (1-based), gated on the
        // gradient-completion signal written after the transfer (§5.4).
        if (config.overlap_adam) {
            double n_fin = static_cast<double>(
                               r.fin.finalized_after[i + 1].size())
                           * r.scale;
            if (n_fin > 0) {
                PlanOp ad;
                ad.kind = OpKind::CpuAdam;
                ad.engine = EngineId::CpuThread;
                ad.microbatch = static_cast<int>(i);
                ad.scattered_adam = true;
                ad.gaussians = n_fin;
                ad.deps.push_back(st_id);
                ad.label = mbLabel("ADAM F", static_cast<int>(i) + 1);
                adam_ops.push_back(plan.add(std::move(ad)));
            }
        } else if (i + 1 == b) {
            PlanOp ad;
            ad.kind = OpKind::CpuAdam;
            ad.engine = EngineId::CpuThread;
            ad.scattered_adam = true;
            ad.gaussians = static_cast<double>(r.fin.touched()) * r.scale;
            ad.deps.push_back(st_id);
            ad.label = "ADAM (batch end)";
            adam_ops.push_back(plan.add(std::move(ad)));
        }
    };

    // 1F1B emission: prefetch microbatch i's loads during i-1's forward.
    for (size_t i = 0; i < b; ++i) {
        emit_loads(i);
        if (i >= 1) {
            emit_compute_bwd(i - 1);
            emit_store(i - 1);
        }
        emit_compute_fwd(i);
    }
    emit_compute_bwd(b - 1);
    emit_store(b - 1);

    // Updated critical attributes flow back to the GPU-resident store so
    // the next batch's culling sees them (§4.1).
    PlanOp wb;
    wb.kind = OpKind::WriteCritical;
    wb.engine = EngineId::CommStream;
    wb.gaussians = static_cast<double>(r.fin.touched()) * r.scale;
    wb.h2d_bytes = wb.gaussians * kCriticalWriteBytes;
    wb.deps = adam_ops;
    wb.label = "critical write-back";
    plan.add(std::move(wb));

    plan.validate();
    return r;
}

} // namespace

const char *
systemName(SystemKind s)
{
    switch (s) {
      case SystemKind::Baseline:
        return "Baseline";
      case SystemKind::EnhancedBaseline:
        return "Enhanced Baseline";
      case SystemKind::NaiveOffload:
        return "Naive Offloading";
      case SystemKind::Clm:
        return "CLM";
    }
    return "?";
}

double
BatchPlanResult::paramLoadBytesScaled() const
{
    return static_cast<double>(cache.paramLoadBytes()) * scale;
}

BatchPlanResult
planBatch(const PlannerConfig &config, const BatchWorkload &workload)
{
    CLM_ASSERT(!workload.sets.empty(), "empty batch");
    CLM_ASSERT(workload.n_synthetic > 0, "need synthetic model size");
    CLM_ASSERT(workload.n_target > 0, "need target model size");
    CLM_ASSERT(workload.camera_centers.size() == workload.sets.size(),
               "camera centers must match view count");

    switch (config.system) {
      case SystemKind::Baseline:
        return planGpuOnly(config, workload, false);
      case SystemKind::EnhancedBaseline:
        return planGpuOnly(config, workload, true);
      case SystemKind::NaiveOffload:
        return planNaive(config, workload);
      case SystemKind::Clm:
        return planClm(config, workload);
    }
    CLM_PANIC("unreachable system kind");
}

} // namespace clm
