#include "sim/metrics.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace clm {

namespace {

/** Estimated DRAM traffic of an op (kernels are ~80% bandwidth-bound). */
double
kernelDramBytes(const PlanOp &op, const OpRecord &rec,
                const DeviceSpec &device)
{
    switch (op.kind) {
      case OpKind::Forward:
      case OpKind::Backward:
      case OpKind::Cull:
      case OpKind::GpuAdam:
        return 0.8 * rec.duration() * device.dram_bw;
      default:
        return op.dram_bytes + op.h2d_bytes + op.d2h_bytes;
    }
}

bool
isComputeKernel(const PlanOp &op)
{
    return op.engine == EngineId::ComputeStream;
}

} // namespace

HardwareUtilization
computeUtilization(const BatchPlan &plan, const Timeline &tl,
                   const DeviceSpec &device)
{
    CLM_ASSERT(tl.records.size() == plan.ops.size(), "timeline mismatch");
    HardwareUtilization u;
    if (tl.makespan <= 0)
        return u;

    double h2d = 0, d2h = 0, dram_read = 0, dram_write = 0;
    for (size_t i = 0; i < plan.ops.size(); ++i) {
        const PlanOp &op = plan.ops[i];
        h2d += op.h2d_bytes;
        d2h += op.d2h_bytes;
        double dram = kernelDramBytes(op, tl.records[i], device);
        // Roughly 60/40 read/write split for kernels; transfers write on
        // load and read on store.
        dram_read += 0.6 * dram;
        dram_write += 0.4 * dram;
    }

    u.cpu_util = 100.0 * tl.engineBusy(plan, EngineId::CpuThread)
               / tl.makespan;
    u.sm_active = 100.0 * tl.engineBusy(plan, EngineId::ComputeStream)
                / tl.makespan;
    u.pcie_rx_util = 100.0 * h2d / (tl.makespan * device.pcie_bw);
    u.pcie_tx_util = 100.0 * d2h / (tl.makespan * device.pcie_bw);
    u.dram_read_util =
        100.0 * dram_read / (tl.makespan * device.dram_bw);
    u.dram_write_util =
        100.0 * dram_write / (tl.makespan * device.dram_bw);

    auto clamp_pct = [](double &v) { v = std::min(v, 100.0); };
    clamp_pct(u.cpu_util);
    clamp_pct(u.sm_active);
    clamp_pct(u.pcie_rx_util);
    clamp_pct(u.pcie_tx_util);
    clamp_pct(u.dram_read_util);
    clamp_pct(u.dram_write_util);
    return u;
}

std::vector<double>
gpuIdleSamples(const BatchPlan &plan, const Timeline &tl, int n_samples)
{
    auto intervals = tl.engineIntervals(plan, EngineId::ComputeStream);
    std::vector<double> samples;
    samples.reserve(n_samples);
    size_t cursor = 0;
    for (int s = 0; s < n_samples; ++s) {
        double t = tl.makespan * (s + 0.5) / n_samples;
        while (cursor < intervals.size() && intervals[cursor].second < t)
            ++cursor;
        bool busy = cursor < intervals.size()
                 && intervals[cursor].first <= t
                 && t <= intervals[cursor].second;
        samples.push_back(busy ? 0.0 : 100.0);
    }
    return samples;
}

RuntimeBreakdown
computeBreakdown(const BatchPlan &plan, const Timeline &tl)
{
    RuntimeBreakdown b;
    b.total = tl.makespan;

    double adam_total = 0;
    for (size_t i = 0; i < plan.ops.size(); ++i) {
        const PlanOp &op = plan.ops[i];
        double dur = tl.records[i].duration();
        if (isComputeKernel(op))
            b.compute += dur;
        else if (op.engine == EngineId::CommStream)
            b.communication += dur;
        else if (op.kind == OpKind::Schedule)
            b.scheduling += dur;
        else if (op.kind == OpKind::CpuAdam)
            adam_total += dur;
    }
    b.trailing_adam = adamTrailingSeconds(plan, tl);
    b.overlapped_adam = std::max(0.0, adam_total - b.trailing_adam);
    return b;
}

RuntimeBreakdown
computeBreakdown(const StageTimings &t)
{
    RuntimeBreakdown b;
    b.total = t.batch_seconds;
    b.compute = t[TrainStage::Compute];
    b.communication = t.communication();
    b.scheduling = t[TrainStage::Schedule];
    if (t.finalize_inline) {
        // Finalization blocked the critical path between microbatches:
        // all of it is non-overlapped, wherever it fell in the batch.
        b.trailing_adam = t[TrainStage::Finalize];
        b.overlapped_adam = 0;
    } else {
        b.trailing_adam = t.trailing_adam_seconds;
        b.overlapped_adam = std::max(
            0.0, t[TrainStage::Finalize] - t.trailing_adam_seconds);
    }
    return b;
}

std::vector<double>
gpuIdleSamples(const StageTimings &t, int n_samples)
{
    // Reconstruct a sequential busy/idle timeline from the measured
    // durations: scheduling (idle), then per microbatch the staging stall
    // (idle) followed by compute (busy), then trailing Adam (idle). The
    // stalls are the *exposed* staging time (staged with no compute in
    // flight), exactly what SMs-active sampling would see.
    struct Segment
    {
        double duration;
        bool busy;
    };
    std::vector<Segment> segments;
    segments.push_back({t[TrainStage::Schedule], false});
    for (const StageTimings::Microbatch &mb : t.microbatches) {
        segments.push_back({mb.wait, false});
        segments.push_back({mb.compute, true});
    }
    // Inline finalization stalls the compute engine for its full
    // duration; a dedicated Adam thread exposes only the trailing part.
    segments.push_back({t.finalize_inline ? t[TrainStage::Finalize]
                                          : t.trailing_adam_seconds,
                        false});

    double span = 0;
    for (const Segment &s : segments)
        span += s.duration;
    std::vector<double> samples;
    samples.reserve(n_samples);
    if (span <= 0)
        return samples;
    size_t cursor = 0;
    double cursor_end = segments[0].duration;
    for (int s = 0; s < n_samples; ++s) {
        double at = span * (s + 0.5) / n_samples;
        while (cursor + 1 < segments.size() && cursor_end < at) {
            ++cursor;
            cursor_end += segments[cursor].duration;
        }
        samples.push_back(segments[cursor].busy ? 0.0 : 100.0);
    }
    return samples;
}

double
adamTrailingSeconds(const BatchPlan &plan, const Timeline &tl)
{
    double last_transfer_end = 0;
    double last_adam_end = 0;
    for (size_t i = 0; i < plan.ops.size(); ++i) {
        const PlanOp &op = plan.ops[i];
        if (op.kind == OpKind::StoreGrads || op.kind == OpKind::StoreAll)
            last_transfer_end =
                std::max(last_transfer_end, tl.records[i].end);
        if (op.kind == OpKind::CpuAdam)
            last_adam_end = std::max(last_adam_end, tl.records[i].end);
    }
    return std::max(0.0, last_adam_end - last_transfer_end);
}

} // namespace clm
