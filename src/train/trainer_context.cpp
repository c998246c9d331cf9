#include "train/trainer_context.hpp"

#include <cstring>
#include <numeric>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

TrainerContext::TrainerContext(GaussianModel &model, CpuAdam &adam,
                               Densifier &densifier,
                               std::vector<uint32_t> &cull_dirty)
    : model_(model), adam_(adam), densifier_(densifier),
      cull_dirty_(cull_dirty)
{
}

BatchWorkload
TrainerContext::buildWorkload(std::vector<std::vector<uint32_t>> sets,
                              const std::vector<Camera> &cameras,
                              const std::vector<int> &view_ids) const
{
    BatchWorkload wl;
    wl.sets = std::move(sets);
    wl.camera_centers.reserve(view_ids.size());
    for (int v : view_ids)
        wl.camera_centers.push_back(cameras[v].eye());
    wl.n_synthetic = model_.size();
    wl.n_target = static_cast<double>(model_.size());
    wl.pixels_per_view = cameras[view_ids[0]].pixels();
    return wl;
}

const BatchPlanResult &
TrainerContext::planViews(const PlannerConfig &config,
                          const BatchWorkload &workload)
{
    last_plan_ = planBatch(config, workload);
    return last_plan_;
}

std::vector<std::vector<uint32_t>>
TrainerContext::orderedSets(const BatchWorkload &workload) const
{
    std::vector<std::vector<uint32_t>> ordered;
    ordered.reserve(last_plan_.order.size());
    for (int o : last_plan_.order)
        ordered.push_back(workload.sets[o]);
    return ordered;
}

void
TrainerContext::gatherCompact(MicrobatchSlot &slot, const DeviceBuffer &buf,
                              const std::vector<uint32_t> &set) const
{
    const size_t k = set.size();
    slot.compact.resize(k);
    slot.grads.resize(k);    // zeroed: the backward accumulates
    slot.subset.resize(k);
    std::iota(slot.subset.begin(), slot.subset.end(), 0u);
    slot.rows.resize(k);
    // Both lists are ascending: a merge walk finds each buffer row.
    const std::vector<uint32_t> &bound = buf.indices();
    size_t row = 0;
    for (size_t r = 0; r < k; ++r) {
        const uint32_t g = set[r];
        while (row < bound.size() && bound[row] < g)
            ++row;
        CLM_ASSERT(row < bound.size() && bound[row] == g,
                   "microbatch Gaussian ", g, " not bound in buffer");
        slot.rows[r] = row;
        slot.compact.position(r) = model_.position(g);
        slot.compact.logScale(r) = model_.logScale(g);
        slot.compact.rotation(r) = model_.rotation(g);
        slot.compact.unpackNonCritical(r, buf.paramRow(row));
    }
}

void
TrainerContext::addCompactGrads(const MicrobatchSlot &slot,
                                DeviceBuffer &buf)
{
    float rec[kParamsPerGaussian];
    for (size_t r = 0; r < slot.rows.size(); ++r) {
        packGradRecord(slot.grads, r, rec);
        float *row = buf.gradRow(slot.rows[r]);
        for (int k = 0; k < kParamsPerGaussian; ++k)
            row[k] += rec[k];
    }
}

size_t
TrainerContext::finalize(PinnedPool &pool,
                         const std::vector<uint32_t> &fin,
                         bool observe_densify, bool parallel)
{
    // Gradients for the finalized set are complete in pinned memory
    // (§4.2.2): update each master row straight from its record (§5.4)
    // and reset the record for the next batch. The new attributes are
    // in place in the master rows the next cull and loads read (§4.1).
    auto finalize_rows = [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
            const uint32_t g = fin[k];
            float *grad = pool.gradRecord(g);
            if (observe_densify)
                densifier_.observeNorm(
                    g, Vec3{grad[0], grad[1], grad[2]}.norm());
            adam_.updateRecord(model_, g, grad);
            std::memset(grad, 0, kParamsPerGaussian * sizeof(float));
        }
    };
    if (parallel && adam_.config().parallel
        && fin.size() > kParallelAdamRows)
        ThreadPool::global().parallelFor(fin.size(), finalize_rows);
    else
        finalize_rows(0, fin.size());
    cull_dirty_.insert(cull_dirty_.end(), fin.begin(), fin.end());
    return fin.size();
}

} // namespace clm
