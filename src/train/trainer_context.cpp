#include "train/trainer_context.hpp"

#include <cstring>
#include <limits>
#include <numeric>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

namespace {

/** Finalized sets larger than this spread over the thread pool when
 *  finalization runs inline (the cut CpuAdam::updateSubset uses). */
constexpr size_t kParallelFinalizeRows = 1024;

/** Copy Gaussian @p i's critical attributes of @p src into row @p j of
 *  @p dst. */
void
copyCritical(const GaussianModel &src, size_t i, GaussianModel &dst,
             size_t j)
{
    dst.position(j) = src.position(i);
    dst.logScale(j) = src.logScale(i);
    dst.rotation(j) = src.rotation(i);
}

} // namespace

TrainerContext::TrainerContext(GaussianModel &model, CpuAdam &adam,
                               Densifier &densifier)
    : model_(model), adam_(adam), densifier_(densifier)
{
    rebuild();
}

void
TrainerContext::rebuild()
{
    // Attribute-wise offload (§4.1): non-critical attributes live in the
    // engine's pinned pool; critical attributes are resident in the
    // critical store.
    size_t n = model_.size();
    scratch_.resize(n);
    for (size_t i = 0; i < n; ++i)
        copyCritical(model_, i, scratch_, i);
    buildCullStage(scratch_, cull_);
    dirty_.clear();
}

std::vector<std::vector<uint32_t>>
TrainerContext::cullViews(const std::vector<Camera> &cameras,
                          const std::vector<int> &view_ids, bool parallel)
{
    CLM_ASSERT(!view_ids.empty(), "empty batch");
    std::vector<Camera> batch;
    batch.reserve(view_ids.size());
    for (int v : view_ids)
        batch.push_back(cameras[v]);
    // Only the rows finalized since the last cull changed.
    refreshCullStage(scratch_, dirty_, cull_, parallel);
    dirty_.clear();
    std::vector<std::vector<uint32_t>> sets;
    frustumCullBatch(scratch_, batch, cull_, sets, parallel);
    return sets;
}

BatchWorkload
TrainerContext::buildWorkload(const std::vector<Camera> &cameras,
                              const std::vector<int> &view_ids,
                              bool parallel)
{
    BatchWorkload wl;
    wl.sets = cullViews(cameras, view_ids, parallel);
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
        copyCritical(scratch_, g, slot.compact, r);
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
    // (§4.2.2): update each row straight from its record (§5.4), make
    // the new non-critical parameters visible to future loads, reset
    // the record for the next batch, and push the new critical
    // attributes to the GPU store (§4.1).
    auto finalize_rows = [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
            const uint32_t g = fin[k];
            float *grad = pool.gradRecord(g);
            if (observe_densify)
                densifier_.observeNorm(
                    g, Vec3{grad[0], grad[1], grad[2]}.norm());
            adam_.updateRecord(model_, g, grad);
            model_.packNonCritical(g, pool.paramRecord(g));
            std::memset(grad, 0, kParamsPerGaussian * sizeof(float));
            copyCritical(model_, g, scratch_, g);
        }
    };
    if (parallel && adam_.config().parallel
        && fin.size() > kParallelFinalizeRows)
        ThreadPool::global().parallelFor(fin.size(), finalize_rows);
    else
        finalize_rows(0, fin.size());
    dirty_.insert(dirty_.end(), fin.begin(), fin.end());
    return fin.size();
}

void
TrainerContext::debugPoisonScratchNonCritical()
{
    float poison[kNonCriticalDim];
    for (int k = 0; k < kNonCriticalDim; ++k)
        poison[k] = std::numeric_limits<float>::quiet_NaN();
    for (size_t i = 0; i < scratch_.size(); ++i)
        scratch_.unpackNonCritical(i, poison);
}

} // namespace clm
