#include "offload/selective_copy.hpp"

#include <algorithm>
#include <cstring>

#include "gaussian/model.hpp"
#include "util/logging.hpp"

namespace clm {

void
DeviceBuffer::bind(std::vector<uint32_t> indices)
{
    CLM_ASSERT(std::is_sorted(indices.begin(), indices.end()),
               "bound indices must be ascending");
    const size_t rows = indices.size();
    if (params_.size() < rows * kNonCriticalDim) {
        params_.resize(rows * kNonCriticalDim);
        grads_.resize(rows * kParamsPerGaussian);
    }
    indices_ = std::move(indices);
}

int64_t
DeviceBuffer::rowOf(uint32_t g) const
{
    auto it = std::lower_bound(indices_.begin(), indices_.end(), g);
    if (it == indices_.end() || *it != g)
        return -1;
    return it - indices_.begin();
}

size_t
DeviceBuffer::boundRow(uint32_t g) const
{
    int64_t r = rowOf(g);
    CLM_ASSERT(r >= 0, "gaussian ", g, " not bound in buffer");
    return static_cast<size_t>(r);
}

void
DeviceBuffer::zeroGrads()
{
    std::memset(grads_.data(), 0,
                rows() * kParamsPerGaussian * sizeof(float));
}

void
gatherParams(const GaussianModel &model, DeviceBuffer &dst,
             const std::vector<uint32_t> &load_indices)
{
    // Both lists are ascending: a two-pointer merge walk finds each
    // target row in O(1) amortized — the CPU analogue of the fused
    // selective loading kernel (§5.2), which assigns one thread per
    // loaded Gaussian and never searches.
    const auto &bound = dst.indices();
    size_t r = 0;
    for (uint32_t g : load_indices) {
        while (r < bound.size() && bound[r] < g)
            ++r;
        CLM_ASSERT(r < bound.size() && bound[r] == g,
                   "load target ", g, " not bound in buffer");
        // The kernel concatenates the row's SH and opacity into the
        // dense 49-float row (§5.2's split-and-concatenate in one kernel).
        model.packNonCritical(g, dst.paramRow(r));
    }
}

void
copyCachedParams(const DeviceBuffer &src, DeviceBuffer &dst,
                 const std::vector<uint32_t> &cached_indices)
{
    const auto &sb = src.indices();
    const auto &db = dst.indices();
    size_t rs = 0, rd = 0;
    for (uint32_t g : cached_indices) {
        while (rs < sb.size() && sb[rs] < g)
            ++rs;
        while (rd < db.size() && db[rd] < g)
            ++rd;
        CLM_ASSERT(rs < sb.size() && sb[rs] == g,
                   "cached gaussian ", g, " missing in source");
        CLM_ASSERT(rd < db.size() && db[rd] == g,
                   "cached gaussian ", g, " not bound in dest");
        std::memcpy(dst.paramRow(rd), src.paramRow(rs),
                    kNonCriticalDim * sizeof(float));
    }
}

void
scatterAccumulateGrads(const DeviceBuffer &src, PinnedPool &pool,
                       const std::vector<uint32_t> &store_indices)
{
    const auto &bound = src.indices();
    size_t r = 0;
    for (uint32_t g : store_indices) {
        while (r < bound.size() && bound[r] < g)
            ++r;
        CLM_ASSERT(r < bound.size() && bound[r] == g,
                   "store source ", g, " not bound in buffer");
        const float *row = src.gradRow(r);
        float *rec = pool.gradRecord(g);
        for (int k = 0; k < kParamsPerGaussian; ++k)
            rec[k] += row[k];    // fetch + add + store (§5.3)
    }
}

void
accumulateCarriedGrads(const DeviceBuffer &src, DeviceBuffer &dst,
                       const std::vector<uint32_t> &carry_indices)
{
    const auto &sb = src.indices();
    const auto &db = dst.indices();
    size_t rs = 0, rd = 0;
    for (uint32_t g : carry_indices) {
        while (rs < sb.size() && sb[rs] < g)
            ++rs;
        while (rd < db.size() && db[rd] < g)
            ++rd;
        CLM_ASSERT(rs < sb.size() && sb[rs] == g,
                   "carried gaussian ", g, " missing in source");
        CLM_ASSERT(rd < db.size() && db[rd] == g,
                   "carried gaussian ", g, " not bound in dest");
        const float *s = src.gradRow(rs);
        float *d = dst.gradRow(rd);
        for (int k = 0; k < kParamsPerGaussian; ++k)
            d[k] += s[k];
    }
}

} // namespace clm
