#include "offload/frustum_sets.hpp"

#include <algorithm>

#include "render/batch.hpp"
#include "render/culling.hpp"
#include "util/logging.hpp"

namespace clm {

std::vector<double>
FrustumSets::sparsities() const
{
    std::vector<double> rho;
    rho.reserve(sets.size());
    for (const auto &s : sets)
        rho.push_back(sparsity(s.size(), total_gaussians));
    return rho;
}

std::vector<uint32_t>
FrustumSets::unionSet() const
{
    std::vector<uint32_t> u;
    for (const auto &s : sets)
        u.insert(u.end(), s.begin(), s.end());
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
    return u;
}

FrustumSets
computeFrustumSets(const GaussianModel &model,
                   const std::vector<Camera> &cameras)
{
    FrustumSets out;
    out.total_gaussians = model.size();
    out.sets.resize(cameras.size());
    cullViewGroups(model, cameras, /*parallel=*/true,
                   [&](size_t first, const std::vector<Camera> &cams,
                       std::vector<std::vector<uint32_t>> &subsets) {
                       for (size_t k = 0; k < cams.size(); ++k)
                           out.sets[first + k] = std::move(subsets[k]);
                   });
    return out;
}

FrustumSets
selectViews(const FrustumSets &all, const std::vector<int> &view_indices)
{
    FrustumSets out;
    out.total_gaussians = all.total_gaussians;
    out.sets.reserve(view_indices.size());
    for (int v : view_indices) {
        CLM_ASSERT(v >= 0 && static_cast<size_t>(v) < all.sets.size(),
                   "view index out of range");
        out.sets.push_back(all.sets[v]);
    }
    return out;
}

} // namespace clm
