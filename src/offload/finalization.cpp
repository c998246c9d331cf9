#include "offload/finalization.hpp"

#include "util/logging.hpp"

namespace clm {

size_t
FinalizationSchedule::overlappableUpdates() const
{
    size_t n = 0;
    for (size_t j = 1; j + 1 < finalized_after.size(); ++j)
        n += finalized_after[j].size();
    return n;
}

size_t
FinalizationSchedule::trailingUpdates() const
{
    return finalized_after.empty() ? 0 : finalized_after.back().size();
}

size_t
FinalizationSchedule::touched() const
{
    size_t n = 0;
    for (size_t j = 1; j < finalized_after.size(); ++j)
        n += finalized_after[j].size();
    return n;
}

FinalizationSchedule
computeFinalization(size_t n_gaussians,
                    const std::vector<std::vector<uint32_t>> &ordered_sets,
                    bool include_untouched)
{
    const size_t b = ordered_sets.size();
    FinalizationSchedule sched;
    sched.finalized_after.resize(b + 1);

    // Dense last-touch stamps, all zero between calls: stamped here,
    // cleared again on the way out (exceptions included), so a call
    // costs O(sum |S_i|) instead of O(N) — only F_0 sweeps the model.
    thread_local std::vector<uint32_t> last;
    if (last.size() < n_gaussians)
        last.resize(n_gaussians);
    struct ClearStamps
    {
        const std::vector<std::vector<uint32_t>> &sets;
        ~ClearStamps()
        {
            for (const auto &set : sets)
                for (uint32_t g : set)
                    if (g < last.size())
                        last[g] = 0;
        }
    } clear{ordered_sets};

    // L_g = max{i | g in S_i} (1-based): later microbatches overwrite.
    for (size_t i = 0; i < b; ++i) {
        for (uint32_t g : ordered_sets[i]) {
            CLM_ASSERT(g < n_gaussians, "gaussian index out of range");
            last[g] = static_cast<uint32_t>(i + 1);
        }
    }
    // g belongs to F_{i+1} exactly where its stamp is i+1; walking each
    // ascending set keeps every F_j ascending (and duplicate-free)
    // without a sort.
    for (size_t i = 0; i < b; ++i) {
        std::vector<uint32_t> &f = sched.finalized_after[i + 1];
        for (uint32_t g : ordered_sets[i])
            if (last[g] == i + 1 && (f.empty() || f.back() != g))
                f.push_back(g);
    }
    if (include_untouched) {
        auto &f0 = sched.finalized_after[0];
        for (uint32_t g = 0; g < n_gaussians; ++g)
            if (last[g] == 0)
                f0.push_back(g);
    }
    return sched;
}

} // namespace clm
