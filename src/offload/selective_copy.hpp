/**
 * @file
 * Functional equivalents of the selective loading / gradient offloading
 * kernels (§5.2, §5.3): batched gather of sparse pinned-memory records
 * into dense device buffers, scatter of device gradients back with
 * read-modify-write accumulation, and dense row copies for the GPU-side
 * Gaussian cache. These kernels are driven exclusively by the
 * TransferEngine (offload/transfer_engine.hpp); trainers never call them
 * directly. The batched forms are microbenchmarked against naive
 * per-record copies in bench/micro_selective_copy.
 */

#ifndef CLM_OFFLOAD_SELECTIVE_COPY_HPP
#define CLM_OFFLOAD_SELECTIVE_COPY_HPP

#include <cstdint>
#include <vector>

#include "offload/pinned_pool.hpp"
#include "util/logging.hpp"

namespace clm {

/**
 * Dense device-side staging buffer for one microbatch: row r holds the
 * non-critical parameters (and gradient slot) of the r-th in-frustum
 * Gaussian. The TransferEngine keeps a ring of these, one per
 * microbatch in flight plus one (§5.3's double buffer generalized).
 * Storage is sized by the sets bound to it, never by the model.
 */
class DeviceBuffer
{
  public:
    /** Bind the buffer to an index set (rows follow @p indices order).
     *  Storage grows to the largest set ever bound and never shrinks;
     *  row contents after a rebind are unspecified until staged. */
    void bind(std::vector<uint32_t> indices);

    /** Currently bound global indices (ascending). */
    const std::vector<uint32_t> &indices() const { return indices_; }

    /** Row position of global index @p g, or -1 when absent. This is the
     *  single not-found convention: every caller that can miss checks for
     *  int64_t -1; callers that must hit use boundRow(). */
    int64_t rowOf(uint32_t g) const;

    /** Row position of global index @p g, asserting that it is bound.
     *  Use instead of rowOf() wherever absence would be a logic error. */
    size_t boundRow(uint32_t g) const;

    /** Non-critical parameter row r (49 floats). */
    float *paramRow(size_t r)
    {
        CLM_DBG_ASSERT(r < rows(), "param row ", r, " of ", rows());
        return &params_[r * kNonCriticalDim];
    }
    const float *paramRow(size_t r) const
    {
        CLM_DBG_ASSERT(r < rows(), "param row ", r, " of ", rows());
        return &params_[r * kNonCriticalDim];
    }

    /** Gradient row r (59 floats). */
    float *gradRow(size_t r)
    {
        CLM_DBG_ASSERT(r < rows(), "grad row ", r, " of ", rows());
        return &grads_[r * kParamsPerGaussian];
    }
    const float *gradRow(size_t r) const
    {
        CLM_DBG_ASSERT(r < rows(), "grad row ", r, " of ", rows());
        return &grads_[r * kParamsPerGaussian];
    }

    /** Number of bound rows. */
    size_t rows() const { return indices_.size(); }

    /** Zero all gradient rows. */
    void zeroGrads();

  private:
    std::vector<uint32_t> indices_;
    std::vector<float> params_;
    std::vector<float> grads_;
};

/**
 * Selective loading "kernel": gather the records of @p rows (positions in
 * dst's bound index list whose data must come from pinned memory) from
 * @p pool into @p dst's parameter rows.
 */
void gatherParams(const PinnedPool &pool, DeviceBuffer &dst,
                  const std::vector<uint32_t> &load_indices);

/**
 * Cache-copy "kernel": for every index in @p cached_indices, copy its
 * parameter row from @p src (previous microbatch) into @p dst.
 */
void copyCachedParams(const DeviceBuffer &src, DeviceBuffer &dst,
                      const std::vector<uint32_t> &cached_indices);

/**
 * Gradient offloading "kernel" with in-register accumulation (§5.3):
 * for every index in @p store_indices, fetch the pinned gradient record,
 * add the device row, and store the sum back.
 */
void scatterAccumulateGrads(const DeviceBuffer &src, PinnedPool &pool,
                            const std::vector<uint32_t> &store_indices);

/**
 * Carry-accumulate "kernel": for every index in @p carry_indices (present
 * in both buffers), add src's gradient row into dst's gradient row.
 */
void accumulateCarriedGrads(const DeviceBuffer &src, DeviceBuffer &dst,
                            const std::vector<uint32_t> &carry_indices);

} // namespace clm

#endif // CLM_OFFLOAD_SELECTIVE_COPY_HPP
