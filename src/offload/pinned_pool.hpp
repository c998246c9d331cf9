/**
 * @file
 * Host-side pinned-memory pool for offloaded Gaussian state (§5.2, §5.4).
 * Parameter records are concatenated and padded to cache-line multiples so
 * each Gaussian's non-critical attributes live in contiguous, aligned
 * memory (the layout the selective loading kernel gathers from); gradient
 * records hold all 59 parameter gradients and are accumulated in place by
 * the RMW store kernel. Optimizer state is intentionally *not* pinned —
 * matching the paper's Table 6 accounting.
 */

#ifndef CLM_OFFLOAD_PINNED_POOL_HPP
#define CLM_OFFLOAD_PINNED_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gaussian/attributes.hpp"

namespace clm {

class GaussianModel;

/** Pinned completion-signal slots (§5.4): the TransferEngine cycles
 *  microbatch finalization signals through them. */
constexpr size_t kSignalSlots = 64;

/** Pinned-pool sizing policy, exposed for the Table 6 bench. */
struct PinnedLayout
{
    /** Stride of one non-critical parameter record (cache-line padded). */
    static constexpr size_t paramStride() { return kPaddedNonCriticalBytes; }

    /** Stride of one gradient record: 59 floats, cache-line padded. */
    static constexpr size_t
    gradStride()
    {
        size_t raw = kParamsPerGaussian * sizeof(float);
        return ((raw + kCacheLineBytes - 1) / kCacheLineBytes)
               * kCacheLineBytes;
    }

    /** Total pinned bytes for @p n Gaussians (params + grads + signals). */
    static size_t totalBytes(size_t n);
};

/**
 * The pool itself. In the real system this memory is cudaHostAlloc'd; here
 * it is page-aligned host memory with identical layout, so the selective
 * copy kernels and the functional trainers exercise the same addressing.
 */
class PinnedPool
{
  public:
    /** Allocate records for @p n Gaussians, zeroed in one pass
     *  (zeroBytes, util/thread_pool.hpp): params, grads and signal
     *  slots all read 0. */
    explicit PinnedPool(size_t n);

    size_t size() const { return n_; }

    /** Non-critical parameter record (49 floats + padding) of Gaussian i. */
    float *paramRecord(size_t i);
    const float *paramRecord(size_t i) const;

    /** Gradient record (59 floats + padding) of Gaussian i. */
    float *gradRecord(size_t i);
    const float *gradRecord(size_t i) const;

    /**
     * Signal buffer slot (§5.4): the communication stream writes a
     * completion flag here via DMA; the CPU Adam thread spins on it.
     */
    uint32_t *signalSlot(size_t slot);

    /** Total pinned bytes held (the Table 6 quantity). */
    size_t bytes() const { return bytes_; }

    /** Populate all parameter records from @p model. */
    void uploadParams(const GaussianModel &model);

    /** Write back all parameter records into @p model. */
    void downloadParams(GaussianModel &model) const;

  private:
    size_t n_ = 0;
    size_t bytes_ = 0;
    std::unique_ptr<std::byte[]> storage_;
    std::byte *params_ = nullptr;
    std::byte *grads_ = nullptr;
    std::byte *signals_ = nullptr;
};

} // namespace clm

#endif // CLM_OFFLOAD_PINNED_POOL_HPP
