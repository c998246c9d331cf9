/**
 * @file
 * Host-side pinned-memory pool for offloaded Gaussian state (§5.2, §5.4).
 * It holds one gradient record per Gaussian — all 59 parameter
 * gradients, cache-line padded and accumulated in place by the RMW
 * store kernel — plus the completion-signal slots. The non-critical
 * parameters have one host copy, the master model's rows: the selective
 * loading kernel packs each loaded row straight from them and CPU Adam
 * updates them in place (§5.4), so no parameter record is kept here.
 * Optimizer state is not pinned either. PinnedLayout still models the
 * GPU system's pinned parameter records for the Table 6 accounting.
 */

#ifndef CLM_OFFLOAD_PINNED_POOL_HPP
#define CLM_OFFLOAD_PINNED_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <memory>

#include "gaussian/attributes.hpp"

namespace clm {

/** Pinned completion-signal slots (§5.4): the TransferEngine cycles
 *  microbatch finalization signals through them. */
constexpr size_t kSignalSlots = 64;

/** Pinned-memory sizing of the GPU system, exposed for the Table 6
 *  bench: there, parameter and gradient records are both pinned. */
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
 * it is page-aligned host memory with identical layout, so the RMW scatter
 * and the finalization pass exercise the same addressing.
 */
class PinnedPool
{
  public:
    /** Allocate gradient records for @p n Gaussians and the signal
     *  slots, zeroed in one pass (zeroBytes, util/thread_pool.hpp). */
    explicit PinnedPool(size_t n);

    size_t size() const { return n_; }

    /** Gradient record (59 floats + padding) of Gaussian i. */
    float *gradRecord(size_t i);
    const float *gradRecord(size_t i) const;

    /**
     * Signal buffer slot (§5.4): the communication stream writes a
     * completion flag here via DMA; the CPU Adam thread spins on it.
     */
    uint32_t *signalSlot(size_t slot);

    /** Total pinned bytes held: n·gradStride() + the signal slots. */
    size_t bytes() const { return bytes_; }

  private:
    size_t n_ = 0;
    size_t bytes_ = 0;
    std::unique_ptr<std::byte[]> storage_;
    std::byte *grads_ = nullptr;
    std::byte *signals_ = nullptr;
};

} // namespace clm

#endif // CLM_OFFLOAD_PINNED_POOL_HPP
