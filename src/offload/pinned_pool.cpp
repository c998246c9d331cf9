#include "offload/pinned_pool.hpp"

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

size_t
PinnedLayout::totalBytes(size_t n)
{
    return n * (paramStride() + gradStride())
         + kSignalSlots * kCacheLineBytes;
}

PinnedPool::PinnedPool(size_t n) : n_(n)
{
    bytes_ = n * PinnedLayout::gradStride() + kSignalSlots * kCacheLineBytes;
    // +64 so we can cache-line-align the base, as cudaHostAlloc would.
    // Default-initialized: zeroBytes() below is the one zeroing pass.
    storage_.reset(new std::byte[bytes_ + kCacheLineBytes]);
    auto base = reinterpret_cast<uintptr_t>(storage_.get());
    uintptr_t aligned =
        (base + kCacheLineBytes - 1) & ~(uintptr_t(kCacheLineBytes) - 1);
    grads_ = reinterpret_cast<std::byte *>(aligned);
    signals_ = grads_ + n_ * PinnedLayout::gradStride();
    zeroBytes(grads_, bytes_);
}

float *
PinnedPool::gradRecord(size_t i)
{
    CLM_ASSERT(i < n_, "grad record out of range");
    return reinterpret_cast<float *>(grads_
                                     + i * PinnedLayout::gradStride());
}

const float *
PinnedPool::gradRecord(size_t i) const
{
    return const_cast<PinnedPool *>(this)->gradRecord(i);
}

uint32_t *
PinnedPool::signalSlot(size_t slot)
{
    CLM_ASSERT(slot < kSignalSlots, "signal slot out of range");
    return reinterpret_cast<uint32_t *>(signals_
                                        + slot * kCacheLineBytes);
}

} // namespace clm
