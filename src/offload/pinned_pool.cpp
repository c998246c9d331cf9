#include "offload/pinned_pool.hpp"

#include "gaussian/model.hpp"
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
    bytes_ = PinnedLayout::totalBytes(n);
    // +64 so we can cache-line-align the base, as cudaHostAlloc would.
    // Default-initialized: zeroBytes() below is the one zeroing pass.
    storage_.reset(new std::byte[bytes_ + kCacheLineBytes]);
    auto base = reinterpret_cast<uintptr_t>(storage_.get());
    uintptr_t aligned =
        (base + kCacheLineBytes - 1) & ~(uintptr_t(kCacheLineBytes) - 1);
    params_ = reinterpret_cast<std::byte *>(aligned);
    grads_ = params_ + n_ * PinnedLayout::paramStride();
    signals_ = grads_ + n_ * PinnedLayout::gradStride();
    zeroBytes(params_, bytes_);
}

float *
PinnedPool::paramRecord(size_t i)
{
    CLM_ASSERT(i < n_, "param record out of range");
    return reinterpret_cast<float *>(params_
                                     + i * PinnedLayout::paramStride());
}

const float *
PinnedPool::paramRecord(size_t i) const
{
    return const_cast<PinnedPool *>(this)->paramRecord(i);
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

void
PinnedPool::uploadParams(const GaussianModel &model)
{
    CLM_ASSERT(model.size() == n_, "model/pool size mismatch");
    for (size_t i = 0; i < n_; ++i)
        model.packNonCritical(i, paramRecord(i));
}

void
PinnedPool::downloadParams(GaussianModel &model) const
{
    CLM_ASSERT(model.size() == n_, "model/pool size mismatch");
    for (size_t i = 0; i < n_; ++i)
        model.unpackNonCritical(i, paramRecord(i));
}

} // namespace clm
