#include "serve/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "util/fault.hpp"
#include "util/mix.hpp"
#include "util/thread_pool.hpp"

namespace clm {

namespace {

/** Rows per hash chunk. Fixed, so chunk boundaries — and with them the
 *  hash — never depend on how chunks are spread over threads. */
constexpr size_t kHashChunkRows = 4096;

/** Odd multiplier of the word mix (the 64-bit golden ratio). */
constexpr uint64_t kWordMul = 0x9e3779b97f4a7c15ull;

/**
 * Word-at-a-time mix of @p bytes at @p data into @p h, storing each
 * word to @p copy_to as it goes when that is non-null (one read of the
 * source for copy and hash). Each step h = (h ^ w) * odd is a bijection
 * of h, so changing any one word of the input always changes the
 * result.
 */
uint64_t
mixWords(const unsigned char *data, size_t bytes, uint64_t h,
         unsigned char *copy_to)
{
    size_t i = 0;
    if (copy_to != nullptr) {
        for (; i + sizeof(uint64_t) <= bytes; i += sizeof(uint64_t)) {
            uint64_t w;
            std::memcpy(&w, data + i, sizeof(w));
            std::memcpy(copy_to + i, &w, sizeof(w));
            h = (h ^ w) * kWordMul;
        }
        std::memcpy(copy_to + i, data + i, bytes - i);
    }
    for (; i + sizeof(uint64_t) <= bytes; i += sizeof(uint64_t)) {
        uint64_t w;
        std::memcpy(&w, data + i, sizeof(w));
        h = (h ^ w) * kWordMul;
    }
    if (i < bytes) {
        uint64_t w = 0;
        std::memcpy(&w, data + i, bytes - i);
        h = (h ^ w) * kWordMul;
    }
    return h;
}

/**
 * The one chunked pass over @p model's five raw attribute arrays: per
 * fixed row chunk, hash every array's chunk of @p model into its fixed
 * (array, chunk) slot and, when @p copy_to is given (already sized
 * like @p model), copy the chunk into it word by word in the same
 * loop. The hash always mixes the source words, so it is the same
 * with or without a copy. Returns the combined hash.
 */
uint64_t
hashChunks(const GaussianModel &model, GaussianModel *copy_to)
{
    const size_t n = model.size();
    uint64_t h = splitmix64(n);
    if (n == 0)
        return h;

    struct Array
    {
        const void *src;
        void *dst;
        size_t row_bytes;
    };
    GaussianModel *d = copy_to;
    const Array arrays[] = {
        {&model.position(0), d ? &d->position(0) : nullptr, sizeof(Vec3)},
        {&model.logScale(0), d ? &d->logScale(0) : nullptr, sizeof(Vec3)},
        {&model.rotation(0), d ? &d->rotation(0) : nullptr, sizeof(Quat)},
        {model.sh(0), d ? d->sh(0) : nullptr, kShDim * sizeof(float)},
        {&model.rawOpacity(0), d ? &d->rawOpacity(0) : nullptr,
         sizeof(float)},
    };
    constexpr size_t kArrays = sizeof(arrays) / sizeof(arrays[0]);
    const size_t chunks = (n + kHashChunkRows - 1) / kHashChunkRows;

    // One task per row chunk covers that chunk of every array, so tasks
    // carry equal work; chunk hashes land at fixed slots.
    std::vector<uint64_t> chunk_hash(kArrays * chunks);
    poolForRange(chunks, true, 2, [&](size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
            const size_t row0 = c * kHashChunkRows;
            const size_t rows = std::min(kHashChunkRows, n - row0);
            for (size_t a = 0; a < kArrays; ++a) {
                const size_t off = row0 * arrays[a].row_bytes;
                const size_t bytes = rows * arrays[a].row_bytes;
                unsigned char *dst =
                    arrays[a].dst == nullptr
                        ? nullptr
                        : static_cast<unsigned char *>(arrays[a].dst) + off;
                chunk_hash[a * chunks + c] = mixWords(
                    static_cast<const unsigned char *>(arrays[a].src) + off,
                    bytes, 0, dst);
            }
        }
    });
    // Combine in (array, chunk) order; splitmix64 is a bijection too, so
    // a change confined to one chunk still changes the result.
    for (uint64_t ch : chunk_hash)
        h = splitmix64(h ^ ch);
    return h;
}

} // namespace

uint64_t
hashModelParams(const GaussianModel &model)
{
    return hashChunks(model, nullptr);
}

void
SnapshotSlot::publish(const GaussianModel &model, int train_step)
{
    // Reclaim the retired buffer when no reader still holds it; only
    // current_ is ever handed out, so a spare_ with use_count() == 1
    // (observed under the lock) can never be re-acquired concurrently.
    std::shared_ptr<ModelSnapshot> buf;
    uint64_t version;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (spare_ && spare_.use_count() == 1) {
            buf = std::const_pointer_cast<ModelSnapshot>(spare_);
            spare_.reset();
        }
        version = next_version_++;
    }
    if (!buf)
        buf = std::make_shared<ModelSnapshot>();

    // One parallel pass copies and hashes the model chunk by chunk,
    // outside the lock: readers keep serving the previous snapshot
    // untouched in the meantime. A recycled buffer of the same size is
    // overwritten in place.
    buf->model.resize(model.size());
    buf->param_hash = hashChunks(model, &buf->model);
    buf->version = version;
    buf->train_step = train_step;

    // Fault injection (tests): a slow/stalled publication. Readers are
    // unaffected structurally — they keep acquiring the previous
    // snapshot until the swap below.
    if (FaultInjector *f = faultInjector())
        f->inject(FaultPoint::PublishDelay);

    std::lock_guard<std::mutex> lock(mutex_);
    spare_ = std::move(current_);
    current_ = std::move(buf);
}

void
SnapshotSlot::setFaultInjector(FaultInjector *faults)
{
    std::lock_guard<std::mutex> lock(mutex_);
    faults_ = faults;
}

FaultInjector *
SnapshotSlot::faultInjector() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return faults_;
}

std::shared_ptr<const ModelSnapshot>
SnapshotSlot::acquire() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
}

uint64_t
SnapshotSlot::version() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_ ? current_->version : 0;
}

} // namespace clm
