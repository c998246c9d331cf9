/**
 * @file
 * Train-time model snapshots: the hand-off point between the training
 * loop (which mutates the host-resident model every batch) and the
 * serving subsystem (which renders client views concurrently). The
 * trainer publishes an immutable copy of the model at step boundaries;
 * readers acquire the current snapshot by shared_ptr and can keep
 * rendering from it for as long as they like — they never observe torn
 * parameters, because a snapshot is copied while no training step is in
 * flight and is immutable afterwards.
 *
 * Publication is double-buffered: the slot keeps the previously retired
 * snapshot and reuses its buffers for the next publish when no reader
 * still holds it, so steady-state publishing allocates nothing.
 */

#ifndef CLM_SERVE_SNAPSHOT_HPP
#define CLM_SERVE_SNAPSHOT_HPP

#include <cstdint>
#include <memory>
#include <mutex>

#include "gaussian/model.hpp"

namespace clm {

class FaultInjector;

/** One immutable published model state. */
struct ModelSnapshot
{
    GaussianModel model;
    uint64_t version = 0;      //!< Publication sequence number (from 1).
    int train_step = 0;        //!< Trainer batches completed at publish.
    /** hashModelParams() of the model, so served frames can be traced
     *  back to exactly one published state (the
     *  snapshot-swap-under-load test keys on it). */
    uint64_t param_hash = 0;
};

/**
 * Hash of every raw parameter of @p model: a word-at-a-time
 * multiplicative mix over each attribute array in fixed 4096-row
 * chunks, chunks hashed in parallel on the global pool and combined in
 * (array, chunk) order with splitmix64. The value depends only on the
 * parameters, never on the thread count, and changing any single
 * parameter always changes it.
 */
uint64_t hashModelParams(const GaussianModel &model);

/**
 * Single-publisher / multi-reader snapshot slot (see file comment).
 * publish() is meant to be called from one thread at a time (the
 * training loop); acquire() is safe from any number of threads.
 */
class SnapshotSlot
{
  public:
    /** Copy @p model into a (reused when possible) buffer, stamp it
     *  with the next version and @p train_step, and make it current.
     *  Copy and hash are one parallel pass: each fixed hash chunk is
     *  copied and hashed (from the source bytes, so the hash equals
     *  hashModelParams(model)) by the same pool task. The pass runs
     *  outside the slot lock, so readers are never blocked for longer
     *  than a pointer swap. */
    void publish(const GaussianModel &model, int train_step);

    /** The current snapshot; nullptr before the first publish(). */
    std::shared_ptr<const ModelSnapshot> acquire() const;

    /** Version of the current snapshot (0 before the first publish). */
    uint64_t version() const;

    /** Fault injection, tests only: publish() runs the PublishDelay
     *  point (util/fault.hpp) after the model copy, *before* the swap
     *  that makes the new snapshot current — readers keep serving the
     *  previous snapshot for the duration. @p faults must outlive the
     *  slot (or be reset to null first); null disables. */
    void setFaultInjector(FaultInjector *faults);

  private:
    FaultInjector *faultInjector() const;

    mutable std::mutex mutex_;
    FaultInjector *faults_ = nullptr;
    std::shared_ptr<const ModelSnapshot> current_;
    /** Retired snapshot kept for buffer reuse (double buffering). */
    std::shared_ptr<const ModelSnapshot> spare_;
    uint64_t next_version_ = 1;
};

} // namespace clm

#endif // CLM_SERVE_SNAPSHOT_HPP
