/**
 * @file
 * RenderService — the concurrent serving subsystem. Clients submit
 * ViewRequests (a posed camera) and get back a rendered frame of the
 * *live* training model. Requests land on a thread-safe queue; worker
 * threads drain it in batches of up to max_batch and render every
 * batch — a batch of one included — through the one fused multi-view
 * pipeline (render/batch.hpp): frustumCullBatch, whose shared per-
 * Gaussian stage is cached per snapshot version so consecutive wakeups
 * on the same published state skip it, then renderForwardBatch's
 * shared projection/binning pass with per-view tile ranges carved out
 * of one key-sorted buffer. Each worker owns a RenderArena, so
 * steady-state serving allocates almost nothing. Frames are bitwise
 * identical to a direct frustumCull + renderForward of the same
 * snapshot (renderForwardBatch's per-view contract).
 *
 * Serving runs concurrently with training: workers render from the
 * SnapshotSlot's current ModelSnapshot (serve/snapshot.hpp), which the
 * trainer republishes at step boundaries — clients never observe torn
 * parameters, and every response carries the snapshot version/hash it
 * was rendered from so served frames are traceable to exactly one
 * published state.
 *
 * Overload is a first-class input, not an error path: every submit()
 * resolves to a RenderResponse with an explicit ServeStatus — never a
 * hang, never a broken promise. AdmissionConfig picks the shed policy
 * (Block preserves the original backpressure-by-blocking behavior;
 * Reject sheds on a full queue; DropOldest evicts the stalest queued
 * request to admit the newest), an optional per-request deadline
 * (expired requests are swept out at dequeue time and failed fast
 * without rendering), and per-client token-bucket fairness keyed by
 * the client id passed to submit(). Shedding changes *which* requests
 * render, never *what* a render produces.
 *
 * Counters, gauges and the queue-wait / render-time / end-to-end
 * latency histograms live in a MetricsRegistry (serve.*); ServeStats
 * is the read-side view of it, and bench/micro_serve.cpp and
 * bench/micro_overload.cpp record it in BENCH_serve.json /
 * BENCH_overload.json. The request path records tracer spans
 * (serve.admit on the submitting thread; a cross-thread
 * serve.queue_wait async span closed at worker dequeue;
 * serve.render_batch around the batch render, whose per-stage
 * children come from the pipeline's StageClocks). The request id
 * doubles as the trace id, so a Perfetto view of the trace follows one
 * request across threads. Tracing reads clocks and writes ring slots
 * only — frames stay bitwise identical with it enabled.
 */

#ifndef CLM_SERVE_RENDER_SERVICE_HPP
#define CLM_SERVE_RENDER_SERVICE_HPP

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "render/batch.hpp"
#include "render/camera.hpp"
#include "render/image.hpp"
#include "render/rasterizer.hpp"
#include "serve/snapshot.hpp"
#include "util/fault.hpp"
#include "util/mpmc_queue.hpp"
#include "util/timer.hpp"

namespace clm {

/** Outcome of one submitted request (RenderResponse::status). */
enum class ServeStatus : int
{
    Ok = 0,               //!< Rendered; image/provenance fields valid.
    ShedQueueFull = 1,    //!< Shed at admission: queue at capacity.
    ShedDeadline = 2,     //!< Expired in queue past its deadline.
    RejectedShutdown = 3, //!< Submitted after stop(); nothing rendered.
    ThrottledClient = 4,  //!< Client token bucket empty.
};

/** Stable lowercase name ("ok", "shed_queue_full", ...). */
const char *serveStatusName(ServeStatus s);

/** What submit() does when the request queue is at capacity. */
enum class ShedPolicy : int
{
    Block = 0,      //!< Block the caller until space (backpressure).
    Reject = 1,     //!< Fail the new request with ShedQueueFull.
    DropOldest = 2, //!< Evict the stalest queued request, admit new.
};

/**
 * Admission control (ServeConfig::admission). Defaults reproduce the
 * historical behavior exactly: block on a full queue, no deadlines, no
 * per-client throttling.
 */
struct AdmissionConfig
{
    ShedPolicy shed = ShedPolicy::Block;
    /** Per-request deadline in seconds from submit to *render start*
     *  (checked when a worker dequeues; a request already being
     *  rendered is never cancelled). 0 disables deadlines. */
    double deadline_s = 0;
    /** Block policy only: give up with ShedQueueFull after waiting
     *  this long for queue space. 0 blocks indefinitely. */
    double block_timeout_s = 0;
    /** Per-client token bucket: capacity in requests. 0 disables
     *  throttling. Each admitted request costs one token. */
    double client_burst = 0;
    /** Token refill rate in requests/second (0 = no refill: exactly
     *  the first client_burst requests per client are admitted — the
     *  deterministic configuration the fairness tests use). */
    double client_rate = 0;
};

/** Serving configuration. */
struct ServeConfig
{
    int workers = 1;             //!< Render worker threads.
    /** Coalescing cap: a worker drains up to this many queued requests
     *  per wakeup and renders them as one fused batch (1 renders every
     *  request as a batch of one through the same pipeline). */
    int max_batch = 4;
    size_t queue_capacity = 1024;
    RenderConfig render;
    /** Overload policy: shed/deadline/fairness (see AdmissionConfig). */
    AdmissionConfig admission;
    /** Fault injection, tests only (util/fault.hpp): may stall workers
     *  at the pop loop and force admission-path saturation. Must
     *  outlive the service. Null in production. */
    FaultInjector *faults = nullptr;
    /** Metrics registry the service reports through (serve.* counters,
     *  queue-wait / render-time / latency histograms). Null = the
     *  service owns a private registry (readable via metrics()); pass
     *  one to aggregate several services or export alongside training
     *  metrics. Must outlive the service. */
    MetricsRegistry *metrics = nullptr;
};

/** One served frame plus its provenance and accounting. */
struct RenderResponse
{
    /** Admission outcome. Only Ok responses carry a rendered image;
     *  shed/rejected/throttled responses report id, status and
     *  queue_s (time spent queued before shedding, 0 if never
     *  admitted) with an empty image. */
    ServeStatus status = ServeStatus::Ok;
    Image image;
    uint64_t request_id = 0;
    uint64_t client_id = 0;          //!< Fairness key from submit().
    uint64_t snapshot_version = 0;   //!< ModelSnapshot::version rendered.
    uint64_t snapshot_hash = 0;      //!< ModelSnapshot::param_hash.
    int train_step = 0;              //!< Trainer step of that snapshot.
    int batch_size = 0;              //!< Size of the coalesced batch.
    double queue_s = 0;              //!< Time spent waiting in the queue.
    double render_s = 0;             //!< Wall time of the batch render.

    bool ok() const { return status == ServeStatus::Ok; }
};

/** Aggregate serving counters (see stats()). */
struct ServeStats
{
    uint64_t requests = 0;           //!< Responses rendered (Ok).
    uint64_t batches = 0;            //!< Coalesced batches rendered.
    double mean_batch = 0;           //!< requests / batches.
    double elapsed_s = 0;            //!< Since service start.
    double requests_per_s = 0;       //!< requests / elapsed.
    /** @name Admission-control counters (see AdmissionConfig)
     * submitted = requests + every shed/rejected/throttled outcome;
     * no request ever goes unaccounted.
     */
    /// @{
    uint64_t submitted = 0;          //!< submit() calls, any outcome.
    uint64_t shed_queue_full = 0;    //!< ShedQueueFull responses.
    uint64_t shed_deadline = 0;      //!< ShedDeadline responses.
    uint64_t rejected_shutdown = 0;  //!< RejectedShutdown responses.
    uint64_t throttled_client = 0;   //!< ThrottledClient responses.
    size_t queue_depth = 0;          //!< Gauge: queued right now.
    /// @}
    /** @name Latency of admitted (rendered) requests
     * End to end from submit() to the response, and its split into time
     * queued behind other work vs the batch render wall time (counted
     * once per request of the batch). All three come from the
     * serve.latency_ms / serve.queue_wait_ms / serve.render_ms registry
     * histograms, so percentiles are log-bucket upper edges
     * (deterministic, ~9% resolution); means and the max are exact.
     */
    /// @{
    double p50_ms = 0;               //!< Median request latency.
    double p99_ms = 0;               //!< Tail request latency.
    double mean_ms = 0;
    double max_ms = 0;
    double queue_wait_p50_ms = 0;
    double queue_wait_p99_ms = 0;
    double queue_wait_mean_ms = 0;
    double render_p50_ms = 0;
    double render_p99_ms = 0;
    double render_mean_ms = 0;
    /// @}
    uint64_t min_snapshot_version = 0;   //!< Oldest snapshot served.
    uint64_t max_snapshot_version = 0;   //!< Newest snapshot served.
    /** batch_occupancy[k] counts the wakeups that rendered a batch of
     *  k+1 requests (sized to the largest batch seen): how well
     *  coalescing is working. */
    std::vector<uint64_t> batch_occupancy;
};

/** See file comment. */
class RenderService
{
  public:
    /**
     * Start @p config.workers worker threads serving from @p snapshots.
     * @p snapshots must outlive the service and must have at least one
     * published snapshot before the first request is rendered.
     */
    RenderService(const SnapshotSlot &snapshots, ServeConfig config);

    /** Stops and joins the workers (pending requests are drained). */
    ~RenderService();

    RenderService(const RenderService &) = delete;
    RenderService &operator=(const RenderService &) = delete;

    /**
     * Enqueue a view request under the configured admission policy
     * (@p client_id keys per-client fairness; callers without a notion
     * of clients can leave it 0). The returned future ALWAYS resolves
     * to a RenderResponse — never a hang past the policy's blocking
     * window, never a std::future_error: an admitted request resolves
     * with status Ok when a worker has rendered it; a shed, throttled,
     * expired, or submitted-after-stop() request resolves immediately
     * (or at dequeue, for deadline expiry) with the matching non-Ok
     * status and an empty image. Block policy blocks the *caller*
     * while the queue is at capacity (bounded by
     * AdmissionConfig::block_timeout_s when set) — that is its
     * backpressure contract — but the future it returns still always
     * resolves.
     */
    std::future<RenderResponse> submit(const Camera &camera,
                                       uint64_t client_id = 0);

    /** Close the queue, drain pending requests, join the workers.
     *  Idempotent; also run by the destructor. Requests already queued
     *  are still rendered (deadline sweeping applies); submits that
     *  arrive after close resolve with RejectedShutdown. */
    void stop();

    /** Aggregate counters since construction (callable any time). */
    ServeStats stats() const;

    /** The registry this service reports through: the injected
     *  ServeConfig::metrics, or the service-owned one. */
    const MetricsRegistry &metrics() const
    { return *metrics_; }

    const ServeConfig &config() const { return config_; }

  private:
    struct PendingRequest
    {
        Camera camera;
        uint64_t id = 0;          //!< Request id; doubles as trace id.
        uint64_t client_id = 0;
        double enqueue_s = 0;
        double deadline_s = 0;    //!< Absolute (clock_); 0 = none.
        /** Tracer-clock enqueue stamp (0 when tracing was off at
         *  submit): lets the dequeuing worker close the cross-thread
         *  serve.queue_wait async span. */
        uint64_t enqueue_ns = 0;
        std::promise<RenderResponse> reply;
    };

    /** Tokens-available state of one client's bucket. */
    struct TokenBucket
    {
        double tokens = 0;
        double refill_s = 0;    //!< Last refill timestamp (clock_).
    };

    void workerLoop();
    /** Admission front half of the worker loop: pop a batch, failing
     *  deadline-expired requests fast. False = queue drained and
     *  closed. */
    bool admitBatch(std::vector<PendingRequest> &batch,
                    std::vector<PendingRequest> &expired);
    /** Fulfill @p req with a non-Ok @p status (empty image) and bump
     *  the matching counter. */
    void failRequest(PendingRequest &req, ServeStatus status);
    /** Token-bucket check; true admits (and debits) the client. */
    bool admitClient(uint64_t client_id);
    void recordBatch(size_t batch_size, uint64_t snapshot_version);
    /** Resolve the serve.* metric handles (once, before workers). */
    void initMetrics();

    ServeConfig config_;
    const SnapshotSlot *snapshots_ = nullptr;
    MpmcQueue<PendingRequest> queue_;
    std::vector<std::thread> workers_;
    Timer clock_;    //!< Service-lifetime clock (latency timestamps).
    bool stopped_ = false;
    std::mutex stop_mutex_;

    std::mutex admission_mutex_;    //!< Guards buckets_.
    std::unordered_map<uint64_t, TokenBucket> buckets_;

    /** Private registry used when ServeConfig::metrics is null. */
    MetricsRegistry own_metrics_;
    MetricsRegistry *metrics_ = nullptr;    //!< The registry in use.
    /** @name Resolved serve.* handles (lock-free record paths).
     * The exact counters / histograms the bespoke ServeStats fields
     * were re-plumbed through in PR 9; stats() reads them back.
     */
    /// @{
    Counter *m_submitted_ = nullptr;
    Counter *m_requests_ = nullptr;
    Counter *m_batches_ = nullptr;
    Counter *m_shed_queue_full_ = nullptr;
    Counter *m_shed_deadline_ = nullptr;
    Counter *m_rejected_shutdown_ = nullptr;
    Counter *m_throttled_client_ = nullptr;
    Gauge *m_queue_depth_ = nullptr;
    Histogram *m_queue_wait_ms_ = nullptr;
    Histogram *m_render_ms_ = nullptr;
    Histogram *m_latency_ms_ = nullptr;
    /// @}

    std::atomic<uint64_t> next_id_{1};

    mutable std::mutex stats_mutex_;    //!< Guards the fields below.
    uint64_t min_version_ = 0;
    uint64_t max_version_ = 0;
    std::vector<uint64_t> batch_occupancy_;  //!< [k] = batches of k+1.
};

} // namespace clm

#endif // CLM_SERVE_RENDER_SERVICE_HPP
