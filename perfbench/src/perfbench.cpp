/**
 * @file
 * The repository benchmark: CLM training throughput and open-loop live
 * serving, end to end and layer by layer.
 *
 * Every workload runs the same two phases through the entry points a user
 * calls. First a CLM trainer (ClmTrainer with the asynchronous Adam
 * thread, set up exactly as the Clm facade sets it up) trains BigCity
 * (150k Gaussians, ~0.6% of the model per view, so offload work — cull,
 * plan, TSP, Adam finalization, snapshot copy — dominates) for a fixed
 * number of batches through Trainer::trainSteps, publishing a snapshot
 * after every batch. Then a RenderService (one worker, max_batch 4)
 * serves the trained model under an open-loop arrival schedule:
 *
 *  - serve_city: a second thread republishes the last two trained states
 *    through SnapshotSlot::publish at a fixed cadence, so per-snapshot
 *    caches are invalidated as they would be during live training.
 *  - serve_city_static: one static snapshot, so those caches stay warm.
 *
 * With --trace 0 the program prints the end-to-end metrics; with
 * --trace 1 it enables a private Tracer, rolls the program's spans and
 * its own spans (recorded around each call into a layer) up into
 * per-layer count/total/self time, runs a rate ladder for the highest
 * rate that meets the latency limit, and prints the per-layer metrics.
 * Output checks run in both modes and make the program exit non-zero:
 * finite training losses, final PSNR above the trainee's initial PSNR,
 * every serving future resolved, sampled served frames bitwise equal to a
 * direct frustumCull + renderForward of the snapshot they name, and (when
 * tracing) no dropped spans. --corrupt feeds a deliberately broken input
 * to show each check fails the run.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--corrupt loss|psnr|unresolved|frame|spans]
 *                  [--git-commit SHA]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common.hpp"
#include "core/config.hpp"
#include "gaussian/attributes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "render/arena.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "rollup.hpp"
#include "scene/camera_path.hpp"
#include "scene/synthetic.hpp"
#include "serve/render_service.hpp"
#include "serve/snapshot.hpp"
#include "train/clm_trainer.hpp"
#include "train/quality_harness.hpp"

using namespace clm;
using perfbench::Rollup;
using perfbench::rollupSpans;
using perfbench::SpanTotals;
using perfbench::totalsOf;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Percentile @p p (0..100) by linear interpolation between order
 *  statistics; +inf entries sort last (misses of any latency limit). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    if (std::isinf(v[hi]))
        return v[hi];
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

/** Sub-windows a phase's queue depth is split into for backlog growth. */
constexpr size_t kWindows = 10;

/** Rounds each fixed-rate phase is split into (see RoundSet). */
constexpr size_t kRounds = 5;

/** Requests the service coalesces per wakeup. */
constexpr int kMaxBatch = 4;

/** Queue growth across a phase that counts as a growing backlog: two
 *  coalesced batches. */
constexpr double kBacklogDepth = 2.0 * kMaxBatch;

// ---------------------------------------------------------------------------
// Workloads

/** Which deliberately broken input to feed (output-check self test). */
enum class Corrupt
{
    None,
    Loss,          //!< NaN in every training target: non-finite losses.
    Psnr,          //!< Inverted training targets: PSNR cannot improve.
    Unresolved,    //!< One request's future is never fulfilled.
    Frame,         //!< The frame check's reference model is perturbed.
    Spans,         //!< A tiny trace ring: the traced run drops spans.
};

/** Served frame size, the same on every workload. */
constexpr int kServeWidth = 128;
constexpr int kServeHeight = 72;

/** Latency limit of the rate ladder's SLO. */
constexpr double kP99LimitMs = 80;

/** Set-ups per run; setup_s is their median. */
constexpr size_t kSetups = 5;

/** Share of traced batch wall time the blocking steps may leave
 *  unaccounted before the traced run warns. */
constexpr double kUnaccountedTolerance = 0.05;

/**
 * One workload. The batch time and serving capacity are frozen values
 * measured at the commit that defined the benchmark (gcc 12 Release,
 * 4-vCPU x86-64 with AVX2, CLM_THREADS=4): they fix how many batches a run
 * trains and the absolute request rates of the serving phases, so a slower
 * program shows as fewer images/s and higher latency rather than as a
 * smaller workload.
 */
struct Workload
{
    const char *name;
    SceneSpec scene;
    size_t gaussians;
    int views, width, height, batch;
    int warmup_batches;
    double nominal_batch_s;    //!< Measured batch wall time.
    double train_share;        //!< Share of --seconds spent training.
    /** The low end of the overload goodput measured across seeds: the
     *  serving rates are fractions of it, so the high phase stays below
     *  saturation on a run that caught a slow host. */
    double capacity_rps;
    /** Snapshot republish cadence while serving; 0 serves one static
     *  snapshot. */
    double republish_s;
};

/** Republish cadence of serve_city: the batch wall time of a CLM trainer
 *  on BigCity 400k (64 views at 160x90, batch 16, async Adam), measured as
 *  0.48-0.54 s, so the serving reads see writes as often as live training
 *  of a large model makes them. */
constexpr double kRepublishS = 0.5;

Workload
workloadByName(const std::string &name)
{
    // The two workloads differ only in republishing: serve_city exercises
    // the rebuild of every per-snapshot cache, serve_city_static bypasses it.
    if (name == "serve_city")
        return {"serve_city", SceneSpec::bigCity(), 150000, 64, 128, 72, 16,
                1, 0.2, 0.25, 350, kRepublishS};
    if (name == "serve_city_static")
        return {"serve_city_static", SceneSpec::bigCity(), 150000, 64, 128,
                72, 16, 1, 0.2, 0.25, 350, 0};
    throw std::invalid_argument("unknown workload '" + name
                                + "' (serve_city, serve_city_static)");
}

// ---------------------------------------------------------------------------
// Set-up: the Clm facade's construction sequence, one span per layer.

struct SetupTimes
{
    double generate_s = 0;
    double gt_render_s = 0;
    double init_s = 0;
    double total_s = 0;
};

struct Session
{
    ClmConfig config;
    std::vector<Camera> cameras;
    std::vector<Image> clean_gt;    //!< What PSNR is measured against.
    std::unique_ptr<ClmTrainer> trainer;
};

Session
setUp(const Workload &w, uint64_t seed, Corrupt corrupt, SetupTimes &t)
{
    Session s;
    s.config.scene = w.scene;
    s.config.scene.seed = seed;
    s.config.scene.batch_size = w.batch;
    s.config.scene.train = {w.gaussians, w.views, w.width, w.height};
    s.config.train.seed = seed;
    s.config.train.async_adam = true;
    s.config.applySceneDefaults();
    s.config.validate();
    const SceneSpec &scene = s.config.scene;

    const auto t0 = Clock::now();
    s.cameras = trainCameras(scene);
    GaussianModel gt;
    {
        ScopedSpan span("scene.generate");
        gt = generateGroundTruth(scene, scene.train.n_gaussians);
    }
    const auto t1 = Clock::now();
    {
        ScopedSpan span("scene.gt_render");
        s.clean_gt = renderGroundTruth(gt, s.cameras, s.config.train.render);
    }
    const auto t2 = Clock::now();

    std::vector<Image> targets = s.clean_gt;
    for (Image &img : targets) {
        if (corrupt == Corrupt::Loss)
            img.data()[0] = std::nanf("");
        if (corrupt == Corrupt::Psnr)
            for (float &x : img.data())
                x = 1.0f - x;
    }
    {
        ScopedSpan span("train.init");
        GaussianModel trainee =
            makeTrainee(gt, s.config.model_size, scene.seed);
        s.trainer = std::make_unique<ClmTrainer>(
            std::move(trainee), s.cameras, std::move(targets),
            s.config.train);
    }
    const auto t3 = Clock::now();
    t.generate_s = secondsBetween(t0, t1);
    t.gt_render_s = secondsBetween(t1, t2);
    t.init_s = secondsBetween(t2, t3);
    t.total_s = secondsBetween(t0, t3);
    return s;
}

/** Mean PSNR of @p model over the training views against @p gt. */
double
meanPsnr(const GaussianModel &model, const std::vector<Camera> &cams,
         const std::vector<Image> &gt, const RenderConfig &render)
{
    RenderArena arena;
    double acc = 0;
    for (size_t v = 0; v < cams.size(); ++v) {
        auto subset = frustumCull(model, cams[v]);
        acc += renderForward(model, cams[v], subset, render, arena)
                   .image.psnr(gt[v]);
    }
    return acc / static_cast<double>(cams.size());
}

// ---------------------------------------------------------------------------
// Training phase

struct TrainResult
{
    std::vector<double> batch_s;           //!< Untraced measured batches.
    std::vector<double> traced_batch_s;    //!< Traced measured batches.
    size_t batches = 0;
    size_t views = 0;
    size_t nonfinite = 0;
    size_t gaussians = 0;
    size_t adam_rows = 0;
    double h2d_bytes = 0;
    double d2h_bytes = 0;
    size_t cache_hits = 0;
    StageTimings stages;             //!< Measured batches only.
    double traced_stall_s = 0;       //!< Exposed staging waits, traced.
    double traced_trailing_s = 0;    //!< Trailing Adam waits, traced.
    size_t traced_views = 0;
    size_t traced_gaussians = 0;

    double gaussiansPerView() const
    { return static_cast<double>(gaussians) / static_cast<double>(views); }
    /** Bytes computed from record counts, not measured transfers. */
    double h2dMbPerView() const
    { return h2d_bytes / static_cast<double>(views) / 1e6; }
    /** Cached copies over (cached copies + pinned loads). */
    double cacheHitFrac() const
    {
        const double loads =
            h2d_bytes / static_cast<double>(kNonCriticalBytesPerGaussian);
        return static_cast<double>(cache_hits)
             / std::max(1.0, static_cast<double>(cache_hits) + loads);
    }
};

/** @p after minus @p before (scalar stage counters and batch clocks). */
StageTimings
stageDelta(const StageTimings &before, const StageTimings &after)
{
    StageTimings d;
    for (int s = 0; s < kNumTrainStages; ++s) {
        d.seconds[s] = after.seconds[s] - before.seconds[s];
        d.count[s] = after.count[s] - before.count[s];
    }
    d.microbatches.assign(after.microbatches.begin()
                              + static_cast<std::ptrdiff_t>(
                                  before.microbatches.size()),
                          after.microbatches.end());
    d.batch_seconds = after.batch_seconds - before.batch_seconds;
    d.trailing_adam_seconds =
        after.trailing_adam_seconds - before.trailing_adam_seconds;
    return d;
}

/**
 * Warm up, then train @p measured batches. When @p tracer is set, every
 * other measured batch runs traced, so the untraced batches of the same
 * run give the tracing overhead.
 */
TrainResult
trainPhase(ClmTrainer &trainer, int warmup, int measured, Tracer *tracer,
           std::shared_ptr<const ModelSnapshot> &before_last,
           const SnapshotSlot &slot)
{
    TrainResult r;
    for (int i = 0; i < warmup; ++i)
        for (const BatchStats &b : trainer.trainSteps(1))
            r.nonfinite += std::isfinite(b.loss) ? 0 : 1;

    const StageTimings start = trainer.stageTimings();
    for (int i = 0; i < measured; ++i) {
        if (i + 1 == measured)
            before_last = slot.acquire();
        const bool traced = tracer != nullptr && i % 2 == 1;
        const StageTimings pre = trainer.stageTimings();
        Tracer::enable(traced ? tracer : nullptr);
        const auto t0 = Clock::now();
        std::vector<BatchStats> stats;
        {
            ScopedSpan span("bench.train_batch");
            stats = trainer.trainSteps(1);
        }
        const double secs = secondsBetween(t0, Clock::now());
        Tracer::enable(nullptr);
        const BatchStats &b = stats.front();
        r.nonfinite += std::isfinite(b.loss) ? 0 : 1;
        r.batches += 1;
        const size_t views =
            static_cast<size_t>(trainer.config().batch_size);
        r.views += views;
        r.gaussians += b.gaussians_rendered;
        r.adam_rows += b.adam_updated;
        r.h2d_bytes += b.h2d_bytes;
        r.d2h_bytes += b.d2h_bytes;
        r.cache_hits += b.cache_hits;
        if (traced) {
            const StageTimings d = stageDelta(pre, trainer.stageTimings());
            r.traced_batch_s.push_back(secs);
            for (const StageTimings::Microbatch &m : d.microbatches)
                r.traced_stall_s += m.wait;
            r.traced_trailing_s += d.trailing_adam_seconds;
            r.traced_views += views;
            r.traced_gaussians += b.gaussians_rendered;
        } else {
            r.batch_s.push_back(secs);
        }
    }
    r.stages = stageDelta(start, trainer.stageTimings());
    return r;
}

// ---------------------------------------------------------------------------
// Serving phase

/**
 * Republishes two model states into a slot, alternately, at a fixed
 * cadence until stopped — the writes a live trainer makes beside the
 * serving reads.
 */
class Republisher
{
  public:
    Republisher(SnapshotSlot &slot, const GaussianModel &a,
                const GaussianModel &b, int train_step, double period_s)
        : slot_(slot), models_{&a, &b}, step_(train_step),
          period_(std::chrono::duration<double>(period_s)),
          thread_([this] { loop(); })
    {
    }

    ~Republisher() { stop(); }

    Republisher(const Republisher &) = delete;
    Republisher &operator=(const Republisher &) = delete;

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

    /** Publish wall times; read after stop(). */
    const std::vector<double> &publishSeconds() const { return publish_s_; }

  private:
    void
    loop()
    {
        auto next = Clock::now();
        for (size_t k = 0;; ++k) {
            next += std::chrono::duration_cast<Clock::duration>(period_);
            {
                std::unique_lock<std::mutex> lock(mutex_);
                if (cv_.wait_until(lock, next, [this] { return stop_; }))
                    return;
            }
            const auto t0 = Clock::now();
            {
                ScopedSpan span("serve.publish");
                slot_.publish(*models_[k % 2], step_);
            }
            publish_s_.push_back(secondsBetween(t0, Clock::now()));
        }
    }

    SnapshotSlot &slot_;
    const GaussianModel *models_[2];
    int step_;
    std::chrono::duration<double> period_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::vector<double> publish_s_;
    std::thread thread_;    //!< Last: starts after everything it reads.
};

/** A served frame kept for the post-timing bitwise check. */
struct FrameSample
{
    int camera = 0;
    uint64_t snapshot_hash = 0;
    Image image;
};

/** What one open-loop phase measured. */
struct PhaseResult
{
    std::string name;
    double rate = 0;
    size_t attempted = 0;
    size_t ok = 0;
    size_t refused = 0;       //!< Resolved with a non-Ok status.
    size_t unresolved = 0;    //!< Futures that never resolved.
    std::vector<double> latency_ms;    //!< Per request; misses are +inf.
    std::vector<double> queue_ms;      //!< Ok requests.
    std::vector<double> render_ms;     //!< Ok requests.
    std::vector<double> late_ms;       //!< Generator lateness.
    double goodput_rps = 0;
    double depth_growth = 0;    //!< Queue depth, last minus first window.
    std::set<uint64_t> versions;

    size_t failed() const { return refused + unresolved; }
    double p50() const { return percentile(latency_ms, 50); }
    double p99() const { return percentile(latency_ms, 99); }
};

/**
 * A fixed-rate phase run as short rounds interleaved with the other
 * phases, so a burst of interference from outside the program spoils one
 * round instead of the whole phase. Latency percentiles pool the samples
 * of every round but the one with the worst p99; goodput is the median
 * across rounds.
 */
struct RoundSet
{
    std::vector<PhaseResult> rounds;

    double p50() const { return percentile(trimmedLatencies(), 50); }
    double p99() const { return percentile(trimmedLatencies(), 99); }

    std::vector<double>
    trimmedLatencies() const
    {
        size_t worst = 0;
        for (size_t i = 1; i < rounds.size(); ++i)
            if (rounds[i].p99() > rounds[worst].p99())
                worst = i;
        std::vector<double> v;
        for (size_t i = 0; i < rounds.size(); ++i)
            if (i != worst || rounds.size() == 1)
                v.insert(v.end(), rounds[i].latency_ms.begin(),
                         rounds[i].latency_ms.end());
        return v;
    }
    double
    goodput() const
    {
        std::vector<double> v;
        for (const PhaseResult &r : rounds)
            v.push_back(r.goodput_rps);
        return median(v);
    }

    size_t
    sum(size_t PhaseResult::*field) const
    {
        size_t n = 0;
        for (const PhaseResult &r : rounds)
            n += r.*field;
        return n;
    }
    size_t attempted() const { return sum(&PhaseResult::attempted); }
    size_t ok() const { return sum(&PhaseResult::ok); }
    size_t unresolved() const { return sum(&PhaseResult::unresolved); }
    size_t failed() const { return attempted() - ok(); }

    std::vector<double>
    all(std::vector<double> PhaseResult::*field) const
    {
        std::vector<double> v;
        for (const PhaseResult &r : rounds)
            v.insert(v.end(), (r.*field).begin(), (r.*field).end());
        return v;
    }
};

/** Open-loop load generator state shared across phases. */
struct ServeDriver
{
    const std::vector<Camera> *cameras;
    const std::vector<int> *order;    //!< Seeded camera order.
    size_t cursor = 0;
    bool lose_one = false;    //!< Corrupt::Unresolved: drop one future.
};

/**
 * Submit requests to @p svc at @p rate for @p duration seconds on a fixed
 * schedule (open loop), then collect every response. A request's latency
 * runs from when it was due: (submit - due) + queue time + render time.
 * Refused and unresolved requests count as misses (+inf). Every
 * @p sample_every-th Ok frame is kept in @p samples (0 keeps none).
 */
PhaseResult
runPhase(const char *name, RenderService &svc, const Gauge &queue_depth,
         ServeDriver &drv, double rate, double duration,
         size_t sample_every, std::vector<FrameSample> *samples)
{
    PhaseResult r;
    r.name = name;
    r.rate = rate;
    const size_t n =
        std::max<size_t>(1, static_cast<size_t>(rate * duration));
    struct Pending
    {
        std::future<RenderResponse> fut;
        double due_s = 0;
        double submit_s = 0;
        int camera = 0;
    };
    std::vector<Pending> pending(n);
    std::vector<double> depth(n);
    std::promise<RenderResponse> never_fulfilled;
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    for (size_t i = 0; i < n; ++i) {
        const double due_s = static_cast<double>(i) / rate;
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due_s)));
        Pending &p = pending[i];
        p.due_s = due_s;
        p.submit_s = secondsBetween(t0, Clock::now());
        p.camera = (*drv.order)[drv.cursor++ % drv.order->size()];
        p.fut = svc.submit((*drv.cameras)[p.camera]);
        if (drv.lose_one && samples != nullptr && i == n / 2) {
            p.fut = never_fulfilled.get_future();
            drv.lose_one = false;
        }
        depth[i] = queue_depth.value();
        r.late_ms.push_back((p.submit_s - due_s) * 1e3);
    }

    const auto give_up = Clock::now() + std::chrono::seconds(30);
    const double span_s = static_cast<double>(n) / rate;
    double done = 0;    //!< Ok completions inside the submission span.
    size_t ok_seen = 0;
    for (Pending &p : pending) {
        r.attempted += 1;
        if (p.fut.wait_until(give_up) != std::future_status::ready) {
            r.unresolved += 1;
            r.latency_ms.push_back(HUGE_VAL);
            continue;
        }
        RenderResponse resp = p.fut.get();
        if (!resp.ok()) {
            r.refused += 1;
            r.latency_ms.push_back(HUGE_VAL);
            continue;
        }
        r.ok += 1;
        const double done_s = p.submit_s + resp.queue_s + resp.render_s;
        if (done_s < span_s)
            done += 1;
        r.latency_ms.push_back((done_s - p.due_s) * 1e3);
        r.queue_ms.push_back(resp.queue_s * 1e3);
        r.render_ms.push_back(resp.render_s * 1e3);
        r.versions.insert(resp.snapshot_version);
        if (samples != nullptr && sample_every > 0
            && ok_seen++ % sample_every == 0) {
            samples->push_back(
                {p.camera, resp.snapshot_hash, std::move(resp.image)});
        }
    }
    r.goodput_rps = done / span_s;
    // Backlog growth: median queue depth of the last sub-window minus that
    // of the first (medians, so a transient stall does not read as a
    // growing queue).
    const size_t q = std::max<size_t>(1, n / kWindows);
    const double first = median(std::vector<double>(
        depth.begin(), depth.begin() + static_cast<std::ptrdiff_t>(q)));
    const double last = median(std::vector<double>(
        depth.end() - static_cast<std::ptrdiff_t>(q), depth.end()));
    r.depth_growth = last - first;
    return r;
}

/** A ladder rung meets the SLO when nothing was refused or lost, its p99
 *  is within @p limit_ms and the queue did not grow by a backlog. */
bool
meetsSlo(const PhaseResult &r, double limit_ms)
{
    return r.failed() == 0 && r.p99() <= limit_ms
        && r.depth_growth <= kBacklogDepth;
}

struct ServeResult
{
    RoundSet low, high, overload;
    std::vector<double> publish_s;
    std::vector<FrameSample> samples;
    std::vector<Camera> cameras;    //!< Request cameras (by index).
    std::vector<PhaseResult> ladder;
    double max_rps_in_slo = 0;    //!< Highest passing rung; 0 if none.
    double overload_mean_batch = 0;
};

/**
 * Serve for @p seconds: fixed-rate low/high phases and a Reject overload
 * phase, interleaved in rounds. With @p ladder set, a rate ladder follows
 * (on top of @p seconds) for serve_max_rps_in_slo.
 */
ServeResult
servePhase(const Workload &w, const Session &s, uint64_t seed,
           double seconds, bool ladder, const ModelSnapshot &prev,
           const ModelSnapshot &last, Corrupt corrupt)
{
    ServeResult out;
    out.cameras = generateCameraPath(s.config.scene, 2 * w.views,
                                     kServeWidth, kServeHeight);
    std::vector<int> order(out.cameras.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    Rng rng(seed ^ 0x5e7e);
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1],
                  order[static_cast<size_t>(rng.uniformInt(
                      0, static_cast<int64_t>(i) - 1))]);

    SnapshotSlot slot;
    slot.publish(last.model, last.train_step);
    std::unique_ptr<Republisher> publisher;
    if (w.republish_s > 0)
        publisher = std::make_unique<Republisher>(
            slot, prev.model, last.model, last.train_step, w.republish_s);

    ServeDriver drv{&out.cameras, &order};
    drv.lose_one = corrupt == Corrupt::Unresolved;
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = kMaxBatch;
    cfg.render = s.config.train.render;
    cfg.admission.shed = ShedPolicy::Reject;
    const double C = w.capacity_rps;
    {
        MetricsRegistry registry;
        cfg.metrics = &registry;
        cfg.queue_capacity = 1024;
        RenderService svc(slot, cfg);
        const Gauge &depth = registry.gauge("serve.queue_depth");
        // The overload service: three times the frozen capacity against a
        // short Reject queue.
        MetricsRegistry over_registry;
        ServeConfig over_cfg = cfg;
        over_cfg.metrics = &over_registry;
        over_cfg.queue_capacity = 2 * static_cast<size_t>(kMaxBatch);
        RenderService over_svc(slot, over_cfg);
        const Gauge &over_depth = over_registry.gauge("serve.queue_depth");

        runPhase("warm", svc, depth, drv, 0.25 * C, 0.3, 0, nullptr);
        runPhase("warm", over_svc, over_depth, drv, 3.0 * C, 0.3, 0,
                 nullptr);
        for (size_t r = 0; r < kRounds; ++r) {
            out.low.rounds.push_back(runPhase("low", svc, depth, drv,
                                              0.25 * C,
                                              0.45 * seconds / kRounds, 8,
                                              &out.samples));
            out.high.rounds.push_back(runPhase("high", svc, depth, drv,
                                               0.6 * C,
                                               0.35 * seconds / kRounds, 16,
                                               &out.samples));
            out.overload.rounds.push_back(
                runPhase("overload", over_svc, over_depth, drv, 3.0 * C,
                         0.2 * seconds / kRounds, 0, nullptr));
        }
        over_svc.stop();
        out.overload_mean_batch = over_svc.stats().mean_batch;

        // Rate ladder in 10% steps of the frozen capacity from half of it
        // to twice it, up to the first rung that misses.
        for (int k = 0; ladder && k <= 15; ++k) {
            out.ladder.push_back(runPhase("ladder", svc, depth, drv,
                                          (0.5 + 0.1 * k) * C,
                                          0.04 * seconds, 0, nullptr));
            if (!meetsSlo(out.ladder.back(), kP99LimitMs))
                break;
            out.max_rps_in_slo = out.ladder.back().rate;
        }
    }
    if (publisher) {
        publisher->stop();
        out.publish_s = publisher->publishSeconds();
    }
    return out;
}

/** Compare every sampled frame bitwise with a direct render of the
 *  snapshot its hash names. @return the number of mismatches. */
size_t
checkFrames(const std::vector<FrameSample> &samples,
            const std::vector<Camera> &cams,
            const std::map<uint64_t, const GaussianModel *> &models,
            const RenderConfig &render)
{
    size_t bad = 0;
    for (const FrameSample &f : samples) {
        auto it = models.find(f.snapshot_hash);
        if (it == models.end()) {
            ++bad;
            continue;
        }
        const GaussianModel &m = *it->second;
        const Camera &cam = cams[static_cast<size_t>(f.camera)];
        auto subset = frustumCull(m, cam);
        RenderOutput ref = renderForward(m, cam, subset, render);
        const auto &a = ref.image.data();
        const auto &b = f.image.data();
        if (a.size() != b.size()
            || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0)
            ++bad;
    }
    return bad;
}

// ---------------------------------------------------------------------------
// Output

/** A metric value with all its digits; JSON null when not finite (a
 *  phase whose p99 is a miss). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;    // KiB on Linux
}

std::string
argValue(int argc, char **argv, const std::string &flag,
         const std::string &fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (argv[i] == flag)
            return argv[i + 1];
    return fallback;
}

Corrupt
parseCorrupt(const std::string &s)
{
    if (s.empty() || s == "none")
        return Corrupt::None;
    if (s == "loss")
        return Corrupt::Loss;
    if (s == "psnr")
        return Corrupt::Psnr;
    if (s == "unresolved")
        return Corrupt::Unresolved;
    if (s == "frame")
        return Corrupt::Frame;
    if (s == "spans")
        return Corrupt::Spans;
    throw std::invalid_argument("unknown --corrupt kind '" + s + "'");
}

int
run(int argc, char **argv)
{
    const std::string name = argValue(argc, argv, "--workload", "");
    const uint64_t seed = std::stoull(argValue(argc, argv, "--seed", "1"));
    const double seconds = std::stod(argValue(argc, argv, "--seconds", "10"));
    const bool trace = argValue(argc, argv, "--trace", "0") == "1";
    const Corrupt corrupt =
        parseCorrupt(argValue(argc, argv, "--corrupt", ""));
    if (seconds <= 0)
        throw std::invalid_argument("--seconds must be positive");
    const Workload w = workloadByName(name);

    {
        std::ostringstream ctx;
        ctx << "{\n";
        bench::writeJsonContext(ctx);
        ctx << "  \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"git_commit\": \""
            << argValue(argc, argv, "--git-commit", "unknown")
            << "\", \"workload\": \"" << w.name << "\", \"seed\": " << seed
            << ", \"seconds\": " << seconds
            << ", \"trace\": " << (trace ? 1 : 0) << "\n}";
        std::cout << ctx.str() << std::endl;
    }

    std::unique_ptr<Tracer> tracer;
    if (trace)
        tracer = std::make_unique<Tracer>(
            corrupt == Corrupt::Spans ? 64 : size_t(1) << 17);

    // Set up several times; keep the last session.
    Tracer::enable(tracer.get());
    std::vector<SetupTimes> setups(kSetups);
    Session s;
    for (SetupTimes &t : setups) {
        s = Session{};    // free the previous set-up first
        s = setUp(w, seed, corrupt, t);
    }
    Tracer::enable(nullptr);
    auto medianOf = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes &t : setups)
            v.push_back(t.*field);
        return median(v);
    };
    const RenderConfig &render = s.config.train.render;

    SnapshotSlot train_slot;
    s.trainer->setSnapshotSink(&train_slot);
    const double psnr_initial =
        meanPsnr(s.trainer->model(), s.cameras, s.clean_gt, render);

    const int measured = std::max(
        3, static_cast<int>(std::lround(seconds * w.train_share
                                        / w.nominal_batch_s)));
    std::shared_ptr<const ModelSnapshot> prev_snap;
    if (tracer)
        tracer->clear();
    TrainResult tr = trainPhase(*s.trainer, w.warmup_batches, measured,
                                tracer.get(), prev_snap, train_slot);
    const Rollup train_rollup =
        tracer ? rollupSpans(tracer->snapshotSpans()) : Rollup{};
    const uint64_t train_dropped = tracer ? tracer->stats().dropped : 0;
    std::shared_ptr<const ModelSnapshot> last_snap = train_slot.acquire();

    bool correct = true;
    if (tr.nonfinite > 0) {
        std::cerr << "check failed: " << tr.nonfinite
                  << " training batches had a non-finite loss\n";
        correct = false;
    }
    const double psnr_final =
        correct ? meanPsnr(s.trainer->model(), s.cameras, s.clean_gt, render)
                : 0.0;
    if (correct && !(psnr_final > psnr_initial)) {
        std::cerr << "check failed: final PSNR " << psnr_final
                  << " dB does not beat the initial " << psnr_initial
                  << " dB\n";
        correct = false;
    }

    ServeResult sr;
    Rollup serve_rollup;
    uint64_t serve_dropped = 0;
    if (correct) {
        if (tracer) {
            tracer->clear();
            Tracer::enable(tracer.get());
        }
        sr = servePhase(w, s, seed, seconds * (1.0 - w.train_share), trace,
                        *prev_snap, *last_snap, corrupt);
        Tracer::enable(nullptr);
        if (tracer) {
            serve_rollup = rollupSpans(tracer->snapshotSpans());
            serve_dropped = tracer->stats().dropped;
        }

        const size_t unresolved = sr.low.unresolved() + sr.high.unresolved();
        if (unresolved > 0) {
            std::cerr << "check failed: " << unresolved
                      << " serving futures never resolved\n";
            correct = false;
        }
        GaussianModel perturbed;
        std::map<uint64_t, const GaussianModel *> by_hash{
            {prev_snap->param_hash, &prev_snap->model},
            {last_snap->param_hash, &last_snap->model}};
        if (corrupt == Corrupt::Frame) {
            perturbed = last_snap->model;
            for (size_t i = 0; i < perturbed.size(); ++i)
                perturbed.sh(i)[0] += 0.25f;
            by_hash[last_snap->param_hash] = &perturbed;
        }
        const size_t bad =
            checkFrames(sr.samples, sr.cameras, by_hash, render);
        if (sr.samples.empty() || bad > 0) {
            std::cerr << "check failed: " << bad << " of "
                      << sr.samples.size()
                      << " sampled frames differ from a direct render of "
                         "their snapshot\n";
            correct = false;
        }
    }
    std::vector<const PhaseResult *> phases;
    for (const RoundSet *set : {&sr.low, &sr.high, &sr.overload})
        for (const PhaseResult &p : set->rounds)
            phases.push_back(&p);
    for (const PhaseResult &p : sr.ladder)
        phases.push_back(&p);
    for (const PhaseResult *p : phases)
        std::cout << "{\"phase\": \"" << p->name << "\", \"rate_rps\": "
                  << num(p->rate) << ", \"attempted\": " << p->attempted
                  << ", \"ok\": " << p->ok << ", \"refused\": " << p->refused
                  << ", \"unresolved\": " << p->unresolved
                  << ", \"p50_ms\": " << num(p->p50())
                  << ", \"p99_ms\": " << num(p->p99())
                  << ", \"goodput_rps\": " << num(p->goodput_rps)
                  << ", \"depth_growth\": " << num(p->depth_growth)
                  << "}\n";
    const uint64_t dropped = train_dropped + serve_dropped;
    if (trace && dropped > 0) {
        std::cerr << "check failed: the tracer dropped " << dropped
                  << " spans\n";
        correct = false;
    }

    const size_t fixed_attempted = sr.low.attempted() + sr.high.attempted();
    const size_t fixed_failed = sr.low.failed() + sr.high.failed();
    const size_t attempted = tr.batches + fixed_attempted;
    const size_t failed = tr.nonfinite + fixed_failed;

    std::vector<Metric> metrics;
    const double views = static_cast<double>(tr.views);
    const double batches = static_cast<double>(tr.batches);
    if (!trace) {
        metrics = {
            {"setup_s", medianOf(&SetupTimes::total_s), "s"},
            {"train_images_per_s",
             s.config.train.batch_size / median(tr.batch_s), "1/s"},
            {"psnr_db", psnr_final, "dB"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"ok_frac",
             1.0 - static_cast<double>(failed)
                       / static_cast<double>(std::max<size_t>(1, attempted)),
             "fraction"},
            {"serve_p50_ms.low", sr.low.p50(), "ms"},
            {"serve_p50_ms.high", sr.high.p50(), "ms"},
            {"serve_capacity_rps", sr.overload.goodput(), "1/s"},
        };
    } else {
        const double tviews =
            static_cast<double>(std::max<size_t>(1, tr.traced_views));
        const double tbatches = static_cast<double>(
            std::max<size_t>(1, tr.traced_batch_s.size()));
        auto selfMs = [](const Rollup &r, const char *n) {
            return static_cast<double>(totalsOf(r, n).self_ns) * 1e-6;
        };
        const StageTimings &st = tr.stages;
        const SpanTotals batch = totalsOf(train_rollup, "bench.train_batch");
        const double batch_self_s = static_cast<double>(batch.self_ns) * 1e-9;
        const double batch_total_s =
            std::max(1e-9, static_cast<double>(batch.total_ns) * 1e-9);
        auto totalMs = [](const Rollup &r, const char *n) {
            return static_cast<double>(totalsOf(r, n).total_ns) * 1e-6;
        };
        const double compute_ms = totalMs(train_rollup, "train.compute");
        double stall_s = 0;
        for (const StageTimings::Microbatch &m : st.microbatches)
            stall_s += m.wait;
        // Requests dequeued across every traced serving phase.
        const double served = static_cast<double>(std::max<uint64_t>(
            1, totalsOf(serve_rollup, "serve.queue_wait").count));
        const SpanTotals admit = totalsOf(serve_rollup, "serve.admit");
        const std::vector<double> fixed_queue =
            sr.high.all(&PhaseResult::queue_ms);
        const std::vector<double> low_render =
            sr.low.all(&PhaseResult::render_ms);
        std::vector<double> late = sr.low.all(&PhaseResult::late_ms);
        for (double l : sr.high.all(&PhaseResult::late_ms))
            late.push_back(l);
        std::set<uint64_t> versions;
        for (const RoundSet *set : {&sr.low, &sr.high})
            for (const PhaseResult &p : set->rounds)
                versions.insert(p.versions.begin(), p.versions.end());
        const size_t over_shed = sr.overload.failed();
        auto ms = [](double s) { return s * 1e3; };
        auto perBatch = [&](TrainStage stage) {
            return ms(st[stage]) / batches;
        };
        double batch_untraced = median(tr.batch_s);
        // Batch wall time not covered by the blocking steps: the batch
        // span's self time minus the exposed staging stalls and the
        // trailing Adam wait, which the trainer times but does not span.
        const double unaccounted =
            (batch_self_s - tr.traced_stall_s - tr.traced_trailing_s)
            / batch_total_s;
        if (unaccounted > kUnaccountedTolerance)
            std::cerr << "warning: blocking steps leave "
                      << unaccounted * 100 << "% of batch wall time "
                      << "unaccounted (tolerance "
                      << kUnaccountedTolerance * 100 << "%)\n";
        metrics = {
            {"scene.generate_s", medianOf(&SetupTimes::generate_s), "s"},
            {"scene.gt_render_s", medianOf(&SetupTimes::gt_render_s), "s"},
            {"train.init_s", medianOf(&SetupTimes::init_s), "s"},
            {"train.batch_ms.p50", ms(percentile(tr.traced_batch_s, 50)),
             "ms"},
            {"train.batch_ms.p90", ms(percentile(tr.traced_batch_s, 90)),
             "ms"},
            {"train.compute_ms_per_view", compute_ms / tviews, "ms"},
            {"train.compute_us_per_gaussian",
             compute_ms * 1e3
                 / static_cast<double>(
                     std::max<size_t>(1, tr.traced_gaussians)),
             "us"},
            {"train.publish_ms", totalMs(train_rollup, "train.publish")
                                     / tbatches, "ms"},
            {"train.unaccounted_frac", unaccounted, "fraction"},
            {"offload.schedule_ms", perBatch(TrainStage::Schedule), "ms"},
            {"offload.gather_ms", perBatch(TrainStage::Gather), "ms"},
            {"offload.cachecopy_ms", perBatch(TrainStage::CacheCopy), "ms"},
            {"offload.scatter_ms", perBatch(TrainStage::Scatter), "ms"},
            {"offload.carry_ms", perBatch(TrainStage::Carry), "ms"},
            {"offload.stall_ms", ms(stall_s) / batches, "ms"},
            {"offload.finalize_ms", perBatch(TrainStage::Finalize), "ms"},
            {"offload.trailing_adam_ms",
             ms(st.trailing_adam_seconds) / batches, "ms"},
            {"offload.h2d_mb_per_view", tr.h2dMbPerView(), "MB"},
            {"offload.d2h_mb_per_view", tr.d2h_bytes / views / 1e6, "MB"},
            {"offload.cache_hit_frac", tr.cacheHitFrac(), "fraction"},
            {"offload.pinned_mb",
             static_cast<double>(s.trainer->pinnedBytes()) / 1e6, "MB"},
            {"offload.peak_buffer_rows",
             static_cast<double>(s.trainer->peakBufferRows()), "count"},
            {"render.gaussians_per_view", tr.gaussiansPerView(), "count"},
            {"render.project_ms", selfMs(train_rollup, "render.project")
                                      / tviews, "ms"},
            {"render.bin_ms", selfMs(train_rollup, "render.bin") / tviews,
             "ms"},
            {"render.composite_ms",
             selfMs(train_rollup, "render.composite") / tviews, "ms"},
            {"render.precompute_ms",
             selfMs(serve_rollup, "render.precompute") / served, "ms"},
            // Inclusive: the forward's self time is the render.* split.
            {"train.forward_ms", totalMs(train_rollup, "train.forward")
                                     / tviews, "ms"},
            {"train.loss_ms", selfMs(train_rollup, "train.loss") / tviews,
             "ms"},
            {"train.backward_ms", selfMs(train_rollup, "train.backward")
                                      / tviews, "ms"},
            {"gaussian.adam_rows_per_batch",
             static_cast<double>(tr.adam_rows) / batches, "count"},
            {"train.adam_ms", selfMs(train_rollup, "train.finalize")
                                  / tbatches, "ms"},
            // The fixed-rate tails and the ladder's highest passing rung:
            // too sensitive to CPU steal on a shared host to carry a
            // regression bound.
            {"serve_p99_ms.low", sr.low.p99(), "ms"},
            {"serve_p99_ms.high", sr.high.p99(), "ms"},
            {"serve_max_rps_in_slo", sr.max_rps_in_slo, "1/s"},
            {"serve.queue_wait_ms.p50", percentile(fixed_queue, 50), "ms"},
            {"serve.queue_wait_ms.p99", percentile(fixed_queue, 99), "ms"},
            {"serve.render_ms.p50", percentile(low_render, 50), "ms"},
            {"serve.render_ms.p99", percentile(low_render, 99), "ms"},
            {"serve.cull_ms",
             (selfMs(serve_rollup, "serve.render_batch")
              + selfMs(serve_rollup, "serve.render")) / served, "ms"},
            {"serve.project_ms", selfMs(serve_rollup, "render.project")
                                     / served, "ms"},
            {"serve.bin_ms", selfMs(serve_rollup, "render.bin") / served,
             "ms"},
            {"serve.composite_ms",
             selfMs(serve_rollup, "render.composite") / served, "ms"},
            {"serve.mean_batch", sr.overload_mean_batch, "count"},
            {"serve.admit_us",
             admit.count > 0 ? static_cast<double>(admit.total_ns) * 1e-3
                                   / static_cast<double>(admit.count)
                             : 0.0,
             "us"},
            {"serve.shed_frac.over",
             static_cast<double>(over_shed)
                 / static_cast<double>(
                     std::max<size_t>(1, sr.overload.attempted())),
             "fraction"},
            {"serve.publish_ms", ms(median(sr.publish_s)), "ms"},
            {"serve.versions_served", static_cast<double>(versions.size()),
             "count"},
            {"obs.trace_overhead_frac",
             batch_untraced > 0
                 ? median(tr.traced_batch_s) / batch_untraced - 1.0
                 : 0.0,
             "fraction"},
            {"obs.spans_dropped", static_cast<double>(dropped), "count"},
            {"bench.gen_late_ms.p99", percentile(late, 99), "ms"},
        };
    }

    // Counts that must repeat exactly for a fixed seed.
    std::cout << "{\"repeatable\": {\"render.gaussians_per_view\": "
              << num(tr.gaussiansPerView())
              << ", \"offload.h2d_mb_per_view\": " << num(tr.h2dMbPerView())
              << ", \"offload.cache_hit_frac\": " << num(tr.cacheHitFrac())
              << ", \"psnr_db\": " << num(psnr_final) << "}}" << std::endl;

    for (const Metric &m : metrics)
        if (!std::isfinite(m.value)) {
            std::cerr << "check failed: metric " << m.name
                      << " is not finite\n";
            correct = false;
        }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": "
                  << num(std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
