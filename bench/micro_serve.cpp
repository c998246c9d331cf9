/**
 * @file
 * Serving micro-benchmark: requests/sec and p50/p99 latency of the
 * RenderService over city-scale synthetic models, swept across
 * coalescing batch sizes 1/2/4/8 with a single render worker. Every
 * batch, a batch of one included, renders through the one fused
 * multi-view pipeline, whose shared per-Gaussian work (the snapshot-
 * cached cull setup, covariance/opacity precompute, one key-sorted
 * buffer) is what batching amortizes. The workload is the paper's
 * serving setting: a large host-resident model with small per-view
 * sparsity, so per-request culling is a dominant cost. The cases use
 * the BigCity 150k model at 128x72 that perfbench's serve_city
 * workload serves, plus a 400k model.
 *
 * Before timing, each case verifies the fused pipeline bitwise against
 * per-view frustumCull + renderForward batches of one — a four-view
 * batch and a batch of one, under the dispatched kernel table AND the
 * forced scalar table (the images must be identical — batching is a
 * scheduling choice, never a quality choice).
 *
 * Load model: N closed-loop synthetic clients walk the scene's camera
 * path from staggered offsets, each keeping one request in flight, so
 * the queue stays deep enough for the service to coalesce full batches.
 *
 * Open loop: closed-loop clients can never oversubscribe the service —
 * each waits for its response — so every case also drives an open-loop
 * arrival schedule (submit at fixed ticks regardless of completions) at
 * 1x/2x/4x of the sweep's batch-4 rps against the overload-hardened
 * admission configuration: ShedPolicy::Reject, a 6-deep queue and a
 * per-request deadline of 6 direct renders. Per point it records
 * goodput (admitted completions/s), shed fraction and the p50/p99 of
 * admitted requests. Admitted frames are verified bitwise against
 * direct renders (shedding changes WHICH requests render, never WHAT a
 * render produces), and every future must resolve — a request still
 * unresolved after a generous timeout counts as hung.
 *
 * Every open-loop point is judged by the obs/slo layer with two rules
 * anchored to the case's own timing: the deadline-shed ratio
 * (serve.shed_deadline / serve.requests — a healthy Reject config sheds
 * at admission, so deadline expiry stays rare relative to renders) and
 * an admitted-latency p99 bound. The clean points must not breach,
 * while a worker-stall fault (util/fault) over the SAME rules and the
 * SAME 2x schedule must: the bench exits non-zero if either side of
 * that two-sided contract fails, on a hung request, or on a
 * non-bitwise admitted frame.
 *
 * Prints tables and emits BENCH_serve.json (scripts/bench_serve.sh)
 * with the machine/build context block.
 *
 * Usage: micro_serve [--smoke] [--out FILE.json]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "math/simd_backend.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "render/batch.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "render/simd_kernels.hpp"
#include "serve/render_service.hpp"
#include "serve/snapshot.hpp"
#include "util/fault.hpp"

using namespace clm;

namespace {

struct ServeCase
{
    std::string name;
    std::string scene;
    size_t n_gaussians;
    int width, height;
    int sh_degree;
    int clients;
    int requests;    //!< Per sweep point.
    int open_loop_requests;    //!< Open-loop requests per 1x of load.
};

struct SweepPoint
{
    int max_batch = 1;
    double elapsed_s = 0;
    double rps = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    double mean_batch = 0;
    /** SLO verdict over the point (obs/slo): closed-loop latency p99
     *  bound + queue-full shed ratio (must stay ~0 under Block). */
    SloReport slo;
};

/** Closed-loop SLO rules: with N clients each keeping one request in
 *  flight, end-to-end latency sits near N * per-view render time, so
 *  bound p99 at a 3x margin over that; and a closed-loop Block config
 *  must never shed. */
std::vector<SloRule>
makeServeSloRules(double direct_ms, int n_clients)
{
    std::vector<SloRule> rules(2);
    rules[0].kind = SloRuleKind::HistogramPercentile;
    rules[0].metric = "serve.latency_ms";
    rules[0].percentile = 99;
    rules[0].name = "latency_p99_ms";
    rules[0].warn = (2.0 * n_clients + 8.0) * direct_ms;
    rules[0].fail = 3.0 * rules[0].warn;
    rules[1].kind = SloRuleKind::CounterRatio;
    rules[1].metric = "serve.shed_queue_full";
    rules[1].denominator = "serve.requests";
    rules[1].name = "queue_shed_ratio";
    rules[1].warn = 0.01;
    rules[1].fail = 0.1;
    return rules;
}

/** Queue depth of the open-loop (overload-hardened) configuration. */
constexpr size_t kOpenLoopQueue = 6;

/** One open-loop load point. */
struct OpenLoopPoint
{
    std::string policy;    //!< "reject", or "reject+stall" (fault).
    double load_x = 0;     //!< Offered load, multiple of the anchor rps.
    int requests = 0;
    double offered_rps = 0;
    double elapsed_s = 0;
    uint64_t admitted = 0;
    uint64_t shed_queue_full = 0;
    uint64_t shed_deadline = 0;
    int hung = 0;
    double goodput_rps = 0;
    double shed_fraction = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    /** Where admitted requests spent their time — queued vs rendering —
     *  from the registry's log-bucket histograms. */
    double queue_wait_p99_ms = 0;
    double render_p99_ms = 0;
    double mean_batch = 0;
    bool bitwise_checked = false;
    bool bitwise_identical = true;
    /** SLO evaluation over the point's whole window. */
    SloReport slo;
};

/** The per-case open-loop rule set: a healthy Reject config sheds at
 *  admission (queue-full), so deadline expiry must stay rare relative
 *  to renders; admitted p99 must stay within the deadline plus a
 *  generous multiple of one render. */
std::vector<SloRule>
makeOpenLoopSloRules(double direct_ms, double deadline_ms)
{
    std::vector<SloRule> rules(2);
    rules[0].kind = SloRuleKind::CounterRatio;
    rules[0].metric = "serve.shed_deadline";
    rules[0].denominator = "serve.requests";
    rules[0].name = "deadline_shed_ratio";
    rules[0].warn = 0.1;
    rules[0].fail = 0.5;
    rules[1].kind = SloRuleKind::HistogramPercentile;
    rules[1].metric = "serve.latency_ms";
    rules[1].percentile = 99;
    rules[1].name = "latency_p99_ms";
    rules[1].warn = deadline_ms + 8.0 * direct_ms;
    rules[1].fail = deadline_ms + 24.0 * direct_ms;
    return rules;
}

struct CaseResult
{
    ServeCase cfg;
    size_t mean_subset = 0;
    int views = 0;
    double direct_ms_per_view = 0;    //!< No-service reference loop.
    bool bitwise_identical = false;
    std::vector<SweepPoint> sweep;
    // Traced rerun (batch 4, tracing enabled): observability must not
    // perturb determinism and should cost ~nothing on the hot path.
    double traced_rps = 0;
    double trace_overhead_frac = 0;    //!< (rps4 - traced_rps) / rps4.
    bool traced_bitwise_identical = false;
    // Open loop, anchored on the sweep's batch-4 rps.
    double deadline_ms = 0;
    std::vector<OpenLoopPoint> open_loop;    //!< Reject at 1x/2x/4x.
    OpenLoopPoint fault_point;               //!< Reject at 2x + stall.

    double
    sweepRps(int max_batch) const
    {
        for (const SweepPoint &p : sweep)
            if (p.max_batch == max_batch)
                return p.rps;
        return 0.0;
    }

    double
    batch4Speedup() const
    {
        const double rps1 = sweepRps(1);
        return rps1 > 0 ? sweepRps(4) / rps1 : 0.0;
    }

    const OpenLoopPoint *
    openLoopAt(double x) const
    {
        for (const OpenLoopPoint &p : open_loop)
            if (p.load_x == x)
                return &p;
        return nullptr;
    }
};

/** Fused batch vs per-view batches of one under one config: must be
 *  bitwise identical. */
bool
batchMatchesSequential(const GaussianModel &model,
                       const std::vector<Camera> &cams,
                       const RenderConfig &render)
{
    BatchCullScratch cull;
    std::vector<std::vector<uint32_t>> subsets;
    buildCullStage(model, cull);
    frustumCullBatch(model, cams, cull, subsets);
    RenderArena arena;
    renderForwardBatch(model, cams, subsets, render, arena);
    RenderArena seq_arena;
    for (size_t v = 0; v < cams.size(); ++v) {
        auto subset = frustumCull(model, cams[v]);
        if (subset != subsets[v])
            return false;
        const RenderOutput &seq =
            renderForward(model, cams[v], subset, render, seq_arena);
        const RenderOutput &bat = arena.views[v].out;
        if (seq.image.data() != bat.image.data()
            || seq.final_t != bat.final_t
            || seq.n_contrib != bat.n_contrib)
            return false;
    }
    return true;
}

/** The served pipeline at the probe's batch size and at batch one,
 *  under the dispatched kernel table and the forced scalar table. */
bool
verifyBitIdentity(const GaussianModel &model,
                  const std::vector<Camera> &cams,
                  const RenderConfig &render)
{
    RenderConfig scalar = render;
    scalar.kernels = renderKernelsFor(SimdBackend::kScalar);
    const std::vector<Camera> one(cams.begin(), cams.begin() + 1);
    for (const RenderConfig *cfg :
         {&render, static_cast<const RenderConfig *>(&scalar)})
        if (!batchMatchesSequential(model, cams, *cfg)
            || !batchMatchesSequential(model, one, *cfg))
            return false;
    return true;
}

/** Drive one sweep point with closed-loop clients. */
SweepPoint
runSweepPoint(const SnapshotSlot &slot, const RenderConfig &render,
              const std::vector<Camera> &path, int max_batch,
              int n_clients, int n_requests,
              const std::vector<SloRule> &slo_rules)
{
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = max_batch;
    cfg.render = render;
    MetricsRegistry registry;
    cfg.metrics = &registry;
    RenderService service(slot, cfg);
    SloMonitor slo(registry, slo_rules);

    std::atomic<int> budget{n_requests};
    Timer wall;
    std::vector<std::thread> clients;
    for (int c = 0; c < n_clients; ++c) {
        clients.emplace_back([&, c] {
            // Staggered start along the shared route.
            size_t pos = static_cast<size_t>(c) * path.size()
                       / static_cast<size_t>(n_clients);
            while (budget.fetch_sub(1) > 0) {
                service.submit(path[pos % path.size()]).get();
                ++pos;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    const double elapsed = wall.seconds();
    // Join the worker before reading stats: the last batch's futures
    // resolve before its counters are recorded, so a pre-stop read
    // could miss up to one batch of requests/latencies.
    service.stop();
    ServeStats stats = service.stats();

    SweepPoint p;
    p.max_batch = max_batch;
    p.elapsed_s = elapsed;
    p.rps = elapsed > 0 ? stats.requests / elapsed : 0.0;
    p.p50_ms = stats.p50_ms;
    p.p99_ms = stats.p99_ms;
    p.mean_batch = stats.mean_batch;
    p.slo = slo.total(elapsed);
    return p;
}

/**
 * Drive one open-loop point: submit @p n_requests on the absolute
 * schedule t_i = i / rate (no waiting for completions), then wait for
 * every future. Verifies the first @p verify_n admitted frames bitwise
 * against direct renders AFTER timing ends. The point's service gets
 * a private MetricsRegistry watched by an SloMonitor built from
 * @p slo_rules; the whole-window verdict lands in OpenLoopPoint::slo.
 */
OpenLoopPoint
driveOpenLoop(const SnapshotSlot &slot, const GaussianModel &model,
              const std::vector<Camera> &path, ServeConfig cfg,
              const std::string &policy_name, double load_x,
              double rate_rps, int n_requests, int verify_n,
              const std::vector<SloRule> &slo_rules)
{
    MetricsRegistry registry;
    cfg.metrics = &registry;
    RenderService service(slot, cfg);
    SloMonitor slo(registry, slo_rules);
    std::vector<std::future<RenderResponse>> pending;
    pending.reserve(n_requests);

    Timer wall;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < n_requests; ++i) {
        std::this_thread::sleep_until(
            t0
            + std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(i / rate_rps)));
        pending.push_back(
            service.submit(path[static_cast<size_t>(i) % path.size()]));
    }

    OpenLoopPoint r;
    r.policy = policy_name;
    r.load_x = load_x;
    r.requests = n_requests;
    r.offered_rps = rate_rps;

    // Every future must resolve — the no-hang contract. Keep only the
    // images needed for the bitwise check; verification renders run
    // after timing so they don't pollute goodput.
    std::vector<std::pair<size_t, Image>> to_verify;
    for (int i = 0; i < n_requests; ++i) {
        if (pending[i].wait_for(std::chrono::seconds(60))
            != std::future_status::ready) {
            ++r.hung;
            continue;
        }
        RenderResponse resp = pending[i].get();
        if (resp.ok()
            && to_verify.size() < static_cast<size_t>(verify_n))
            to_verify.emplace_back(static_cast<size_t>(i) % path.size(),
                                   std::move(resp.image));
    }
    r.elapsed_s = wall.seconds();
    service.stop();
    r.slo = slo.total(r.elapsed_s);

    ServeStats stats = service.stats();
    r.admitted = stats.requests;
    r.shed_queue_full = stats.shed_queue_full;
    r.shed_deadline = stats.shed_deadline;
    r.goodput_rps =
        r.elapsed_s > 0 ? static_cast<double>(r.admitted) / r.elapsed_s
                        : 0;
    r.shed_fraction =
        stats.submitted > 0
            ? static_cast<double>(stats.shed_queue_full
                                  + stats.shed_deadline)
                  / static_cast<double>(stats.submitted)
            : 0;
    r.p50_ms = stats.p50_ms;
    r.p99_ms = stats.p99_ms;
    r.queue_wait_p99_ms = stats.queue_wait_p99_ms;
    r.render_p99_ms = stats.render_p99_ms;
    r.mean_batch = stats.mean_batch;

    r.bitwise_checked = !to_verify.empty();
    for (const auto &v : to_verify) {
        auto subset = frustumCull(model, path[v.first]);
        Image direct =
            renderForward(model, path[v.first], subset, cfg.render).image;
        if (!(direct.data() == v.second.data()))
            r.bitwise_identical = false;
    }
    return r;
}

/** The open-loop half of a case: Reject at 1x/2x/4x of the sweep's
 *  batch-4 rps, then the same 2x schedule with a stalled worker. */
void
runOpenLoop(const SnapshotSlot &slot, const GaussianModel &model,
            const std::vector<Camera> &path, const RenderConfig &render,
            CaseResult &r)
{
    // The overload-hardened configuration: short queue + deadline +
    // Reject. The deadline (in queue-wait terms) is what bounds
    // admitted p99 under overload; the queue bound is what keeps the
    // shed path cheap.
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.queue_capacity = kOpenLoopQueue;
    cfg.render = render;
    cfg.admission.shed = ShedPolicy::Reject;
    cfg.admission.deadline_s = 6.0 * r.direct_ms_per_view / 1e3;
    r.deadline_ms = cfg.admission.deadline_s * 1e3;
    const std::vector<SloRule> rules =
        makeOpenLoopSloRules(r.direct_ms_per_view, r.deadline_ms);
    const double anchor_rps = r.sweepRps(4);
    const int per_x = r.cfg.open_loop_requests;
    const int verify_n = 12;
    for (double x : {1.0, 2.0, 4.0})
        r.open_loop.push_back(driveOpenLoop(
            slot, model, path, cfg, "reject", x, x * anchor_rps,
            static_cast<int>(per_x * x), verify_n, rules));

    // Fault injection: the SAME 2x schedule and the SAME rules as the
    // clean point, but the worker stalls far past the deadline on every
    // pop — queued requests expire at dequeue, so deadline sheds swamp
    // renders and the deadline-shed ratio rule must flip to Breached.
    FaultPlan stall_plan;
    stall_plan.at(FaultPoint::WorkerStall).every_n = 1;
    stall_plan.at(FaultPoint::WorkerStall).stall_ms =
        std::max(100.0, 4.0 * r.deadline_ms);
    FaultInjector stall(stall_plan);
    ServeConfig fault_cfg = cfg;
    fault_cfg.faults = &stall;
    r.fault_point =
        driveOpenLoop(slot, model, path, fault_cfg, "reject+stall", 2.0,
                      2.0 * anchor_rps, per_x, verify_n, rules);
}

CaseResult
runCase(const ServeCase &c)
{
    SceneSpec spec = SceneSpec::byName(c.scene);
    GaussianModel model = generateSceneGaussians(spec, c.n_gaussians);
    const int n_views = 48;
    std::vector<Camera> path =
        generateCameraPath(spec, n_views, c.width, c.height);

    RenderConfig render;
    render.sh_degree = c.sh_degree;

    CaseResult r;
    r.cfg = c;
    r.views = n_views;

    // Reference: the direct per-view loop, no service in the way.
    RenderArena arena;
    size_t subset_sum = 0;
    {
        for (int v = 0; v < 4; ++v) {    // warm-up
            auto s = frustumCull(model, path[v]);
            renderForward(model, path[v], s, render, arena);
        }
        Timer t;
        const int reps = 8;
        for (int v = 0; v < reps; ++v) {
            auto s = frustumCull(model, path[v]);
            subset_sum += s.size();
            renderForward(model, path[v], s, render, arena);
        }
        r.direct_ms_per_view = t.millis() / reps;
        r.mean_subset = subset_sum / reps;
    }

    std::vector<Camera> probe(path.begin(), path.begin() + 4);
    r.bitwise_identical = verifyBitIdentity(model, probe, render);

    SnapshotSlot slot;
    slot.publish(model, 0);
    const std::vector<SloRule> slo_rules =
        makeServeSloRules(r.direct_ms_per_view, c.clients);
    for (int b : {1, 2, 4, 8})
        r.sweep.push_back(runSweepPoint(slot, render, path, b,
                                        c.clients, c.requests,
                                        slo_rules));
    runOpenLoop(slot, model, path, render, r);

    // Traced rerun: enable the span tracer, re-verify bit-identity and
    // re-drive the batch-4 point. The untraced baseline is a FRESH
    // back-to-back point, not the sweep measurement above — machine
    // drift between the sweep and this comparison would otherwise
    // masquerade as tracing overhead. Acceptance: images stay bitwise
    // identical and throughput stays close to untraced (the overhead
    // fraction is reported, not gated — wall-clock noise on shared
    // runners would make a hard gate flaky; only a determinism
    // violation fails the bench).
    {
        // Best-of-5 on each side: a single ~1-2s closed-loop point has
        // several percent of scheduler noise, which would drown the
        // actual tracing cost (a handful of clock reads + ring writes
        // per request).
        double baseline_rps = 0, traced_rps = 0;
        for (int rep = 0; rep < 5; ++rep) {
            SweepPoint b = runSweepPoint(slot, render, path, 4,
                                         c.clients, c.requests,
                                         slo_rules);
            baseline_rps = std::max(baseline_rps, b.rps);
            Tracer::global().clear();
            Tracer::enable(&Tracer::global());
            if (rep == 0)
                r.traced_bitwise_identical =
                    verifyBitIdentity(model, probe, render);
            SweepPoint t = runSweepPoint(slot, render, path, 4,
                                         c.clients, c.requests,
                                         slo_rules);
            Tracer::enable(nullptr);
            traced_rps = std::max(traced_rps, t.rps);
        }
        r.traced_rps = traced_rps;
        r.trace_overhead_frac =
            baseline_rps > 0 ? (baseline_rps - traced_rps) / baseline_rps
                             : 0.0;
    }
    return r;
}

/** Any sweep point or CLEAN open-loop point Breached — the flag
 *  scripts/bench_gate.py fails on (the fault point breaches by
 *  design). */
bool
anyBreached(const std::vector<CaseResult> &results)
{
    for (const CaseResult &r : results) {
        for (const SweepPoint &p : r.sweep)
            if (p.slo.verdict == SloVerdict::Breached)
                return true;
        for (const OpenLoopPoint &p : r.open_loop)
            if (p.slo.verdict == SloVerdict::Breached)
                return true;
    }
    return false;
}

void
writeOpenLoopPoint(std::ofstream &f, const OpenLoopPoint &p)
{
    f << "{\"policy\": \"" << p.policy << "\""
      << ", \"load_x\": " << p.load_x
      << ", \"requests\": " << p.requests
      << ", \"offered_rps\": " << p.offered_rps
      << ", \"goodput_rps\": " << p.goodput_rps
      << ", \"admitted\": " << p.admitted
      << ", \"shed_queue_full\": " << p.shed_queue_full
      << ", \"shed_deadline\": " << p.shed_deadline
      << ", \"shed_fraction\": " << p.shed_fraction
      << ", \"p50_ms\": " << p.p50_ms << ", \"p99_ms\": " << p.p99_ms
      << ", \"queue_wait_p99_ms\": " << p.queue_wait_p99_ms
      << ", \"render_p99_ms\": " << p.render_p99_ms
      << ", \"mean_batch\": " << p.mean_batch
      << ", \"elapsed_s\": " << p.elapsed_s
      << ", \"hung_requests\": " << p.hung
      << ", \"slo_verdict\": \"" << sloVerdictName(p.slo.verdict)
      << "\", \"slo\": [";
    for (size_t i = 0; i < p.slo.rules.size(); ++i) {
        const SloObservation &o = p.slo.rules[i];
        f << (i ? ", " : "") << "{\"rule\": \"" << o.name
          << "\", \"value\": " << o.value
          << ", \"samples\": " << o.samples << ", \"verdict\": \""
          << sloVerdictName(o.verdict) << "\"}";
    }
    f << "]}";
}

void
writeJson(const std::string &path, const std::vector<CaseResult> &results,
          bool smoke, int total_hung, bool admitted_identical)
{
    std::ofstream f(path);
    f << "{\n  \"bench\": \"serve\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n";
    bench::writeJsonContext(f);
    f << "  \"hung_requests\": " << total_hung << ",\n"
      << "  \"admitted_bitwise_identical\": "
      << (admitted_identical ? "true" : "false") << ",\n"
      << "  \"slo_breached\": "
      << (anyBreached(results) ? "true" : "false") << ",\n";
    f << "  \"cases\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const CaseResult &r = results[i];
        f << "    {\"name\": \"" << r.cfg.name << "\""
          << ", \"scene\": \"" << r.cfg.scene << "\""
          << ", \"gaussians\": " << r.cfg.n_gaussians
          << ", \"width\": " << r.cfg.width
          << ", \"height\": " << r.cfg.height
          << ", \"sh_degree\": " << r.cfg.sh_degree
          << ", \"views\": " << r.views
          << ", \"mean_subset\": " << r.mean_subset
          << ", \"clients\": " << r.cfg.clients
          << ", \"requests\": " << r.cfg.requests
          << ", \"direct_ms_per_view\": " << r.direct_ms_per_view
          << ", \"bitwise_identical\": "
          << (r.bitwise_identical ? "true" : "false")
          << ",\n     \"sweep\": [\n";
        for (size_t s = 0; s < r.sweep.size(); ++s) {
            const SweepPoint &p = r.sweep[s];
            f << "       {\"max_batch\": " << p.max_batch
              << ", \"rps\": " << p.rps
              << ", \"p50_ms\": " << p.p50_ms
              << ", \"p99_ms\": " << p.p99_ms
              << ", \"mean_batch\": " << p.mean_batch
              << ", \"elapsed_s\": " << p.elapsed_s
              << ", \"slo_verdict\": \""
              << sloVerdictName(p.slo.verdict) << "\"}"
              << (s + 1 < r.sweep.size() ? "," : "") << "\n";
        }
        f << "     ],\n     \"batch4_speedup\": " << r.batch4Speedup()
          << ",\n     \"traced_rps\": " << r.traced_rps
          << ", \"trace_overhead_frac\": " << r.trace_overhead_frac
          << ", \"traced_bitwise_identical\": "
          << (r.traced_bitwise_identical ? "true" : "false");
        const OpenLoopPoint *p1 = r.openLoopAt(1.0);
        const OpenLoopPoint *p2 = r.openLoopAt(2.0);
        const double anchor_rps = r.sweepRps(4);
        f << ",\n     \"open_loop\": {\"anchor_rps\": " << anchor_rps
          << ", \"queue_capacity\": " << kOpenLoopQueue
          << ", \"deadline_ms\": "
          << r.deadline_ms << ", \"admitted_p99_ratio_2x\": "
          << (p1 && p2 && p1->p99_ms > 0 ? p2->p99_ms / p1->p99_ms : 0.0)
          << ", \"goodput_frac_of_anchor_2x\": "
          << (p2 && anchor_rps > 0 ? p2->goodput_rps / anchor_rps : 0.0)
          << ",\n       \"points\": [\n";
        for (size_t k = 0; k < r.open_loop.size(); ++k) {
            f << "         ";
            writeOpenLoopPoint(f, r.open_loop[k]);
            f << (k + 1 < r.open_loop.size() ? "," : "") << "\n";
        }
        f << "       ],\n       \"fault_point\": ";
        writeOpenLoopPoint(f, r.fault_point);
        f << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_serve.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else {
            std::cerr << "usage: micro_serve [--smoke] [--out FILE]\n";
            return 2;
        }
    }

    // City-scale serving ladder: big models, small per-view sparsity,
    // preview-sized frames — the regime where the per-request cull is a
    // dominant cost and batching pays (see file comment).
    std::vector<ServeCase> cases;
    if (smoke) {
        cases = {{"smoke", "BigCity", 20000, 96, 54, 1, 4, 24, 48}};
    } else {
        cases = {{"small", "BigCity", 150000, 128, 72, 2, 8, 192, 240},
                 {"medium", "BigCity", 400000, 160, 90, 2, 8, 128, 120}};
    }

    std::cout << "=== micro_serve: concurrent serving throughput ===\n"
              << bench::contextLine() << " (1 serve worker)\n\n";
    Table table({"Case", "Gaussians", "WxH", "Subset", "Batch", "Req/s",
                 "p50 ms", "p99 ms", "MeanB", "vs b1"});
    Table open_table({"Case", "Policy", "Load", "Offered", "Goodput",
                      "Shed%", "p50 ms", "p99 ms", "Hung", "SLO"});
    std::vector<CaseResult> results;
    bool all_identical = true;
    bool admitted_identical = true;
    int total_hung = 0;
    for (const ServeCase &c : cases) {
        CaseResult r = runCase(c);
        all_identical = all_identical && r.bitwise_identical
                     && r.traced_bitwise_identical;
        std::vector<const OpenLoopPoint *> open_points;
        for (const OpenLoopPoint &p : r.open_loop)
            open_points.push_back(&p);
        open_points.push_back(&r.fault_point);
        for (const OpenLoopPoint *p : open_points) {
            total_hung += p->hung;
            admitted_identical =
                admitted_identical
                && (!p->bitwise_checked || p->bitwise_identical);
            open_table.addRow({r.cfg.name, p->policy,
                               Table::fmt(p->load_x, 0) + "x",
                               Table::fmt(p->offered_rps, 1),
                               Table::fmt(p->goodput_rps, 1),
                               Table::fmt(p->shed_fraction * 100.0, 1),
                               Table::fmt(p->p50_ms, 1),
                               Table::fmt(p->p99_ms, 1),
                               std::to_string(p->hung),
                               sloVerdictName(p->slo.verdict)});
        }
        double rps1 = 0;
        for (const SweepPoint &p : r.sweep) {
            if (p.max_batch == 1)
                rps1 = p.rps;
            table.addRow(
                {r.cfg.name, std::to_string(r.cfg.n_gaussians),
                 std::to_string(c.width) + "x" + std::to_string(c.height),
                 std::to_string(r.mean_subset),
                 std::to_string(p.max_batch), Table::fmt(p.rps, 1),
                 Table::fmt(p.p50_ms, 1), Table::fmt(p.p99_ms, 1),
                 Table::fmt(p.mean_batch, 2),
                 Table::fmt(rps1 > 0 ? p.rps / rps1 : 0.0, 2)});
        }
        std::cout << "[" << r.cfg.name << "] direct "
                  << Table::fmt(r.direct_ms_per_view, 2)
                  << " ms/view, batched images "
                  << (r.bitwise_identical ? "bit-identical"
                                          : "MISMATCH")
                  << " vs sequential\n";
        std::cout << "[" << r.cfg.name << "] traced rerun (batch 4): "
                  << Table::fmt(r.traced_rps, 1) << " req/s ("
                  << Table::fmt(r.trace_overhead_frac * 100.0, 1)
                  << "% overhead), images "
                  << (r.traced_bitwise_identical ? "bit-identical"
                                                 : "MISMATCH")
                  << "\n";
        for (const SweepPoint &p : r.sweep)
            std::cout << "[" << r.cfg.name << "] slo (batch "
                      << p.max_batch << "): " << p.slo.summary()
                      << "\n";
        for (const OpenLoopPoint &p : r.open_loop)
            std::cout << "[" << r.cfg.name << "] slo (open loop, reject@"
                      << Table::fmt(p.load_x, 0)
                      << "x): " << p.slo.summary() << "\n";
        std::cout << "[" << r.cfg.name
                  << "] slo (open loop, worker-stall fault @2x): "
                  << r.fault_point.slo.summary() << "\n";
        results.push_back(r);
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nopen loop (Reject, queue " << kOpenLoopQueue
              << ", deadline 6 direct renders; load x of the batch-4 "
                 "rps):\n";
    open_table.print(std::cout);

    writeJson(out_path, results, smoke, total_hung, admitted_identical);
    std::cout << "\nwrote " << out_path << "\n";
    int rc = 0;
    if (!all_identical) {
        std::cerr << "FAIL: batched or traced images differ from "
                     "sequential\n";
        rc = 1;
    }
    if (total_hung > 0) {
        std::cerr << "FAIL: " << total_hung
                  << " open-loop requests never resolved\n";
        rc = 1;
    }
    if (!admitted_identical) {
        std::cerr << "FAIL: admitted open-loop frames differ from "
                     "direct renders\n";
        rc = 1;
    }
    // The two-sided SLO contract: no sweep point and no clean open-loop
    // point may BREACH (Healthy/Degraded are both acceptable —
    // overload sheds by design), and the worker-stall fault must be
    // caught as a breach (a monitor that can't see a stalled worker is
    // not watching anything).
    if (anyBreached(results)) {
        std::cerr << "FAIL: a sweep or clean open-loop point breached "
                     "its SLO (see slo lines above)\n";
        rc = 1;
    }
    for (const CaseResult &r : results)
        if (r.fault_point.slo.verdict != SloVerdict::Breached) {
            std::cerr << "FAIL: [" << r.cfg.name
                      << "] worker-stall fault NOT caught as breach: "
                      << r.fault_point.slo.summary() << "\n";
            rc = 1;
        }
    return rc;
}
