/**
 * @file
 * Command-line driver: train any scene preset with any of the four
 * systems and export the result — the entry point a downstream user
 * scripts against.
 *
 * Usage:
 *   clm_cli [--scene NAME] [--system clm|baseline|enhanced|naive]
 *           [--model-size N] [--steps N] [--async-adam] [--densify]
 *           [--save model.bin] [--ply points.ply] [--render out.ppm]
 *
 *   clm_cli serve [--scene NAME] [--system ...] [--steps N]
 *                 [--clients N] [--requests N] [--max-batch N]
 *                 [--shed block|reject|drop-oldest]
 *                 [--deadline-ms N] [--queue N] [--trace-out FILE]
 *                 [--metrics-out FILE] [--metrics-every-ms N]
 *                 [--slo FILE|SPEC]
 *
 * The serve subcommand trains briefly, then keeps training in the
 * background while N synthetic clients walk the scene's camera path and
 * request views from a RenderService — the live-model serving loop:
 * training republishes a model snapshot every batch, clients render
 * from whatever snapshot is current, and requests are coalesced into
 * fused multi-view batches of up to --max-batch requests.
 *
 * --shed selects the admission policy (default from CLM_SHED, else
 * block) and --deadline-ms bounds how stale a queued request may get
 * before it is shed at dequeue. Clients submit through the seeded
 * RetryPolicy, so shed responses degrade to deterministic
 * backoff-and-retry instead of errors; per-client retry totals are
 * reported next to the service's shed counters.
 *
 * Observability: --trace-out FILE (default: the CLM_TRACE env var)
 * enables the span tracer for the whole serve run and dumps a Chrome
 * trace-event JSON on exit (load it in Perfetto or chrome://tracing).
 * --metrics-out FILE streams periodic JSON-lines snapshots of the
 * unified metrics registry (serve.* counters and the queue-wait /
 * render-time histograms, plus the offload trainers' stage timings)
 * every --metrics-every-ms (default 100).
 *
 * --slo takes an SLO rule spec (a file path, or the spec inline with
 * ';' separating rules — see obs/slo.hpp for the grammar) and watches
 * the run with an SloMonitor: verdict transitions print live, verdict
 * gauges ride the metrics.jsonl stream, Breached windows record
 * slo.breach spans into the trace, and the run ends with a final
 * "[slo] verdict:" line over the whole serve window. Without --slo a
 * permissive default rule set (deadline-shed ratio + latency p99)
 * still produces the final verdict line.
 *
 * Numeric arguments go through the util/env clamping policy: garbage
 * warns and falls back to the default instead of silently becoming 0.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/clm.hpp"
#include "gaussian/io.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/render_service.hpp"
#include "serve/retry.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "train/offload_trainer.hpp"

namespace {

using namespace clm;

SystemKind
parseSystem(const std::string &name)
{
    if (name == "clm")
        return SystemKind::Clm;
    if (name == "baseline")
        return SystemKind::Baseline;
    if (name == "enhanced")
        return SystemKind::EnhancedBaseline;
    if (name == "naive")
        return SystemKind::NaiveOffload;
    CLM_FATAL("unknown system: ", name,
              " (expected clm|baseline|enhanced|naive)");
}

ShedPolicy
parseShed(const std::string &name)
{
    if (name == "block")
        return ShedPolicy::Block;
    if (name == "reject")
        return ShedPolicy::Reject;
    if (name == "drop-oldest")
        return ShedPolicy::DropOldest;
    CLM_FATAL("unknown shed policy: ", name,
              " (expected block|reject|drop-oldest)");
}

/** --shed default: CLM_SHED env var, else "block". */
std::string
defaultShed()
{
    static const char *const kChoices[] = {"block", "reject",
                                           "drop-oldest"};
    return envChoice("CLM_SHED", kChoices, 3, "block");
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--scene NAME] [--system clm|baseline|enhanced|naive]\n"
        "          [--model-size N] [--steps N] [--async-adam]\n"
        "          [--densify] [--save FILE] [--ply FILE] "
        "[--render FILE]\n"
        "       %s serve [--scene NAME] [--system ...] [--steps N]\n"
        "          [--clients N] [--requests N] [--max-batch N]\n"
        "          [--shed block|reject|drop-oldest]\n"
        "          [--deadline-ms N] [--queue N] [--trace-out FILE]\n"
        "          [--metrics-out FILE] [--metrics-every-ms N]\n"
        "          [--slo FILE|SPEC]\n"
        "scenes: Bicycle Rubble Alameda Ithaca BigCity\n"
        "env: CLM_TRACE=FILE enables tracing (same as --trace-out)\n"
        "slo spec: 'hist M pP [warn W] fail F', 'ratio A / B [warn W]"
        " fail F',\n"
        "          'gauge M [warn W] fail F' — one per line or"
        " ';'-separated\n",
        argv0, argv0);
    std::exit(2);
}

/** --slo value: a readable file's contents, else the value itself as
 *  an inline spec ruleset. */
std::string
loadSloSpec(const std::string &arg)
{
    std::ifstream in(arg);
    if (in) {
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }
    return arg;
}

/** Permissive default rules so every serve run ends with a verdict:
 *  deadline sheds should stay rare relative to rendered requests, and
 *  end-to-end p99 should stay interactive. */
const char *const kDefaultSloSpec =
    "ratio serve.shed_deadline / serve.requests warn 0.25 fail 1\n"
    "hist serve.latency_ms p99 warn 1000 fail 5000\n";

/**
 * The serve mode: brief warm-up training, then concurrent
 * train-and-serve — a background thread keeps running batches (each one
 * republishes the model snapshot) while client threads walk the
 * training camera path against the RenderService.
 */
int
runServe(Clm &session, int warmup_steps, int n_clients, int n_requests,
         int max_batch, ShedPolicy shed, double deadline_ms,
         int queue_capacity, const std::string &trace_path,
         const std::string &metrics_path, double metrics_every_ms,
         const std::string &slo_spec)
{
    const auto run_t0 = std::chrono::steady_clock::now();
    const auto elapsed_s = [run_t0] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - run_t0)
            .count();
    };
    // Tracing covers the whole run (warm-up training included) so the
    // exported trace shows train.* spans next to the serve.* ones.
    const bool tracing = !trace_path.empty();
    if (tracing) {
        Tracer::global().clear();
        Tracer::enable(&Tracer::global());
        std::printf("[obs] tracing enabled -> %s\n", trace_path.c_str());
    }
    // One registry for everything: the service reports through it
    // (ServeConfig::metrics below) and the trainer's stage timings are
    // exported into it at shutdown, so a single JSON-lines stream
    // carries the full serve+train picture.
    MetricsRegistry registry;

    std::printf("[serve] warm-up: %d training steps...\n", warmup_steps);
    session.train(warmup_steps);
    std::printf("[serve] PSNR after warm-up: %.2f dB\n",
                session.evaluatePsnr());

    ServeConfig serve_config;
    serve_config.workers = 1;
    serve_config.max_batch = max_batch;
    serve_config.render = session.config().train.render;
    if (queue_capacity > 0)
        serve_config.queue_capacity =
            static_cast<size_t>(queue_capacity);
    serve_config.admission.shed = shed;
    serve_config.admission.deadline_s = deadline_ms / 1e3;
    serve_config.metrics = &registry;
    RenderService service(session.snapshots(), serve_config);

    // SLO monitor over the same registry. Constructed after the
    // service so the serve.* metrics it watches are registered; its
    // baseline snapshot is the pre-traffic state.
    int slo_parse_errors = 0;
    std::vector<SloRule> slo_rules =
        parseSloRules(slo_spec, &slo_parse_errors);
    if (slo_rules.empty()) {
        if (slo_parse_errors > 0)
            warn("--slo: no usable rules parsed; using defaults");
        slo_rules = parseSloRules(kDefaultSloSpec);
    }
    for (const SloRule &r : slo_rules)
        std::printf("[slo] rule: %s\n", formatSloRule(r).c_str());
    SloMonitor slo(registry, slo_rules);

    std::unique_ptr<MetricsExporter> exporter;
    if (!metrics_path.empty()) {
        exporter = std::make_unique<MetricsExporter>(
            registry, metrics_path,
            metrics_every_ms > 0 ? metrics_every_ms : 100.0);
        std::printf("[obs] metrics snapshots every %.0f ms -> %s\n",
                    metrics_every_ms > 0 ? metrics_every_ms : 100.0,
                    metrics_path.c_str());
        // Tick the monitor right before each metrics line so the
        // slo.* verdict gauges land in the line being written; print
        // verdict TRANSITIONS live (steady health stays quiet).
        auto last_verdict =
            std::make_shared<std::atomic<int>>(-1);
        exporter->setTickHook([&slo, last_verdict](double ts_s) {
            const SloReport rep = slo.tick(ts_s);
            const int v = static_cast<int>(rep.verdict);
            if (v != last_verdict->exchange(v))
                std::printf("[slo] t=%.2fs %s\n", ts_s,
                            rep.summary().c_str());
        });
    }

    // Training continues while clients are served; every batch
    // republishes the snapshot the service renders from.
    std::atomic<bool> stop_training{false};
    std::thread training([&] {
        while (!stop_training.load())
            session.train(1);
    });

    std::printf(
        "[serve] %d clients, %d total requests, max_batch=%d, training "
        "in the background...\n",
        n_clients, n_requests, max_batch);
    // Clients go through the seeded RetryPolicy: a shed or throttled
    // response becomes a deterministic capped-backoff retry, never an
    // error surfaced to the caller.
    std::atomic<int> budget{n_requests};
    RetryPolicy retry;
    std::vector<RetryStats> client_retries(
        static_cast<size_t>(n_clients));
    std::atomic<uint64_t> gave_up_total{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < n_clients; ++c) {
        clients.emplace_back([&, c] {
            size_t pos = static_cast<size_t>(c) * session.viewCount()
                       / static_cast<size_t>(n_clients);
            RetryStats &rs = client_retries[static_cast<size_t>(c)];
            while (budget.fetch_sub(1) > 0) {
                RenderResponse resp = submitWithRetry(
                    service, session.camera(pos % session.viewCount()),
                    /*client_id=*/static_cast<uint64_t>(c) + 1, retry,
                    /*request_key=*/pos, &rs);
                if (!resp.ok())
                    gave_up_total.fetch_add(1);
                ++pos;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    stop_training = true;
    training.join();
    service.stop();

    ServeStats stats = service.stats();
    std::printf(
        "[serve] %llu requests in %llu batches (mean batch %.2f)\n",
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.batches), stats.mean_batch);
    std::printf("[serve] throughput %.1f req/s, latency p50 %.1f ms, "
                "p99 %.1f ms\n",
                stats.requests_per_s, stats.p50_ms, stats.p99_ms);
    std::printf("[serve] latency decomposition: queue-wait p50 %.1f / "
                "p99 %.1f ms, render p50 %.1f / p99 %.1f ms\n",
                stats.queue_wait_p50_ms, stats.queue_wait_p99_ms,
                stats.render_p50_ms, stats.render_p99_ms);
    uint64_t retries = 0, backoffs_us = 0;
    for (const RetryStats &rs : client_retries) {
        retries += rs.retries;
        backoffs_us += static_cast<uint64_t>(rs.backoff_s * 1e6);
    }
    std::printf(
        "[serve] admission: %llu submitted, %llu shed (queue-full "
        "%llu, deadline %llu), %llu throttled, %llu retries "
        "(%.1f ms backoff), %llu gave up\n",
        static_cast<unsigned long long>(stats.submitted),
        static_cast<unsigned long long>(stats.shed_queue_full
                                        + stats.shed_deadline),
        static_cast<unsigned long long>(stats.shed_queue_full),
        static_cast<unsigned long long>(stats.shed_deadline),
        static_cast<unsigned long long>(stats.throttled_client),
        static_cast<unsigned long long>(retries), backoffs_us / 1e3,
        static_cast<unsigned long long>(gave_up_total.load()));
    std::printf("[serve] batch occupancy:");
    for (size_t k = 0; k < stats.batch_occupancy.size(); ++k)
        std::printf(" %zux%llu", k + 1,
                    static_cast<unsigned long long>(
                        stats.batch_occupancy[k]));
    std::printf("\n");
    std::printf(
        "[serve] snapshots served: versions %llu..%llu (training "
        "advanced the model %llu times mid-serve)\n",
        static_cast<unsigned long long>(stats.min_snapshot_version),
        static_cast<unsigned long long>(stats.max_snapshot_version),
        static_cast<unsigned long long>(stats.max_snapshot_version
                                        - stats.min_snapshot_version));
    std::printf("[serve] PSNR after serving: %.2f dB\n",
                session.evaluatePsnr());

    // Offload trainers account their pipeline stages in StageTimings;
    // fold them into the registry so the final metrics snapshot (and
    // the exporter's last line) carries the training-side breakdown.
    if (const auto *offload =
            dynamic_cast<const OffloadTrainer *>(&session.trainer()))
        offload->stageTimings().exportTo(registry);
    if (exporter != nullptr) {
        exporter->stop();
        std::printf("[obs] metrics: %d snapshots -> %s\n",
                    exporter->snapshots(), metrics_path.c_str());
    }
    // Final verdict over the WHOLE serve window (warm-up excluded:
    // the monitor's baseline snapshot predates traffic, not training;
    // training metrics are counters the rules don't bound).
    const SloReport slo_final = slo.total(elapsed_s());
    std::printf("[slo] windows evaluated: %d, worst %s\n", slo.ticks(),
                sloVerdictName(slo.worstVerdict()));
    std::printf("[slo] verdict: %s\n", slo_final.summary().c_str());
    if (tracing) {
        // Workers and clients are joined: quiescent, safe to disable
        // and export.
        Tracer::enable(nullptr);
        const TraceStats ts = Tracer::global().stats();
        if (Tracer::global().writeChromeTraceFile(trace_path))
            std::printf("[obs] trace: %llu spans (%llu dropped) from "
                        "%llu threads -> %s\n",
                        static_cast<unsigned long long>(ts.recorded),
                        static_cast<unsigned long long>(ts.dropped),
                        static_cast<unsigned long long>(ts.threads),
                        trace_path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace clm;

    std::string scene_name = "Bicycle";
    std::string system_name = "clm";
    std::string save_path, ply_path, render_path;
    size_t model_size = 0;
    int steps = 10;
    bool async_adam = false;
    bool densify = false;
    bool serve_mode = false;
    int clients = 4;
    int requests = 64;
    int max_batch = 4;
    std::string shed_name = defaultShed();
    double deadline_ms = 0;
    int queue_capacity = 0;
    std::string trace_path = traceEnvPath();    // CLM_TRACE default
    std::string metrics_path;
    double metrics_every_ms = 0;
    std::string slo_arg;

    int argi = 1;
    if (argi < argc && !std::strcmp(argv[argi], "serve")) {
        serve_mode = true;
        steps = 4;    // serve default: brief warm-up
        ++argi;
    }
    for (int i = argi; i < argc; ++i) {
        auto need_value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                usage(argv[0]);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--scene"))
            scene_name = need_value("--scene");
        else if (!std::strcmp(argv[i], "--system"))
            system_name = need_value("--system");
        else if (!std::strcmp(argv[i], "--model-size"))
            model_size = std::strtoull(
                need_value("--model-size").c_str(), nullptr, 10);
        else if (!std::strcmp(argv[i], "--steps"))
            steps = static_cast<int>(parseIntArg(
                "--steps", need_value("--steps").c_str(), steps, 0,
                1000000));
        else if (!std::strcmp(argv[i], "--async-adam"))
            async_adam = true;
        else if (!std::strcmp(argv[i], "--densify"))
            densify = true;
        else if (!std::strcmp(argv[i], "--save"))
            save_path = need_value("--save");
        else if (!std::strcmp(argv[i], "--ply"))
            ply_path = need_value("--ply");
        else if (!std::strcmp(argv[i], "--render"))
            render_path = need_value("--render");
        else if (serve_mode && !std::strcmp(argv[i], "--clients"))
            clients = static_cast<int>(parseIntArg(
                "--clients", need_value("--clients").c_str(), clients,
                1, 4096));
        else if (serve_mode && !std::strcmp(argv[i], "--requests"))
            requests = static_cast<int>(parseIntArg(
                "--requests", need_value("--requests").c_str(),
                requests, 1, 100000000));
        else if (serve_mode && !std::strcmp(argv[i], "--max-batch"))
            max_batch = static_cast<int>(parseIntArg(
                "--max-batch", need_value("--max-batch").c_str(),
                max_batch, 1, 1024));
        else if (serve_mode && !std::strcmp(argv[i], "--shed"))
            shed_name = need_value("--shed");
        else if (serve_mode && !std::strcmp(argv[i], "--deadline-ms"))
            deadline_ms = parseDoubleArg(
                "--deadline-ms", need_value("--deadline-ms").c_str(),
                deadline_ms, 0, 1e9);
        else if (serve_mode && !std::strcmp(argv[i], "--queue"))
            queue_capacity = static_cast<int>(parseIntArg(
                "--queue", need_value("--queue").c_str(),
                queue_capacity, 0, 1 << 20));
        else if (serve_mode && !std::strcmp(argv[i], "--trace-out"))
            trace_path = need_value("--trace-out");
        else if (serve_mode && !std::strcmp(argv[i], "--metrics-out"))
            metrics_path = need_value("--metrics-out");
        else if (serve_mode
                 && !std::strcmp(argv[i], "--metrics-every-ms"))
            metrics_every_ms = parseDoubleArg(
                "--metrics-every-ms",
                need_value("--metrics-every-ms").c_str(),
                metrics_every_ms, 0, 1e7);
        else if (serve_mode && !std::strcmp(argv[i], "--slo"))
            slo_arg = need_value("--slo");
        else
            usage(argv[0]);
    }

    ClmConfig config;
    config.scene = SceneSpec::byName(scene_name);
    // CLI default profile: quick CPU-friendly sizes.
    config.scene.train = {3000, 16, 64, 48};
    config.system = parseSystem(system_name);
    config.model_size = model_size;
    config.train.render.sh_degree = 1;
    config.train.loss.ssim_window = 5;
    config.train.async_adam = async_adam;

    Clm session(config);
    if (densify)
        session.trainer().enableDensification();

    std::printf("[clm] scene=%s system=%s model=%zu views=%zu steps=%d\n",
                scene_name.c_str(), systemName(config.system),
                session.model().size(), session.viewCount(), steps);

    if (serve_mode) {
        // --metrics-every-ms without an explicit path still streams.
        if (metrics_path.empty() && metrics_every_ms > 0)
            metrics_path = "metrics.jsonl";
        return runServe(session, steps, clients, requests, max_batch,
                        parseShed(shed_name), deadline_ms,
                        queue_capacity, trace_path, metrics_path,
                        metrics_every_ms,
                        slo_arg.empty() ? std::string()
                                        : loadSloSpec(slo_arg));
    }

    double psnr0 = session.evaluatePsnr();
    int done = 0;
    while (done < steps) {
        int chunk = std::min(5, steps - done);
        auto stats = session.train(chunk);
        done += chunk;
        std::printf("[clm] step %3d/%d  loss=%.4f  h2d=%.2f MB\n", done,
                    steps, stats.back().loss,
                    stats.back().h2d_bytes / 1e6);
        if (densify && done < steps) {
            DensifyStats ds = session.trainer().densifyNow();
            std::printf(
                "[clm] densify: +%zu cloned, %zu split, -%zu pruned "
                "-> %zu gaussians\n",
                ds.cloned, ds.split, ds.pruned, ds.resulting_size);
        }
    }
    std::printf("[clm] PSNR %.2f -> %.2f dB\n", psnr0,
                session.evaluatePsnr());

    if (!save_path.empty()) {
        saveModel(session.model(), save_path);
        std::printf("[clm] checkpoint -> %s\n", save_path.c_str());
    }
    if (!ply_path.empty()) {
        exportPly(session.model(), ply_path);
        std::printf("[clm] point cloud -> %s\n", ply_path.c_str());
    }
    if (!render_path.empty()) {
        session.renderView(0).writePpm(render_path);
        std::printf("[clm] view 0 -> %s\n", render_path.c_str());
    }
    return 0;
}
