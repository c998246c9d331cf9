/**
 * @file
 * Tests for the self-watching layer (src/obs/slo.*, src/obs/anomaly.*):
 * the SLO rule-spec parser (round-trip, malformed-line skipping),
 * windowed registry snapshots (HistogramSnapshot::delta equals a
 * histogram of only the in-window records, counter/gauge delta
 * semantics), verdict threshold transitions for all three rule kinds,
 * the streaming anomaly detectors (EWMA spike, step-change level
 * shift, repeated-run identity), the determinism contract (concurrent
 * recording produces the same verdicts as serial), breach spans in the
 * Chrome trace export, the exporter tick-hook ordering, and the
 * acceptance scenario: a clean Reject-policy RenderService run stays
 * Healthy under the same rules a worker-stall fault flips to Breached.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/anomaly.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"
#include "serve/render_service.hpp"
#include "serve/snapshot.hpp"
#include "util/fault.hpp"

namespace clm {
namespace {

/** Every test starts and ends with tracing off — no global tracer
 *  state leaks between tests (or into other suites). */
class SloTest : public ::testing::Test
{
  protected:
    void SetUp() override { Tracer::enable(nullptr); }
    void TearDown() override { Tracer::enable(nullptr); }
};

// --------------------------------------------------------------------------
// Rule-spec parser

TEST_F(SloTest, ParseAllRuleKindsAndRoundTrip)
{
    const std::string spec =
        "# latency bound\n"
        "hist serve.latency_ms p99 warn 10 fail 50\n"
        "ratio serve.shed_deadline / serve.requests warn 0.1 fail 0.5; "
        "gauge serve.queue_depth fail 64\n";
    int n_errors = -1;
    std::vector<SloRule> rules = parseSloRules(spec, &n_errors);
    EXPECT_EQ(n_errors, 0);
    ASSERT_EQ(rules.size(), 3u);

    EXPECT_EQ(rules[0].kind, SloRuleKind::HistogramPercentile);
    EXPECT_EQ(rules[0].metric, "serve.latency_ms");
    EXPECT_DOUBLE_EQ(rules[0].percentile, 99.0);
    EXPECT_DOUBLE_EQ(rules[0].warn, 10.0);
    EXPECT_DOUBLE_EQ(rules[0].fail, 50.0);
    EXPECT_EQ(rules[0].name, "serve.latency_ms.p99");

    EXPECT_EQ(rules[1].kind, SloRuleKind::CounterRatio);
    EXPECT_EQ(rules[1].metric, "serve.shed_deadline");
    EXPECT_EQ(rules[1].denominator, "serve.requests");
    EXPECT_EQ(rules[1].name, "serve.shed_deadline/serve.requests");

    EXPECT_EQ(rules[2].kind, SloRuleKind::GaugeBound);
    EXPECT_DOUBLE_EQ(rules[2].warn, 0.0);    // warn omitted -> disabled
    EXPECT_DOUBLE_EQ(rules[2].fail, 64.0);

    // formatSloRule output re-parses to the identical rule set.
    std::string canon;
    for (const SloRule &r : rules)
        canon += formatSloRule(r) + "\n";
    std::vector<SloRule> again = parseSloRules(canon, &n_errors);
    EXPECT_EQ(n_errors, 0);
    ASSERT_EQ(again.size(), rules.size());
    for (size_t i = 0; i < rules.size(); ++i) {
        EXPECT_EQ(again[i].kind, rules[i].kind) << i;
        EXPECT_EQ(again[i].name, rules[i].name) << i;
        EXPECT_EQ(again[i].metric, rules[i].metric) << i;
        EXPECT_EQ(again[i].denominator, rules[i].denominator) << i;
        EXPECT_DOUBLE_EQ(again[i].percentile, rules[i].percentile) << i;
        EXPECT_DOUBLE_EQ(again[i].warn, rules[i].warn) << i;
        EXPECT_DOUBLE_EQ(again[i].fail, rules[i].fail) << i;
    }
}

TEST_F(SloTest, ParseSkipsMalformedLinesAndCountsThem)
{
    const std::string spec =
        "hist serve.latency_ms p99 fail 50\n"
        "bogus kind here\n"               // unknown kind
        "hist serve.latency_ms p99\n"     // missing fail clause
        "ratio a b warn not_a_number fail 2\n"
        "gauge depth fail 8\n";
    int n_errors = 0;
    std::vector<SloRule> rules = parseSloRules(spec, &n_errors);
    EXPECT_EQ(n_errors, 3);
    ASSERT_EQ(rules.size(), 2u);    // the two well-formed lines survive
    EXPECT_EQ(rules[0].metric, "serve.latency_ms");
    EXPECT_EQ(rules[1].metric, "depth");

    // Empty / comment-only spec parses to no rules, no errors.
    rules = parseSloRules("# nothing\n\n  \n", &n_errors);
    EXPECT_EQ(n_errors, 0);
    EXPECT_TRUE(rules.empty());
}

// --------------------------------------------------------------------------
// Windowed snapshots

TEST_F(SloTest, HistogramDeltaEqualsWindowOnlyHistogram)
{
    Histogram h(1.0, 16.0, 1);
    h.record(1.5);
    h.record(3.0);
    h.record(0.5);
    HistogramSnapshot before = h.snapshot();

    // The window: records landing between the two snapshots.
    const double window_values[] = {2.5, 7.0, 7.5, 12.0};
    Histogram window_only(1.0, 16.0, 1);
    for (double v : window_values) {
        h.record(v);
        window_only.record(v);
    }
    HistogramSnapshot delta = h.snapshot().delta(before);
    HistogramSnapshot expect = window_only.snapshot();

    EXPECT_EQ(delta.count, expect.count);
    ASSERT_EQ(delta.buckets.size(), expect.buckets.size());
    ASSERT_EQ(delta.bucket_index.size(), expect.bucket_index.size());
    for (size_t i = 0; i < delta.buckets.size(); ++i) {
        EXPECT_EQ(delta.bucket_index[i], expect.bucket_index[i]) << i;
        EXPECT_EQ(delta.buckets[i], expect.buckets[i]) << i;
    }
    // Windowed percentiles equal those of the window-only histogram.
    for (double p : {0.0, 50.0, 90.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(delta.percentile(p), expect.percentile(p)) << p;
    EXPECT_DOUBLE_EQ(delta.p99, expect.p99);
}

TEST_F(SloTest, HistogramDeltaSurvivesMovingOverflowEdge)
{
    // The overflow bucket reports the running max as its "edge", which
    // moves between snapshots — delta must key on bucket INDEX, not on
    // the edge value, or overflow counts mis-subtract.
    Histogram h(1.0, 4.0, 1);
    h.record(100.0);    // overflow, max = 100
    HistogramSnapshot before = h.snapshot();
    h.record(200.0);    // overflow again, max moves to 200
    HistogramSnapshot delta = h.snapshot().delta(before);
    EXPECT_EQ(delta.count, 1u);
    EXPECT_DOUBLE_EQ(delta.percentile(99), 200.0);
}

TEST_F(SloTest, RegistrySnapshotDeltaCountersAndGauges)
{
    MetricsRegistry reg;
    reg.counter("req").add(10);
    reg.gauge("depth").set(3.0);
    RegistrySnapshot before = reg.snapshot(1.0);

    reg.counter("req").add(7);
    reg.counter("late").add(2);    // registered after the baseline
    reg.gauge("depth").set(8.0);
    RegistrySnapshot window = reg.snapshotDelta(before, 2.5);

    EXPECT_EQ(window.counters.at("req"), 7u);      // delta, not total
    EXPECT_EQ(window.counters.at("late"), 2u);     // new counter: full value
    EXPECT_DOUBLE_EQ(window.gauges.at("depth"), 8.0);    // last write wins
    EXPECT_DOUBLE_EQ(window.ts_s, 2.5);
}

// --------------------------------------------------------------------------
// Verdicts

TEST_F(SloTest, VerdictThresholdTransitions)
{
    MetricsRegistry reg;
    Histogram &lat = reg.histogram("lat_ms", 1e-3, 1e5, 8);

    SloMonitorConfig cfg;
    cfg.detect_anomalies = false;
    SloMonitor slo(reg, parseSloRules("hist lat_ms p99 warn 10 fail 50"),
                   cfg);

    for (int i = 0; i < 20; ++i)
        lat.record(1.0);
    SloReport rep = slo.tick(1.0);
    ASSERT_EQ(rep.rules.size(), 1u);
    EXPECT_EQ(rep.verdict, SloVerdict::Healthy);
    EXPECT_EQ(rep.rules[0].samples, 20u);

    for (int i = 0; i < 20; ++i)
        lat.record(20.0);    // window p99 ~20: above warn, below fail
    rep = slo.tick(2.0);
    EXPECT_EQ(rep.verdict, SloVerdict::Degraded);
    EXPECT_GT(rep.rules[0].value, 10.0);
    EXPECT_LT(rep.rules[0].value, 50.0);

    for (int i = 0; i < 20; ++i)
        lat.record(100.0);
    rep = slo.tick(3.0);
    EXPECT_EQ(rep.verdict, SloVerdict::Breached);
    EXPECT_GT(rep.rules[0].value, 50.0);

    // Ticks window independently: a quiet window is insufficient data,
    // never a carried-over breach — but worstVerdict() remembers.
    rep = slo.tick(4.0);
    EXPECT_EQ(rep.verdict, SloVerdict::Healthy);
    EXPECT_EQ(rep.rules[0].samples, 0u);
    EXPECT_EQ(slo.worstVerdict(), SloVerdict::Breached);
    EXPECT_EQ(slo.ticks(), 4);

    // total() windows from construction: dominated by the later
    // breaching samples, and a pure read (tick count unchanged).
    SloReport tot = slo.total(4.0);
    EXPECT_EQ(tot.tick, 0);
    EXPECT_EQ(tot.verdict, SloVerdict::Breached);
    EXPECT_EQ(tot.rules[0].samples, 60u);
    EXPECT_EQ(slo.ticks(), 4);
}

TEST_F(SloTest, CounterRatioTreatsZeroDenominatorAsOne)
{
    // Sheds with zero completed renders must still breach — the ratio
    // evaluates num / max(den, 1), never a silent 0/0.
    MetricsRegistry reg;
    SloMonitorConfig cfg;
    cfg.detect_anomalies = false;
    SloMonitor slo(reg,
                   parseSloRules("ratio shed / done warn 0.1 fail 0.5"),
                   cfg);
    reg.counter("shed").add(6);
    SloReport rep = slo.tick(1.0);
    ASSERT_EQ(rep.rules.size(), 1u);
    EXPECT_DOUBLE_EQ(rep.rules[0].value, 6.0);
    EXPECT_EQ(rep.verdict, SloVerdict::Breached);

    // Healthy ratio: sheds rare relative to completions.
    reg.counter("shed").add(1);
    reg.counter("done").add(100);
    rep = slo.tick(2.0);
    EXPECT_DOUBLE_EQ(rep.rules[0].value, 0.01);
    EXPECT_EQ(rep.verdict, SloVerdict::Healthy);
}

TEST_F(SloTest, GaugeBoundAndDisabledWarnBand)
{
    MetricsRegistry reg;
    Gauge &depth = reg.gauge("depth");
    SloMonitorConfig cfg;
    cfg.detect_anomalies = false;
    // warn omitted -> no Degraded band: value sits either side of fail.
    SloMonitor slo(reg, parseSloRules("gauge depth fail 8"), cfg);

    depth.set(7.0);
    EXPECT_EQ(slo.tick(1.0).verdict, SloVerdict::Healthy);
    depth.set(9.0);
    EXPECT_EQ(slo.tick(2.0).verdict, SloVerdict::Breached);
}

TEST_F(SloTest, MinSamplesGatesWindowedRulesOnly)
{
    MetricsRegistry reg;
    Histogram &lat = reg.histogram("lat_ms", 1e-3, 1e5, 8);
    reg.gauge("depth").set(100.0);

    SloMonitorConfig cfg;
    cfg.detect_anomalies = false;
    cfg.min_samples = 10;
    SloMonitor slo(reg,
                   parseSloRules("hist lat_ms p99 fail 50\n"
                                 "gauge depth fail 8"),
                   cfg);

    // 5 breaching samples < min_samples: insufficient data, Healthy —
    // but the gauge rule is instantaneous and still breaches.
    for (int i = 0; i < 5; ++i)
        lat.record(1000.0);
    SloReport rep = slo.tick(1.0);
    ASSERT_EQ(rep.rules.size(), 2u);
    EXPECT_EQ(rep.rules[0].verdict, SloVerdict::Healthy);
    EXPECT_EQ(rep.rules[1].verdict, SloVerdict::Breached);

    for (int i = 0; i < 10; ++i)
        lat.record(1000.0);
    rep = slo.tick(2.0);
    EXPECT_EQ(rep.rules[0].verdict, SloVerdict::Breached);
}

// --------------------------------------------------------------------------
// Anomaly detectors

TEST_F(SloTest, EwmaDetectorFlagsSpikeAfterWarmupAndIsRepeatable)
{
    EwmaConfig cfg;    // alpha 0.3, z 4, warmup 5
    auto run = [&cfg](std::vector<bool> &fired) {
        EwmaDetector d(cfg);
        for (int i = 0; i < 10; ++i)
            fired.push_back(d.observe(10.0 + 0.1 * (i % 3)));
        fired.push_back(d.observe(100.0));    // spike
        fired.push_back(d.observe(10.0));
    };
    std::vector<bool> a, b;
    run(a);
    run(b);
    EXPECT_EQ(a, b);    // pure function of the observation sequence
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(a[i]) << i;    // stable baseline never flags
    EXPECT_TRUE(a[10]);             // the spike flags

    // Warmup: a spike inside the first `warmup` samples never flags.
    EwmaDetector early(cfg);
    for (int i = 0; i < cfg.warmup - 1; ++i)
        early.observe(10.0);
    EXPECT_FALSE(early.observe(1e6));

    // NaN observations are ignored, not folded into the baseline.
    EwmaDetector nan_d(cfg);
    for (int i = 0; i < 8; ++i)
        nan_d.observe(10.0);
    EXPECT_FALSE(nan_d.observe(std::nan("")));
    EXPECT_EQ(nan_d.samples(), 8);
}

TEST_F(SloTest, StepChangeDetectorFlagsLevelShift)
{
    StepChangeConfig cfg;    // window 8, rel_threshold 0.5
    StepChangeDetector d(cfg);
    // Old level 10 for W samples, new level 20 for W samples: the
    // comparison needs a full 2W before it can fire.
    for (int i = 0; i < cfg.window; ++i)
        EXPECT_FALSE(d.observe(10.0)) << i;
    bool fired = false;
    for (int i = 0; i < cfg.window; ++i)
        fired = d.observe(20.0) || fired;
    EXPECT_TRUE(fired);
    EXPECT_NEAR(d.lastShift(), 1.0, 0.02);    // 20/10 - 1

    // A stream that never shifts never fires, even over many windows.
    StepChangeDetector flat(cfg);
    for (int i = 0; i < 6 * cfg.window; ++i)
        EXPECT_FALSE(flat.observe(10.0)) << i;
}

TEST_F(SloTest, AnomalyEscalatesHealthyWindowToDegradedOnly)
{
    MetricsRegistry reg;
    Histogram &lat = reg.histogram("lat_ms", 1e-3, 1e5, 8);
    // fail far above anything recorded: thresholds alone stay Healthy.
    SloMonitor slo(reg, parseSloRules("hist lat_ms p99 fail 1e6"));

    // Warm the EWMA baseline with stable windows...
    for (int t = 1; t <= 8; ++t) {
        for (int i = 0; i < 20; ++i)
            lat.record(10.0);
        SloReport rep = slo.tick(static_cast<double>(t));
        EXPECT_EQ(rep.verdict, SloVerdict::Healthy) << t;
        EXPECT_FALSE(rep.rules[0].anomaly) << t;
    }
    // ...then one wildly different window: anomalous, but NOT a
    // threshold crossing — Degraded, never Breached.
    for (int i = 0; i < 20; ++i)
        lat.record(500.0);
    SloReport rep = slo.tick(9.0);
    EXPECT_TRUE(rep.rules[0].anomaly);
    EXPECT_GT(rep.rules[0].z, 4.0);
    EXPECT_EQ(rep.verdict, SloVerdict::Degraded);
    EXPECT_EQ(slo.worstVerdict(), SloVerdict::Degraded);
}

// --------------------------------------------------------------------------
// Determinism

TEST_F(SloTest, ConcurrentRecordingMatchesSerialVerdicts)
{
    // The same multiset of samples, recorded serially vs from four
    // threads, must produce identical windowed values and verdicts —
    // the PR-9 histogram determinism carries through snapshot deltas
    // into SLO evaluation.
    const std::string spec =
        "hist lat_ms p99 warn 10 fail 50\n"
        "ratio shed / done warn 0.1 fail 0.5";
    std::vector<double> samples;
    for (int i = 0; i < 4000; ++i)
        samples.push_back(0.5 + (i % 97) * 0.37);

    auto evaluate = [&](bool threaded, SloReport &out) {
        MetricsRegistry reg;
        Histogram &lat = reg.histogram("lat_ms", 1e-3, 1e5, 8);
        SloMonitorConfig cfg;
        cfg.detect_anomalies = false;
        SloMonitor slo(reg, parseSloRules(spec), cfg);
        if (threaded) {
            std::vector<std::thread> workers;
            for (int w = 0; w < 4; ++w)
                workers.emplace_back([&, w] {
                    for (size_t i = w; i < samples.size(); i += 4) {
                        lat.record(samples[i]);
                        reg.counter("done").add();
                        if (i % 50 == 0)
                            reg.counter("shed").add();
                    }
                });
            for (std::thread &t : workers)
                t.join();
        } else {
            for (size_t i = 0; i < samples.size(); ++i) {
                lat.record(samples[i]);
                reg.counter("done").add();
                if (i % 50 == 0)
                    reg.counter("shed").add();
            }
        }
        out = slo.tick(1.0);
    };

    SloReport serial, threaded;
    evaluate(false, serial);
    evaluate(true, threaded);
    ASSERT_EQ(serial.rules.size(), threaded.rules.size());
    EXPECT_EQ(serial.verdict, threaded.verdict);
    for (size_t i = 0; i < serial.rules.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial.rules[i].value, threaded.rules[i].value);
        EXPECT_EQ(serial.rules[i].samples, threaded.rules[i].samples);
        EXPECT_EQ(serial.rules[i].verdict, threaded.rules[i].verdict);
    }
}

// --------------------------------------------------------------------------
// Breach spans and exporter wiring

TEST_F(SloTest, BreachedWindowRecordsSpanIntoChromeTrace)
{
    MetricsRegistry reg;
    Histogram &lat = reg.histogram("lat_ms", 1e-3, 1e5, 8);
    SloMonitorConfig cfg;
    cfg.detect_anomalies = false;
    SloMonitor slo(reg, parseSloRules("hist lat_ms p99 fail 50"), cfg);

    Tracer tracer;
    Tracer::enable(&tracer);
    lat.record(1.0);
    slo.tick(1.0);       // healthy: no span
    lat.record(1000.0);
    slo.tick(2.0);       // breached: one "slo.breach" span
    Tracer::enable(nullptr);

    int breach_spans = 0;
    for (const auto &span : tracer.snapshotSpans())
        if (std::string(span.name) == "slo.breach")
            ++breach_spans;
    EXPECT_EQ(breach_spans, 1);

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    EXPECT_NE(os.str().find("slo.breach"), std::string::npos);
}

TEST_F(SloTest, ExporterTickHookRunsBeforeFinalFlush)
{
    // The tick hook must run before EVERY snapshot line — including the
    // final flush stop() writes — so gauges the hook sets (the SLO
    // verdict stream) appear even in a run too short for one period.
    const std::string path = "test_slo_exporter.jsonl";
    MetricsRegistry reg;
    reg.counter("req").add(3);
    {
        MetricsExporter exporter(reg, path, /*period_ms=*/60'000);
        exporter.setTickHook(
            [&reg](double) { reg.gauge("hook.fired").set(1.0); });
        exporter.stop();
        EXPECT_GE(exporter.snapshots(), 1);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line, last;
    int lines = 0;
    while (std::getline(in, line))
        if (!line.empty()) {
            last = line;
            ++lines;
        }
    in.close();
    std::remove(path.c_str());
    EXPECT_GE(lines, 1);
    EXPECT_NE(last.find("\"hook.fired\""), std::string::npos);
    EXPECT_NE(last.find("\"req\""), std::string::npos);
}

// --------------------------------------------------------------------------
// Acceptance scenario: clean serving Healthy, worker-stall Breached

TEST_F(SloTest, ServiceCleanRejectRunIsHealthyWorkerStallBreaches)
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel model = generateSceneGaussians(spec, 500);
    std::vector<Camera> cameras = generateCameraPath(spec, 6, 64, 40);
    // The deadline-shed rule micro_serve's open-loop points embed
    // (anchored loosely here — what matters is the clean/fault verdict
    // FLIP, not the band).
    const std::string rules =
        "ratio serve.shed_deadline / serve.requests warn 0.1 fail 0.5";

    auto run = [&](bool stall) {
        SnapshotSlot slot;
        slot.publish(model, 0);
        FaultPlan plan;
        plan.at(FaultPoint::WorkerStall).every_n = 1;
        plan.at(FaultPoint::WorkerStall).hold = true;
        FaultInjector faults(plan);

        MetricsRegistry reg;
        ServeConfig cfg;
        cfg.workers = 1;
        cfg.max_batch = 2;
        cfg.queue_capacity = 16;
        cfg.render.sh_degree = 1;
        cfg.admission.shed = ShedPolicy::Reject;
        cfg.admission.deadline_s = stall ? 0.05 : 30.0;
        cfg.metrics = &reg;
        if (stall)
            cfg.faults = &faults;
        RenderService service(slot, cfg);
        SloMonitorConfig mon_cfg;
        mon_cfg.detect_anomalies = false;
        SloMonitor slo(reg, parseSloRules(rules), mon_cfg);

        std::vector<std::future<RenderResponse>> futs;
        for (int r = 0; r < 8; ++r)
            futs.push_back(service.submit(cameras[r % 6]));
        if (stall) {
            // Pin the worker past every queued request's deadline, then
            // release: each dequeue finds an expired request.
            std::this_thread::sleep_for(std::chrono::milliseconds(150));
            faults.release(FaultPoint::WorkerStall);
        }
        int ok = 0, shed_deadline = 0;
        for (auto &f : futs) {
            RenderResponse resp = f.get();    // must never hang or throw
            if (resp.ok())
                ++ok;
            else if (resp.status == ServeStatus::ShedDeadline)
                ++shed_deadline;
        }
        service.stop();
        SloReport rep = slo.total(1.0);
        if (stall) {
            EXPECT_EQ(ok, 0);
            EXPECT_EQ(shed_deadline, 8);
            EXPECT_EQ(rep.verdict, SloVerdict::Breached) << rep.summary();
        } else {
            EXPECT_EQ(ok, 8);
            EXPECT_EQ(rep.verdict, SloVerdict::Healthy) << rep.summary();
        }
    };
    run(/*stall=*/false);
    run(/*stall=*/true);
}

} // namespace
} // namespace clm
