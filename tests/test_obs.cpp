/**
 * @file
 * Tests for the observability layer (src/obs): counters, gauges, the
 * deterministic fixed-log-bucket histogram (bucket placement, exact
 * fixed-point sums, merge-order independence, concurrent recording),
 * the metrics registry + JSON-lines exporter, and the span tracer
 * (enable/disable, ring overflow eviction, span nesting, trace-context
 * scoping, StageClock laps, Chrome export shape) — plus the invariant
 * the whole layer is built around: tracing must not perturb rendering
 * or its gradients bitwise.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "render/arena.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"
#include "serve/render_service.hpp"
#include "serve/snapshot.hpp"
#include "sim/stage_timings.hpp"

namespace clm {
namespace {

/** Every test starts and ends with tracing off — no global tracer
 *  state leaks between tests (or into other suites). */
class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override { Tracer::enable(nullptr); }
    void TearDown() override { Tracer::enable(nullptr); }
};

// --------------------------------------------------------------------------
// Metrics

TEST_F(ObsTest, CounterAndGaugeBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);

    Gauge g;
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    g.set(1.5);
    g.set(-2.25);    // last write wins
    EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST_F(ObsTest, HistogramBucketPlacementIsDeterministic)
{
    // per_octave=1 over [1, 16] -> edges 1, 2, 4, 8, 16 + overflow.
    Histogram h(1.0, 16.0, 1);
    ASSERT_EQ(h.bucketCount(), 6u);
    EXPECT_DOUBLE_EQ(h.bucketUpperEdge(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketUpperEdge(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketUpperEdge(4), 16.0);

    h.record(0.5);     // underflow -> bucket 0 (v <= lo)
    h.record(1.0);     // exactly lo -> bucket 0
    h.record(1.5);     // (1, 2] -> bucket 1
    h.record(3.0);     // (2, 4] -> bucket 2
    h.record(16.0);    // (8, 16] -> bucket 4
    h.record(100.0);   // overflow -> bucket 5
    EXPECT_EQ(h.bucketValue(0), 2u);
    EXPECT_EQ(h.bucketValue(1), 1u);
    EXPECT_EQ(h.bucketValue(2), 1u);
    EXPECT_EQ(h.bucketValue(3), 0u);
    EXPECT_EQ(h.bucketValue(4), 1u);
    EXPECT_EQ(h.bucketValue(5), 1u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);

    // Percentiles are bucket upper edges; the overflow bucket reports
    // the exact max, never an invented larger edge.
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 2.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
}

TEST_F(ObsTest, HistogramEmptySingleAndNan)
{
    Histogram h(1.0, 16.0, 1);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);

    h.record(std::nan(""));
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.nanDropped(), 1u);

    h.record(3.0);
    EXPECT_EQ(h.count(), 1u);
    // Single sample: every percentile answers its bucket's upper edge.
    EXPECT_DOUBLE_EQ(h.percentile(0), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST_F(ObsTest, HistogramSumIsExactFixedPoint)
{
    // 0.1 is not representable in binary floating point; a naive double
    // accumulator would drift. The fixed-point micro-unit sum is exact.
    Histogram h(1e-3, 1e3, 8);
    for (int i = 0; i < 10; ++i)
        h.record(0.1);
    EXPECT_DOUBLE_EQ(h.sum(), 1.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.1);
}

TEST_F(ObsTest, HistogramMergeIsOrderIndependent)
{
    // Three "per-thread" histograms with disjoint value mixes, merged
    // in two different orders: every observable must agree bitwise with
    // the single-histogram reference.
    const std::vector<std::vector<double>> parts = {
        {0.5, 1.0, 7.0, 200.0},
        {3.0, 3.0, 0.001},
        {16.0, 9.9, 1e6},
    };
    // Histograms hold atomics (not movable), so "per-thread" instances
    // live behind unique_ptr.
    std::vector<std::unique_ptr<Histogram>> threads;
    Histogram reference(1.0, 16.0, 2);
    for (const auto &vals : parts)
    {
        threads.push_back(std::make_unique<Histogram>(1.0, 16.0, 2));
        for (double v : vals)
        {
            threads.back()->record(v);
            reference.record(v);
        }
    }

    Histogram a(1.0, 16.0, 2), b(1.0, 16.0, 2);
    for (int i : {0, 1, 2})
        a.merge(*threads[static_cast<size_t>(i)]);
    for (int i : {2, 0, 1})
        b.merge(*threads[static_cast<size_t>(i)]);

    for (const Histogram *m : {&a, &b})
    {
        EXPECT_EQ(m->count(), reference.count());
        EXPECT_DOUBLE_EQ(m->sum(), reference.sum());
        EXPECT_DOUBLE_EQ(m->min(), reference.min());
        EXPECT_DOUBLE_EQ(m->max(), reference.max());
        for (size_t i = 0; i < reference.bucketCount(); ++i)
            EXPECT_EQ(m->bucketValue(i), reference.bucketValue(i));
        for (double p : {50.0, 90.0, 99.0})
            EXPECT_DOUBLE_EQ(m->percentile(p), reference.percentile(p));
    }
}

TEST_F(ObsTest, HistogramConcurrentRecordMatchesSerial)
{
    // 4 threads hammer one histogram with a fixed value set; the result
    // must equal a serial recording of the same multiset (integer adds
    // commute — there is no interleaving-dependent state).
    const int kThreads = 4, kPerThread = 2000;
    Histogram shared(1e-3, 1e3, 8);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&shared] {
            for (int i = 0; i < kPerThread; ++i)
                shared.record(0.5 + (i % 100));
        });
    for (auto &w : workers)
        w.join();

    Histogram serial(1e-3, 1e3, 8);
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kPerThread; ++i)
            serial.record(0.5 + (i % 100));

    EXPECT_EQ(shared.count(), serial.count());
    EXPECT_DOUBLE_EQ(shared.sum(), serial.sum());
    for (size_t i = 0; i < serial.bucketCount(); ++i)
        EXPECT_EQ(shared.bucketValue(i), serial.bucketValue(i));
    for (double p : {50.0, 90.0, 99.0})
        EXPECT_DOUBLE_EQ(shared.percentile(p), serial.percentile(p));
}

TEST_F(ObsTest, RegistryReturnsStableIdentities)
{
    MetricsRegistry reg;
    Counter &c1 = reg.counter("a");
    Counter &c2 = reg.counter("a");
    EXPECT_EQ(&c1, &c2);
    Histogram &h1 = reg.histogram("h", 1e-3, 1e3, 8);
    Histogram &h2 = reg.histogram("h", 1e-3, 1e3, 8);
    EXPECT_EQ(&h1, &h2);
    reg.gauge("g").set(3.0);

    auto names = reg.names();
    ASSERT_EQ(names.size(), 3u);    // sorted: a, g, h
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "g");
    EXPECT_EQ(names[2], "h");
}

TEST_F(ObsTest, RegistryJsonLineShape)
{
    MetricsRegistry reg;
    reg.counter("req").add(2);
    reg.gauge("depth").set(5);
    reg.histogram("lat_ms", 1e-3, 1e3, 8).record(2.0);

    std::ostringstream os;
    reg.writeJsonLine(os, 1.25);
    const std::string line = os.str();
    EXPECT_NE(line.find("\"ts_s\": 1.25"), std::string::npos);
    EXPECT_NE(line.find("\"req\": 2"), std::string::npos);
    EXPECT_NE(line.find("\"depth\": 5"), std::string::npos);
    EXPECT_NE(line.find("\"lat_ms\": {\"count\": 1"), std::string::npos);
    EXPECT_NE(line.find("\"buckets\": [["), std::string::npos);
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line[line.size() - 2], '}');
}

TEST_F(ObsTest, ExporterWritesAtLeastOneLine)
{
    const std::string path = "test_obs_metrics.jsonl";
    MetricsRegistry reg;
    reg.counter("events").add(7);
    {
        MetricsExporter exporter(reg, path, 1e6);    // period >> test
        exporter.stop();    // final line written even with no tick
        EXPECT_GE(exporter.snapshots(), 1);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int lines = 0;
    while (std::getline(in, line))
    {
        ++lines;
        EXPECT_NE(line.find("\"events\": 7"), std::string::npos);
    }
    EXPECT_GE(lines, 1);
    std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Tracer

TEST_F(ObsTest, ScopedSpanRecordsOnlyWhileEnabled)
{
    Tracer tracer;
    EXPECT_FALSE(Tracer::enabled());
    { ScopedSpan span("off"); }
    EXPECT_EQ(tracer.stats().recorded, 0u);

    Tracer::enable(&tracer);
    EXPECT_TRUE(Tracer::enabled());
    { ScopedSpan span("on"); }
    Tracer::enable(nullptr);
    { ScopedSpan span("off-again"); }

    TraceStats s = tracer.stats();
    EXPECT_EQ(s.recorded, 1u);
    EXPECT_EQ(s.dropped, 0u);
    auto spans = tracer.snapshotSpans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_STREQ(spans[0].name, "on");
    EXPECT_GE(spans[0].t1_ns, spans[0].t0_ns);
}

TEST_F(ObsTest, RingOverflowEvictsOldestAndCountsDropped)
{
    Tracer tracer(8);
    Tracer::enable(&tracer);
    for (uint64_t i = 0; i < 11; ++i)
        tracer.record("s", i, i, i + 1);
    Tracer::enable(nullptr);

    TraceStats s = tracer.stats();
    EXPECT_EQ(s.recorded, 8u);    // ring capacity
    EXPECT_EQ(s.dropped, 3u);     // the 3 oldest were overwritten
    EXPECT_EQ(s.threads, 1u);

    // Snapshot is oldest-first and holds exactly the newest 8.
    auto spans = tracer.snapshotSpans();
    ASSERT_EQ(spans.size(), 8u);
    for (size_t i = 0; i < spans.size(); ++i)
        EXPECT_EQ(spans[i].trace_id, 3 + i);

    tracer.clear();
    EXPECT_EQ(tracer.stats().recorded, 0u);
    EXPECT_EQ(tracer.stats().threads, 1u);    // rings stay registered
}

TEST_F(ObsTest, SpanNestingRecordsDepths)
{
    Tracer tracer;
    Tracer::enable(&tracer);
    {
        ScopedSpan outer("outer");
        {
            ScopedSpan mid("mid");
            ScopedSpan inner("inner");
        }
    }
    Tracer::enable(nullptr);

    // Spans complete innermost-first.
    auto spans = tracer.snapshotSpans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_STREQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].depth, 2u);
    EXPECT_STREQ(spans[1].name, "mid");
    EXPECT_EQ(spans[1].depth, 1u);
    EXPECT_STREQ(spans[2].name, "outer");
    EXPECT_EQ(spans[2].depth, 0u);
}

TEST_F(ObsTest, TraceContextScopesAndRestoresId)
{
    EXPECT_EQ(currentTraceId(), 0u);
    Tracer tracer;
    Tracer::enable(&tracer);
    {
        TraceContext outer(42);
        EXPECT_EQ(currentTraceId(), 42u);
        {
            TraceContext inner(7);
            EXPECT_EQ(currentTraceId(), 7u);
        }
        EXPECT_EQ(currentTraceId(), 42u);
        ScopedSpan span("tagged");    // inherits the ambient id
    }
    Tracer::enable(nullptr);
    EXPECT_EQ(currentTraceId(), 0u);

    auto spans = tracer.snapshotSpans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].trace_id, 42u);
}

TEST_F(ObsTest, StageClockLapsAreContiguousSpans)
{
    Tracer tracer;
    Tracer::enable(&tracer);
    StageClock clock;
    const double s1 = clock.lap("stage.a");
    const double s2 = clock.lap("stage.b");
    Tracer::enable(nullptr);
    EXPECT_GE(s1, 0.0);
    EXPECT_GE(s2, 0.0);

    auto spans = tracer.snapshotSpans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_STREQ(spans[0].name, "stage.a");
    EXPECT_STREQ(spans[1].name, "stage.b");
    // Laps tile time: stage.b starts exactly where stage.a ended.
    EXPECT_EQ(spans[1].t0_ns, spans[0].t1_ns);
}

TEST_F(ObsTest, StageClockWorksWithoutTracer)
{
    StageClock clock;
    EXPECT_GE(clock.lap("a"), 0.0);
    EXPECT_GE(clock.lap("b"), 0.0);
}

TEST_F(ObsTest, ChromeExportShape)
{
    Tracer tracer;
    Tracer::enable(&tracer);
    tracer.record("work", 5, 1000, 2500);
    tracer.record("queue_wait", 99, 100, 900, 0, SpanKind::Async);
    Tracer::enable(nullptr);

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);   // thread span
    EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);   // async begin
    EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);   // async end
    EXPECT_NE(json.find("\"id\": 99"), std::string::npos);      // keyed by trace
    EXPECT_NE(json.find("\"dur\": 1.500"), std::string::npos);  // 1500 ns
    EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
}

TEST_F(ObsTest, StageTimingsFeedTracerAndRegistry)
{
    Tracer tracer;
    Tracer::enable(&tracer);
    StageTimings timings;
    timings.add(TrainStage::Compute, 0.25);
    timings.add(TrainStage::Gather, 0.125);
    Tracer::enable(nullptr);

    auto spans = tracer.snapshotSpans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_STREQ(spans[0].name, "train.compute");
    EXPECT_STREQ(spans[1].name, "train.gather");

    MetricsRegistry reg;
    timings.exportTo(reg);
    EXPECT_EQ(reg.counter("train.stage.Compute.calls").value(), 1u);
    EXPECT_EQ(reg.counter("train.stage.Gather.calls").value(), 1u);
    EXPECT_EQ(reg.counter("train.stage.Scatter.calls").value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("train.stage.Compute.busy_s").value(), 0.25);
    EXPECT_DOUBLE_EQ(reg.gauge("train.batch_s").value(), 0.0);
}

// --------------------------------------------------------------------------
// The invariant everything above exists to protect

TEST_F(ObsTest, TracingPreservesRenderBitwise)
{
    SceneSpec spec = SceneSpec::byName("BigCity");
    GaussianModel model = generateSceneGaussians(spec, 4000);
    std::vector<Camera> path = generateCameraPath(spec, 2, 64, 36);
    RenderConfig cfg;

    Tracer tracer;
    RenderArena arena_off, arena_on;
    GaussianGrads grads_off, grads_on;
    grads_off.resize(model.size());
    grads_on.resize(model.size());
    for (const Camera &cam : path)
    {
        auto subset = frustumCull(model, cam);
        // A deterministic, non-uniform loss gradient to replay.
        Image d_image(cam.width(), cam.height());
        for (size_t i = 0; i < d_image.data().size(); ++i)
            d_image.data()[i] = 1e-3f * static_cast<float>(i % 17) - 8e-3f;
        const RenderOutput &off =
            renderForward(model, cam, subset, cfg, arena_off);
        renderBackward(model, cam, cfg, d_image, grads_off, arena_off);
        Tracer::enable(&tracer);
        const RenderOutput &on =
            renderForward(model, cam, subset, cfg, arena_on);
        renderBackward(model, cam, cfg, d_image, grads_on, arena_on);
        Tracer::enable(nullptr);
        EXPECT_TRUE(off.image.data() == on.image.data());
        EXPECT_TRUE(off.final_t == on.final_t);
        EXPECT_TRUE(off.n_contrib == on.n_contrib);
    }
    // Gradients compared as bytes: tracing must not reorder a single
    // floating-point operation of the backward.
    auto sameBytes = [](const auto &a, const auto &b) {
        return a.size() == b.size()
            && std::memcmp(a.data(), b.data(),
                           a.size() * sizeof(a[0])) == 0;
    };
    EXPECT_TRUE(sameBytes(grads_off.d_position, grads_on.d_position));
    EXPECT_TRUE(sameBytes(grads_off.d_log_scale, grads_on.d_log_scale));
    EXPECT_TRUE(sameBytes(grads_off.d_rotation, grads_on.d_rotation));
    EXPECT_TRUE(sameBytes(grads_off.d_sh, grads_on.d_sh));
    EXPECT_TRUE(sameBytes(grads_off.d_opacity, grads_on.d_opacity));
    // The traced renders did record the forward and backward stage
    // spans.
    bool saw_bwd[3] = {false, false, false};
    for (const SpanRecord &s : tracer.snapshotSpans())
    {
        const std::string name = s.name;
        saw_bwd[0] = saw_bwd[0] || name == "render.bwd_replay";
        saw_bwd[1] = saw_bwd[1] || name == "render.bwd_reduce";
        saw_bwd[2] = saw_bwd[2] || name == "render.bwd_project";
    }
    EXPECT_GT(tracer.stats().recorded, 0u);
    EXPECT_TRUE(saw_bwd[0] && saw_bwd[1] && saw_bwd[2]);
}

TEST_F(ObsTest, ServiceWithTracingStaysBitwiseAndExportsMetrics)
{
    SceneSpec spec = SceneSpec::byName("BigCity");
    GaussianModel model = generateSceneGaussians(spec, 4000);
    std::vector<Camera> path = generateCameraPath(spec, 4, 64, 36);
    RenderConfig render;

    SnapshotSlot slot;
    slot.publish(model, 0);

    Tracer tracer;    // declared before the service: workers record
                      // into it, so it must outlive (and be disabled
                      // after) service shutdown
    Tracer::enable(&tracer);
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 2;
    cfg.render = render;
    {
        RenderService service(slot, cfg);
        RenderArena direct_arena;
        for (const Camera &cam : path)
        {
            RenderResponse resp = service.submit(cam).get();
            ASSERT_EQ(resp.status, ServeStatus::Ok);
            auto subset = frustumCull(model, cam);
            const RenderOutput &direct =
                renderForward(model, cam, subset, render, direct_arena);
            EXPECT_TRUE(resp.image.data() == direct.image.data());
        }
        service.stop();
        ServeStats stats = service.stats();
        EXPECT_EQ(stats.requests, path.size());
        // The decomposition fields come from the registry histograms.
        EXPECT_GE(stats.queue_wait_p99_ms, 0.0);
        EXPECT_GT(stats.render_p99_ms, 0.0);
        std::ostringstream os;
        service.metrics().writeJsonLine(os, 0.0);
        const std::string line = os.str();
        EXPECT_NE(line.find("\"serve.queue_wait_ms\": {\"count\": 4"),
                  std::string::npos);
        EXPECT_NE(line.find("\"serve.requests\": 4"), std::string::npos);
    }
    Tracer::enable(nullptr);

    // The request lifecycle left spans: admission, queue wait, render.
    bool saw_admit = false, saw_queue_wait = false, saw_render = false;
    for (const SpanRecord &s : tracer.snapshotSpans())
    {
        saw_admit = saw_admit || std::string(s.name) == "serve.admit";
        saw_queue_wait =
            saw_queue_wait || std::string(s.name) == "serve.queue_wait";
        saw_render = saw_render
                  || std::string(s.name).rfind("serve.render", 0) == 0;
    }
    EXPECT_TRUE(saw_admit);
    EXPECT_TRUE(saw_queue_wait);
    EXPECT_TRUE(saw_render);
}

} // namespace
} // namespace clm
