/**
 * @file
 * Fault-injection and admission-control tests: the FaultInjector's
 * deterministic firing (pure function of seed + occurrence index), and
 * the serving stack under injected faults — a stalled worker, delayed
 * snapshot publication, and forced queue saturation. The overload
 * contract under test: every submitted request resolves to a
 * RenderResponse with an explicit status (no hang, no broken promise),
 * admitted frames stay bitwise identical to direct renders, and with a
 * fixed FaultPlan seed plus a fixed arrival schedule the set of shed
 * request ids is reproducible run-to-run. Runs under ASan/UBSan via
 * scripts/verify.sh and under TSan in the thread-sanitizer CI job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"
#include "serve/render_service.hpp"
#include "serve/retry.hpp"
#include "serve/snapshot.hpp"
#include "util/fault.hpp"

namespace clm {
namespace {

struct ServeFixture
{
    GaussianModel model;
    std::vector<Camera> cameras;
    SnapshotSlot slot;

    explicit ServeFixture(size_t n_gaussians = 500, int width = 64,
                          int height = 40)
    {
        SceneSpec spec = SceneSpec::bicycle();
        model = generateSceneGaussians(spec, n_gaussians);
        cameras = generateCameraPath(spec, 6, width, height);
        slot.publish(model, 0);
    }
};

TEST(FaultInjector, ProbabilisticFiringIsDeterministic)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.at(FaultPoint::WorkerStall).probability = 0.3;
    plan.at(FaultPoint::AdmitSaturate).probability = 0.3;

    // Two injectors over the same plan must fire on exactly the same
    // occurrence indices (the decision is splitmix64(seed, point,
    // index), not a shared RNG draw).
    FaultInjector a(plan), b(plan);
    std::vector<bool> seq_a, seq_b;
    for (int i = 0; i < 400; ++i) {
        seq_a.push_back(a.fires(FaultPoint::WorkerStall));
        seq_b.push_back(b.fires(FaultPoint::WorkerStall));
    }
    EXPECT_EQ(seq_a, seq_b);
    const uint64_t fired = a.fireCount(FaultPoint::WorkerStall);
    EXPECT_GT(fired, 400 * 0.15);    // generous band around p=0.3
    EXPECT_LT(fired, 400 * 0.45);
    EXPECT_EQ(a.occurrences(FaultPoint::WorkerStall), 400u);

    // A different seed fires on a different index set.
    FaultPlan other = plan;
    other.seed = 43;
    FaultInjector c(other);
    std::vector<bool> seq_c;
    for (int i = 0; i < 400; ++i)
        seq_c.push_back(c.fires(FaultPoint::WorkerStall));
    EXPECT_NE(seq_a, seq_c);

    // Points are decorrelated: the same seed draws independently per
    // FaultPoint (the point id is folded into the hash).
    FaultInjector d(plan);
    std::vector<bool> seq_d;
    for (int i = 0; i < 400; ++i)
        seq_d.push_back(d.fires(FaultPoint::AdmitSaturate));
    EXPECT_NE(seq_a, seq_d);
}

TEST(FaultInjector, EveryNAndMaxFiresSemantics)
{
    FaultPlan plan;
    plan.at(FaultPoint::PublishDelay).every_n = 3;
    plan.at(FaultPoint::PublishDelay).max_fires = 2;
    FaultInjector inj(plan);
    std::vector<bool> fired;
    for (int i = 0; i < 9; ++i)
        fired.push_back(inj.fires(FaultPoint::PublishDelay));
    // Occurrences 0, 3 fire; 6 is capped by max_fires = 2.
    EXPECT_EQ(fired, (std::vector<bool>{true, false, false, true, false,
                                        false, false, false, false}));
    EXPECT_EQ(inj.fireCount(FaultPoint::PublishDelay), 2u);

    // Disabled: nothing fires, nothing counts.
    inj.disable();
    EXPECT_FALSE(inj.fires(FaultPoint::PublishDelay));
    EXPECT_EQ(inj.occurrences(FaultPoint::PublishDelay), 9u);
}

/** A held worker + Reject shedding: the deterministic saturation
 *  scenario. Runs the identical schedule twice and asserts the SAME
 *  set of shed request ids both times (satellite: shed determinism). */
TEST(FaultInjection, ShedSetIsReproducibleRunToRun)
{
    auto run_once = [](std::set<uint64_t> &shed_ids,
                       std::set<uint64_t> &ok_ids) {
        ServeFixture fix;
        FaultPlan plan;
        plan.seed = 7;
        // Hold every worker wakeup until released: the queue state the
        // submissions build is exactly schedule-order, independent of
        // worker timing.
        plan.at(FaultPoint::WorkerStall).every_n = 1;
        plan.at(FaultPoint::WorkerStall).hold = true;
        FaultInjector faults(plan);

        ServeConfig cfg;
        cfg.workers = 1;
        cfg.max_batch = 4;
        cfg.queue_capacity = 4;
        cfg.render.sh_degree = 1;
        cfg.admission.shed = ShedPolicy::Reject;
        cfg.faults = &faults;
        RenderService service(fix.slot, cfg);

        // Fixed arrival schedule: 12 submits from one thread while the
        // worker is pinned. Capacity 4 admits the first 4; 5..12 shed.
        std::vector<std::future<RenderResponse>> futs;
        for (int r = 0; r < 12; ++r)
            futs.push_back(service.submit(fix.cameras[r % 6]));
        faults.release(FaultPoint::WorkerStall);
        for (auto &f : futs) {
            RenderResponse resp = f.get();    // must never throw
            if (resp.ok())
                ok_ids.insert(resp.request_id);
            else {
                EXPECT_EQ(resp.status, ServeStatus::ShedQueueFull);
                shed_ids.insert(resp.request_id);
            }
        }
        service.stop();
        ServeStats stats = service.stats();
        EXPECT_EQ(stats.submitted, 12u);
        EXPECT_EQ(stats.requests, ok_ids.size());
        EXPECT_EQ(stats.shed_queue_full, shed_ids.size());
    };

    std::set<uint64_t> shed_a, ok_a, shed_b, ok_b;
    run_once(shed_a, ok_a);
    run_once(shed_b, ok_b);
    EXPECT_EQ(shed_a, shed_b);
    EXPECT_EQ(ok_a, ok_b);
    EXPECT_EQ(ok_a, (std::set<uint64_t>{1, 2, 3, 4}));
    EXPECT_EQ(shed_a.size(), 8u);
    EXPECT_EQ(*shed_a.begin(), 5u);
}

/** Seeded AdmitSaturate shedding is also reproducible: the admission
 *  path itself draws deterministically per submission index. */
TEST(FaultInjection, SaturationFaultShedsTheSameRequestsEveryRun)
{
    auto run_once = [](std::set<uint64_t> &shed_ids) {
        ServeFixture fix;
        FaultPlan plan;
        plan.seed = 0xbeef;
        plan.at(FaultPoint::AdmitSaturate).probability = 0.4;
        FaultInjector faults(plan);

        ServeConfig cfg;
        cfg.workers = 1;
        cfg.max_batch = 2;
        cfg.render.sh_degree = 1;
        cfg.faults = &faults;
        RenderService service(fix.slot, cfg);
        std::vector<std::future<RenderResponse>> futs;
        for (int r = 0; r < 24; ++r)
            futs.push_back(service.submit(fix.cameras[r % 6]));
        for (auto &f : futs) {
            RenderResponse resp = f.get();
            if (!resp.ok()) {
                EXPECT_EQ(resp.status, ServeStatus::ShedQueueFull);
                shed_ids.insert(resp.request_id);
            }
        }
        service.stop();
    };
    std::set<uint64_t> a, b;
    run_once(a);
    run_once(b);
    EXPECT_EQ(a, b);
    EXPECT_GT(a.size(), 2u);     // p=0.4 over 24 single-thread submits
    EXPECT_LT(a.size(), 20u);
}

/** A stalled worker delays service but loses nothing: every request
 *  completes Ok, frames bitwise identical to direct renders. */
TEST(FaultInjection, StalledWorkerDelaysButCompletesEverything)
{
    ServeFixture fix;
    FaultPlan plan;
    plan.at(FaultPoint::WorkerStall).every_n = 2;
    plan.at(FaultPoint::WorkerStall).stall_ms = 5;
    FaultInjector faults(plan);

    ServeConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 4;
    cfg.render.sh_degree = 1;
    cfg.faults = &faults;
    RenderService service(fix.slot, cfg);
    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 16; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6]));
    for (int r = 0; r < 16; ++r) {
        RenderResponse resp = futs[r].get();
        ASSERT_TRUE(resp.ok());
        auto subset = frustumCull(fix.model, fix.cameras[r % 6]);
        Image direct = renderForward(fix.model, fix.cameras[r % 6],
                                     subset, cfg.render)
                           .image;
        EXPECT_EQ(resp.image.data(), direct.data()) << "request " << r;
    }
    service.stop();
    EXPECT_GT(faults.fireCount(FaultPoint::WorkerStall), 0u);
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.requests, 16u);
    EXPECT_EQ(stats.shed_queue_full + stats.shed_deadline
                  + stats.rejected_shutdown,
              0u);
}

/** Delayed snapshot publication: publishes stall inside the slot while
 *  clients hammer the service — readers keep serving the previous
 *  version (never a torn or missing snapshot), everything resolves, no
 *  deadlock. */
TEST(FaultInjection, DelayedPublishNeverBlocksServing)
{
    ServeFixture fix(400, 48, 32);
    FaultPlan plan;
    plan.at(FaultPoint::PublishDelay).every_n = 1;
    plan.at(FaultPoint::PublishDelay).stall_ms = 3;
    FaultInjector faults(plan);
    fix.slot.setFaultInjector(&faults);

    std::map<uint64_t, uint64_t> published_hash;
    published_hash[fix.slot.version()] =
        fix.slot.acquire()->param_hash;

    ServeConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 4;
    cfg.render.sh_degree = 1;
    RenderService service(fix.slot, cfg);

    std::atomic<bool> stop_publishing{false};
    GaussianModel work = fix.model;
    std::thread publisher([&] {
        for (int step = 1; step <= 40 && !stop_publishing.load();
             ++step) {
            work.position(0).x += 0.01f;
            fix.slot.publish(work, step);    // stalls 3 ms inside
            published_hash[fix.slot.version()] =
                fix.slot.acquire()->param_hash;
        }
    });

    std::vector<std::future<RenderResponse>> futs;
    for (int r = 0; r < 24; ++r)
        futs.push_back(service.submit(fix.cameras[r % 6]));
    for (auto &f : futs) {
        RenderResponse resp = f.get();
        EXPECT_TRUE(resp.ok());
        EXPECT_GE(resp.snapshot_version, 1u);
    }
    stop_publishing = true;
    publisher.join();
    service.stop();
    fix.slot.setFaultInjector(nullptr);
    EXPECT_GT(faults.fireCount(FaultPoint::PublishDelay), 0u);
    // Every served version was a fully published one.
    ServeStats stats = service.stats();
    for (uint64_t v = stats.min_snapshot_version;
         v <= stats.max_snapshot_version; ++v)
        EXPECT_TRUE(published_hash.count(v)) << "version " << v;
}

/** Retry policy: deterministic jitter, cap, and the retryable table;
 *  submitWithRetry degrades seeded shedding into eventual success. */
TEST(RetryPolicy, DeterministicBackoffAndRetryLoop)
{
    RetryPolicy policy;
    policy.max_attempts = 5;
    policy.base_s = 0.001;
    policy.cap_s = 0.004;
    policy.seed = 99;

    // Pure function of (seed, key, attempt); capped; in [cap/2, cap).
    for (uint64_t key : {uint64_t(1), uint64_t(77)}) {
        double prev = 0;
        for (int attempt = 1; attempt <= 6; ++attempt) {
            const double b = policy.backoffSeconds(key, attempt);
            EXPECT_EQ(b, policy.backoffSeconds(key, attempt));
            EXPECT_GE(b, 0.0005 * (1 << std::min(attempt - 1, 2)));
            EXPECT_LT(b, 0.004);
            prev = b;
        }
        (void)prev;
    }
    EXPECT_NE(policy.backoffSeconds(1, 1), policy.backoffSeconds(2, 1));

    EXPECT_TRUE(policy.retryable(ServeStatus::ShedQueueFull));
    EXPECT_TRUE(policy.retryable(ServeStatus::ShedDeadline));
    EXPECT_FALSE(policy.retryable(ServeStatus::Ok));
    EXPECT_FALSE(policy.retryable(ServeStatus::RejectedShutdown));

    // Against a service whose admission path sheds every other submit:
    // each logical request succeeds within a retry or two.
    ServeFixture fix;
    FaultPlan plan;
    plan.at(FaultPoint::AdmitSaturate).every_n = 2;
    FaultInjector faults(plan);
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.render.sh_degree = 1;
    cfg.faults = &faults;
    RenderService service(fix.slot, cfg);

    RetryStats rstats;
    for (int r = 0; r < 6; ++r) {
        RenderResponse resp = submitWithRetry(
            service, fix.cameras[r % 6], policy,
            /*request_key=*/static_cast<uint64_t>(r), &rstats);
        EXPECT_TRUE(resp.ok()) << "request " << r;
    }
    service.stop();
    EXPECT_GT(rstats.retries, 0u);        // shedding did happen
    EXPECT_EQ(rstats.gave_up, 0u);        // and retries absorbed it
    EXPECT_GE(rstats.attempts, 6u + rstats.retries);

    // After stop: terminal, exactly one attempt, no retry loop (the
    // saturation fault is disabled so the closed queue is what decides).
    faults.disable();
    RetryStats after;
    RenderResponse resp =
        submitWithRetry(service, fix.cameras[0], policy, 123, &after);
    EXPECT_EQ(resp.status, ServeStatus::RejectedShutdown);
    EXPECT_EQ(after.attempts, 1u);
    EXPECT_EQ(after.gave_up, 1u);
}

} // namespace
} // namespace clm
