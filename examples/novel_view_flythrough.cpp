/**
 * @file
 * Novel-view flythrough: trains an aerial (Rubble-style) reconstruction,
 * then renders a smooth camera path that was never part of the training
 * set — novel view synthesis (Figure 1) end to end.
 *
 * The frames are served through the RenderService rather than rendered
 * inline: all path cameras are submitted up front, the service coalesces
 * them into fused multi-view batches against the session's published
 * model snapshot, and the futures come back in submission order. The
 * frames are bitwise identical to direct renderNovelView() calls —
 * batching is a scheduling choice, never a quality choice.
 *
 * The service deliberately runs with a queue shorter than the path and
 * ShedPolicy::Reject, so the burst of up-front submissions oversubscribes
 * it and some frames come back shed rather than rendered. Those frames
 * are re-requested through the seeded RetryPolicy (capped exponential
 * backoff + deterministic jitter) — the client-side half of graceful
 * degradation: overload turns into retries, never into missing frames.
 */

#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "core/clm.hpp"
#include "serve/render_service.hpp"
#include "serve/retry.hpp"

int
main()
{
    using namespace clm;

    ClmConfig config;
    config.scene = SceneSpec::rubble();
    config.scene.train = {2500, 16, 72, 48};
    config.model_size = 2500;
    config.system = SystemKind::Clm;
    config.train.render.sh_degree = 1;
    config.train.loss.ssim_window = 5;

    Clm session(config);
    std::printf("training %zu Gaussians over %zu aerial views...\n",
                session.model().size(), session.viewCount());
    session.train(12);
    std::printf("training PSNR: %.2f dB\n", session.evaluatePsnr());

    // Serve the flythrough from the published training snapshot,
    // coalescing the requests into fused multi-view batches.
    ServeConfig serve_config;
    serve_config.max_batch = 4;
    serve_config.render = config.train.render;
    // Oversubscribe on purpose: the 8-frame burst against a 4-deep
    // Reject queue sheds some submissions, which the retry pass below
    // recovers.
    serve_config.queue_capacity = 4;
    serve_config.admission.shed = ShedPolicy::Reject;
    RenderService service(session.snapshots(), serve_config);

    // A descending arc over the terrain — none of these cameras exist in
    // the training path.
    const int frames = 8;
    const Vec3 center{0, 0, 1};
    std::vector<Camera> path;
    std::vector<std::future<RenderResponse>> pending;
    for (int f = 0; f < frames; ++f) {
        float t = static_cast<float>(f) / (frames - 1);
        float ang = 0.6f * t * 6.2831853f;
        float radius = 24.0f - 8.0f * t;
        float height = 16.0f - 6.0f * t;
        Vec3 eye{radius * std::cos(ang), radius * std::sin(ang), height};
        path.push_back(Camera::lookAt(eye, center, {0, 0, 1}, 96, 64,
                                      1.1f, 0.05f,
                                      config.scene.camera_z_far));
        pending.push_back(service.submit(path.back()));
    }

    // First pass: collect what the burst admitted. Second pass: any
    // shed frame is re-requested through the deterministic RetryPolicy.
    RetryPolicy retry;
    RetryStats retry_stats;
    int shed = 0;
    for (int f = 0; f < frames; ++f) {
        RenderResponse resp = pending[f].get();
        if (!resp.ok()) {
            ++shed;
            std::printf("frame %d shed (%s) — retrying\n", f,
                        serveStatusName(resp.status));
            resp = submitWithRetry(service, path[f], retry,
                                   /*request_key=*/f, &retry_stats);
            if (!resp.ok()) {
                std::printf("frame %d failed after %llu attempts (%s)\n",
                            f,
                            static_cast<unsigned long long>(
                                retry_stats.attempts),
                            serveStatusName(resp.status));
                return 1;
            }
        }
        std::string name = "flythrough_" + std::to_string(f) + ".ppm";
        resp.image.writePpm(name);
        std::printf(
            "frame %d (snapshot v%llu, batch of %d) -> %s\n", f,
            static_cast<unsigned long long>(resp.snapshot_version),
            resp.batch_size, name.c_str());
    }
    service.stop();
    ServeStats stats = service.stats();
    std::printf("wrote %d novel-view frames (%llu batches, mean batch "
                "%.1f; %d shed on first submit, all recovered via the "
                "retry pass with %llu backoff retries).\n",
                frames, static_cast<unsigned long long>(stats.batches),
                stats.mean_batch, shed,
                static_cast<unsigned long long>(retry_stats.retries));
    return 0;
}
