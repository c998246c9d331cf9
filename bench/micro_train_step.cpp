/**
 * @file
 * End-to-end train-step micro-benchmark: one full optimization step
 * (frustum cull -> project -> bin -> composite -> loss forward -> loss
 * backward -> rasterizer backward -> subset Adam) on the default
 * synthetic scene, with a per-stage wall-clock breakdown — so perf PRs
 * see the whole step's trajectory, not just the rasterizer's. The
 * forward's project / bin / composite split comes from the render
 * pipeline's own spans, recorded into a private Tracer and summed by
 * name (render.precompute, the subset union and view map the
 * projection runs over, counts as projection).
 *
 * Also times the retained brute-force loss reference
 * (computeLossReference) once per case and reports the SAT-loss
 * speedup over it.
 *
 * Prints a table and emits machine-readable BENCH_train_step.json
 * (scripts/bench_train_step.sh) including the machine/build context
 * block, so recorded points are comparable across runs.
 *
 * Usage: micro_train_step [--smoke] [--no-ref] [--out FILE.json]
 *   --smoke   one tiny config, single rep (CI "builds and runs" gate)
 *   --no-ref  skip the brute-force loss baseline timing
 *   --out     JSON output path (default BENCH_train_step.json in $PWD)
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "gaussian/adam.hpp"
#include "math/simd_backend.hpp"
#include "obs/trace.hpp"
#include "render/arena.hpp"
#include "render/batch.hpp"
#include "render/culling.hpp"
#include "render/loss.hpp"
#include "render/rasterizer.hpp"
#include "render/simd_kernels.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"
#include "train/quality_harness.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace clm;

namespace {

struct BenchCase
{
    std::string name;
    size_t n_gaussians;
    int width, height;
    /** "bicycle" (orbit) or "bigcity" (aerial flythrough — the serving
     *  scene, at serving resolution: the cull-dense composed regime). */
    const char *scene = "bicycle";
};

/** One forced-kernel-table rerun of the forward + backward pass. */
struct BackendResult
{
    const char *name = "";
    double raster_bwd_ms = 0;
    bool forward_identical = true;     //!< Image bits vs first backend.
    bool backward_identical = true;    //!< Gradient bits vs first backend.
};

/** One kernel-table flavor of the fused-vs-sequential backward race. */
struct BatchBwdResult
{
    const char *table = "";         //!< "dispatch", "sse2", "scalar".
    double seq_bwd_ms = 0;          //!< Sum of per-view renderBackward.
    double fused_bwd_ms = 0;        //!< One renderBackwardBatch call.
    bool batched_identical = true;  //!< Fused grads == sequential grads.
    bool parallel_identical = true; //!< Fused parallel == fused serial.

    double speedup() const
    {
        return fused_bwd_ms > 0 ? seq_bwd_ms / fused_bwd_ms : 0;
    }
};

struct BenchResult
{
    BenchCase cfg;
    size_t subset = 0;
    int reps = 0;
    double loss = 0;    //!< Loss of the last step (sanity).
    // Mean milliseconds per step, by stage.
    double cull_ms = 0;
    double project_ms = 0;
    double bin_ms = 0;
    double composite_ms = 0;
    double raster_bwd_ms = 0;
    double loss_fwd_ms = 0;
    double loss_bwd_ms = 0;
    double adam_ms = 0;
    double step_ms = 0;    //!< Whole measured step (incl. grad zeroing).
    // Brute-force loss baseline (one call; 0 when skipped).
    double loss_ref_fwd_ms = 0;
    double loss_ref_bwd_ms = 0;
    /** Forced-backend reruns (every table this CPU supports). */
    std::vector<BackendResult> backends;
    /** Fused multi-view backward (renderBackwardBatch, batch=4) vs the
     *  sequential per-view backward loop, per kernel-table flavor. */
    int batch_views = 0;
    std::vector<BatchBwdResult> batch_bwd;

    /** Headline fused-backward speedup (default-dispatch flavor). */
    double batchBwdSpeedup() const
    {
        return batch_bwd.empty() ? 0 : batch_bwd.front().speedup();
    }

    double lossSpeedup() const
    {
        double sat = loss_fwd_ms + loss_bwd_ms;
        double ref = loss_ref_fwd_ms + loss_ref_bwd_ms;
        return sat > 0 && ref > 0 ? ref / sat : 0.0;
    }
};

/** FNV-1a over a raw byte range, chainable via @p h. */
uint64_t
fnv1a(const void *data, size_t bytes,
      uint64_t h = 1469598103934665603ull)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** FNV-1a over every gradient buffer (bitwise comparison proxy). */
uint64_t
gradHash(const GaussianGrads &g)
{
    uint64_t h = fnv1a(g.d_position.data(),
                       g.d_position.size() * sizeof(Vec3));
    h = fnv1a(g.d_log_scale.data(), g.d_log_scale.size() * sizeof(Vec3),
              h);
    h = fnv1a(g.d_rotation.data(), g.d_rotation.size() * sizeof(Quat), h);
    h = fnv1a(g.d_sh.data(), g.d_sh.size() * sizeof(float), h);
    h = fnv1a(g.d_opacity.data(), g.d_opacity.size() * sizeof(float), h);
    return h;
}

/**
 * Fused multi-view backward vs the sequential per-view loop: the same
 * 4-view batch run (a) as four cull/forward/loss/backward batches of
 * one with the per-view renderBackward timed, and (b) as one batched
 * cull + one retained-staging renderForwardBatch + ONE
 * renderBackwardBatch (the GPU-only trainer's step), timed on the
 * fused backward alone. Run
 * per kernel-table flavor (runtime dispatch, forced sse2 when the CPU
 * has it, forced scalar); each flavor also checks the two determinism
 * claims — fused gradients bitwise equal to the sequential loop's, and
 * a serial (parallel=false) fused rerun bitwise equal to the parallel
 * one.
 */
void
runBatchBackward(const SceneSpec &spec, const GaussianModel &gt_model,
                 const GaussianModel &model, const BenchCase &cfg,
                 const RenderConfig &render, const LossConfig &loss_cfg,
                 int reps, BenchResult &r)
{
    const int B = 4;
    r.batch_views = B;
    std::vector<Camera> cams =
        generateCameraPath(spec, B, cfg.width, cfg.height);
    RenderArena arena;
    LossScratch scratch;
    std::vector<Image> gts(B);
    for (int v = 0; v < B; ++v)
        gts[v] = renderForward(gt_model, cams[v],
                               frustumCull(gt_model, cams[v]), render,
                               arena)
                     .image;

    GaussianGrads seq_grads, fused_grads, serial_grads;
    seq_grads.resize(model.size());
    fused_grads.resize(model.size());
    RenderArena ba;
    std::vector<Image> d_images(B);
    Image d_image;
    std::vector<std::vector<uint32_t>> subsets;

    buildCullStage(model, ba.cull);
    auto runFused = [&](const RenderConfig &rc, GaussianGrads &grads) {
        grads.zero();
        frustumCullBatch(model, cams, ba.cull, subsets, rc.parallel);
        ba.retain_staging = true;
        renderForwardBatch(model, cams, subsets, rc, ba);
        for (int v = 0; v < B; ++v)
            computeLoss(ba.views[v].out.image, gts[v], &d_images[v],
                        loss_cfg, scratch);
        Timer t;
        renderBackwardBatch(model, cams, rc, d_images, grads, ba);
        return t.millis();
    };

    struct Flavor
    {
        const char *name;
        const RenderKernels *kern;
    };
    std::vector<Flavor> flavors = {{"dispatch", nullptr}};
    if (const RenderKernels *k = renderKernelsFor(SimdBackend::kSse2))
        flavors.push_back({"sse2", k});
    flavors.push_back({"scalar", renderKernelsFor(SimdBackend::kScalar)});

    for (const Flavor &fl : flavors) {
        RenderConfig rc = render;
        rc.kernels = fl.kern;
        BatchBwdResult b;
        b.table = fl.name;
        for (int rep = 0; rep <= reps; ++rep) {
            // Sequential reference: per-view loop, backward timed.
            seq_grads.zero();
            double seq_ms = 0;
            for (int v = 0; v < B; ++v) {
                auto subset = frustumCull(model, cams[v]);
                const RenderOutput &out =
                    renderForward(model, cams[v], subset, rc, arena);
                computeLoss(out.image, gts[v], &d_image, loss_cfg,
                            scratch);
                Timer t;
                renderBackward(model, cams[v], rc, d_image, seq_grads,
                               arena);
                seq_ms += t.millis();
            }
            const double fused_ms = runFused(rc, fused_grads);
            if (rep > 0) {    // rep 0 is the untimed warm-up
                b.seq_bwd_ms += seq_ms;
                b.fused_bwd_ms += fused_ms;
            }
        }
        b.seq_bwd_ms /= reps;
        b.fused_bwd_ms /= reps;
        b.batched_identical =
            gradHash(seq_grads) == gradHash(fused_grads);

        RenderConfig serial = rc;
        serial.parallel = false;
        serial_grads.resize(model.size());
        runFused(serial, serial_grads);
        b.parallel_identical =
            gradHash(fused_grads) == gradHash(serial_grads);
        r.batch_bwd.push_back(b);
    }
}

/** Run one config; reps adapt to hit ~min_seconds of stepping. */
BenchResult
runCase(const BenchCase &cfg, double min_seconds, int max_reps,
        bool with_ref)
{
    SceneSpec spec = std::string(cfg.scene) == "bigcity"
                         ? SceneSpec::bigCity()
                         : SceneSpec::bicycle();
    GaussianModel gt_model = generateGroundTruth(spec, cfg.n_gaussians);
    Camera cam = generateCameraPath(spec, 2, cfg.width, cfg.height)[0];

    RenderConfig render;
    render.sh_degree = 3;
    LossConfig loss_cfg;

    // Ground truth rendered from the reference model; the trainee is a
    // perturbed copy, exactly like the quality harness trains.
    Image gt =
        renderForward(gt_model, cam, frustumCull(gt_model, cam), render)
            .image;
    GaussianModel model = makeTrainee(gt_model, cfg.n_gaussians, 7);

    CpuAdam adam;
    adam.reset(model.size());
    GaussianGrads grads;
    grads.resize(model.size());
    RenderArena arena;
    LossScratch scratch;
    Image d_image;

    BenchResult r;
    r.cfg = cfg;

    // Warm-up step (thread pool spin-up, arena/scratch growth).
    {
        auto subset = frustumCull(model, cam);
        const RenderOutput &out =
            renderForward(model, cam, subset, render, arena);
        computeLoss(out.image, gt, &d_image, loss_cfg, scratch);
        grads.zero();
        renderBackward(model, cam, render, d_image, grads, arena);
        r.subset = subset.size();
    }

    // The measured steps record the render pipeline's stage spans into
    // a private tracer (StageClock laps; the rest of the step records
    // none, or only spans that are not summed below).
    Tracer tracer;
    Tracer *const prev_tracer = Tracer::current();
    Tracer::enable(&tracer);
    double step_s = 0;
    int reps = 0;
    while (reps == 0 || (reps < max_reps && step_s < min_seconds)) {
        Timer step_t;
        Timer t;
        auto subset = frustumCull(model, cam);
        r.cull_ms += t.millis();
        const RenderOutput &out =
            renderForward(model, cam, subset, render, arena);
        LossStageTimes lt;
        LossResult lr =
            computeLoss(out.image, gt, &d_image, loss_cfg, scratch, &lt);
        r.loss_fwd_ms += lt.forward_s * 1e3;
        r.loss_bwd_ms += lt.backward_s * 1e3;
        grads.zero();
        t.reset();
        renderBackward(model, cam, render, d_image, grads, arena);
        r.raster_bwd_ms += t.millis();
        t.reset();
        adam.updateSubset(model, grads, subset);
        r.adam_ms += t.millis();
        r.step_ms += step_t.millis();
        step_s = r.step_ms / 1e3;
        r.loss = lr.total;
        r.subset = subset.size();
        ++reps;
    }
    Tracer::enable(prev_tracer);
    for (const SpanRecord &span : tracer.snapshotSpans()) {
        const std::string name = span.name;
        const double ms = (span.t1_ns - span.t0_ns) * 1e-6;
        if (name == "render.precompute" || name == "render.project")
            r.project_ms += ms;
        else if (name == "render.bin")
            r.bin_ms += ms;
        else if (name == "render.composite")
            r.composite_ms += ms;
    }
    r.reps = reps;
    for (double *m : {&r.cull_ms, &r.project_ms, &r.bin_ms,
                      &r.composite_ms, &r.raster_bwd_ms, &r.loss_fwd_ms,
                      &r.loss_bwd_ms, &r.adam_ms, &r.step_ms})
        *m /= reps;

    if (with_ref) {
        // One brute-force loss call on the final rendered image — the
        // pre-SAT baseline the SAT loss is compared against.
        auto subset = frustumCull(model, cam);
        const RenderOutput &out =
            renderForward(model, cam, subset, render, arena);
        LossStageTimes rt;
        Image d_ref;
        computeLossReference(out.image, gt, &d_ref, loss_cfg, &rt);
        r.loss_ref_fwd_ms = rt.forward_s * 1e3;
        r.loss_ref_bwd_ms = rt.backward_s * 1e3;
    }

    // Forced-backend sweep: rerun forward + backward under every kernel
    // table this CPU supports and check the dispatch-invariance claim —
    // the image and gradient bits must not depend on the backend.
    {
        const int backend_reps = max_reps > 1 ? 3 : 1;
        auto subset = frustumCull(model, cam);
        RenderConfig forced = render;
        uint64_t ref_img = 0, ref_grad = 0;
        bool have_ref = false;
        for (int bi = 0; bi < kNumSimdBackends; ++bi) {
            const RenderKernels *kern =
                renderKernelsFor(static_cast<SimdBackend>(bi));
            if (!kern)
                continue;    // unsupported on this CPU / build
            forced.kernels = kern;
            BackendResult b;
            b.name = kern->name;
            uint64_t img = 0, gh = 0;
            for (int rep = 0; rep < backend_reps; ++rep) {
                const RenderOutput &out =
                    renderForward(model, cam, subset, forced, arena);
                computeLoss(out.image, gt, &d_image, loss_cfg, scratch);
                grads.zero();
                Timer t;
                renderBackward(model, cam, forced, d_image, grads, arena);
                b.raster_bwd_ms += t.millis();
                img = fnv1a(out.image.data().data(),
                            out.image.data().size() * sizeof(float));
                gh = gradHash(grads);
            }
            b.raster_bwd_ms /= backend_reps;
            if (!have_ref) {
                ref_img = img;
                ref_grad = gh;
                have_ref = true;
            }
            b.forward_identical = img == ref_img;
            b.backward_identical = gh == ref_grad;
            r.backends.push_back(b);
        }
    }

    runBatchBackward(spec, gt_model, model, cfg, render, loss_cfg,
                     max_reps > 1 ? 3 : 1, r);
    return r;
}

void
writeJson(const std::string &path, const std::vector<BenchResult> &results,
          bool smoke)
{
    std::ofstream f(path);
    f << "{\n  \"bench\": \"train_step\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n";
    bench::writeJsonContext(f);
    f << "  \"cases\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        f << "    {\"name\": \"" << r.cfg.name << "\""
          << ", \"scene\": \"" << r.cfg.scene << "\""
          << ", \"gaussians\": " << r.cfg.n_gaussians
          << ", \"subset\": " << r.subset
          << ", \"width\": " << r.cfg.width
          << ", \"height\": " << r.cfg.height
          << ", \"reps\": " << r.reps
          << ", \"cull_ms\": " << r.cull_ms
          << ", \"project_ms\": " << r.project_ms
          << ", \"bin_ms\": " << r.bin_ms
          << ", \"composite_ms\": " << r.composite_ms
          << ", \"raster_bwd_ms\": " << r.raster_bwd_ms
          << ", \"loss_fwd_ms\": " << r.loss_fwd_ms
          << ", \"loss_bwd_ms\": " << r.loss_bwd_ms
          << ", \"adam_ms\": " << r.adam_ms
          << ", \"step_ms\": " << r.step_ms
          << ", \"loss_ref_fwd_ms\": " << r.loss_ref_fwd_ms
          << ", \"loss_ref_bwd_ms\": " << r.loss_ref_bwd_ms
          << ", \"loss_speedup\": " << r.lossSpeedup();
        bool fwd_same = true, bwd_same = true;
        f << ", \"raster_bwd_by_backend\": {";
        for (size_t b = 0; b < r.backends.size(); ++b) {
            const BackendResult &br = r.backends[b];
            f << (b ? ", " : "") << "\"" << br.name
              << "\": " << br.raster_bwd_ms;
            fwd_same = fwd_same && br.forward_identical;
            bwd_same = bwd_same && br.backward_identical;
        }
        f << "}, \"forward_bitwise_identical\": "
          << (fwd_same ? "true" : "false")
          << ", \"backward_bitwise_identical\": "
          << (bwd_same ? "true" : "false")
          << ",\n     \"batch_views\": " << r.batch_views
          << ", \"fused_backward_speedup\": " << r.batchBwdSpeedup()
          << ", \"backward_batch\": [";
        for (size_t b = 0; b < r.batch_bwd.size(); ++b) {
            const BatchBwdResult &bb = r.batch_bwd[b];
            f << (b ? ", " : "") << "{\"table\": \"" << bb.table << "\""
              << ", \"seq_bwd_ms\": " << bb.seq_bwd_ms
              << ", \"fused_bwd_ms\": " << bb.fused_bwd_ms
              << ", \"speedup\": " << bb.speedup()
              << ", \"batched_bitwise_identical\": "
              << (bb.batched_identical ? "true" : "false")
              << ", \"parallel_bitwise_identical\": "
              << (bb.parallel_identical ? "true" : "false") << "}";
        }
        f << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool with_ref = true;
    std::string out_path = "BENCH_train_step.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--no-ref")
            with_ref = false;
        else if (arg == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else {
            std::cerr << "usage: micro_train_step [--smoke] [--no-ref]"
                         " [--out FILE]\n";
            return 2;
        }
    }

    std::vector<BenchCase> cases;
    double min_seconds;
    int max_reps;
    if (smoke) {
        cases = {{"smoke", 2000, 160, 90}};
        min_seconds = 0.0;    // single rep: builds-and-runs gate only
        max_reps = 1;
    } else {
        // Same scene/resolution ladder as micro_rasterizer, so the
        // composite/backward stages are directly comparable with
        // BENCH_rasterizer.json points.
        cases = {{"small", 4000, 320, 180},
                 {"medium", 16000, 640, 360},
                 {"large", 64000, 960, 540},
                 // The composed-serving regime: the BENCH_compose scene
                 // at serving resolution — a big model behind small
                 // frames, where cull/stage overheads (not pixel work)
                 // carry the step.
                 {"dense", 400000, 160, 90, "bigcity"}};
        min_seconds = 1.0;
        max_reps = 20;
    }

    std::cout << "=== micro_train_step: full training-step breakdown ===\n"
              << bench::contextLine() << "\n\n";
    Table table({"Case", "Subset", "WxH", "Cull", "Proj", "Bin", "Comp",
                 "RastBwd", "LossFwd", "LossBwd", "Adam", "Step ms",
                 "RefLoss", "LossX"});
    std::vector<BenchResult> results;
    for (const BenchCase &c : cases) {
        BenchResult r = runCase(c, min_seconds, max_reps, with_ref);
        table.addRow({r.cfg.name, std::to_string(r.subset),
                      std::to_string(c.width) + "x"
                          + std::to_string(c.height),
                      Table::fmt(r.cull_ms, 2), Table::fmt(r.project_ms, 2),
                      Table::fmt(r.bin_ms, 2),
                      Table::fmt(r.composite_ms, 2),
                      Table::fmt(r.raster_bwd_ms, 2),
                      Table::fmt(r.loss_fwd_ms, 2),
                      Table::fmt(r.loss_bwd_ms, 2),
                      Table::fmt(r.adam_ms, 2), Table::fmt(r.step_ms, 2),
                      Table::fmt(r.loss_ref_fwd_ms + r.loss_ref_bwd_ms, 1),
                      Table::fmt(r.lossSpeedup(), 1)});
        results.push_back(r);
    }
    table.print(std::cout);

    std::cout << "\nbackward by forced kernel table (ms, bitwise vs "
                 "first backend):\n";
    for (const BenchResult &r : results) {
        std::cout << "  " << r.cfg.name << ":";
        for (const BackendResult &b : r.backends)
            std::cout << "  " << b.name << "="
                      << Table::fmt(b.raster_bwd_ms, 2)
                      << (b.forward_identical && b.backward_identical
                              ? ""
                              : " [BITS DIFFER]");
        std::cout << "\n";
    }

    std::cout << "\nfused multi-view backward (batch=4) vs sequential "
                 "per-view loop (ms, bitwise batched==seq / par==ser):\n";
    for (const BenchResult &r : results) {
        std::cout << "  " << r.cfg.name << ":";
        for (const BatchBwdResult &b : r.batch_bwd)
            std::cout << "  " << b.table << " seq="
                      << Table::fmt(b.seq_bwd_ms, 2)
                      << " fused=" << Table::fmt(b.fused_bwd_ms, 2) << " ("
                      << Table::fmt(b.speedup(), 2) << "x)"
                      << (b.batched_identical && b.parallel_identical
                              ? ""
                              : " [BITS DIFFER]");
        std::cout << "\n";
    }

    writeJson(out_path, results, smoke);
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
