/**
 * @file
 * Rasterizer micro-benchmark: forward and backward throughput of the tile
 * rasterizer (the system-wide hot path — every trainer step runs it) at
 * several subset sizes and resolutions on the default synthetic scene.
 *
 * Prints a table and emits a machine-readable BENCH_rasterizer.json so the
 * perf trajectory of the render core is tracked across PRs
 * (scripts/bench_rasterizer.sh).
 *
 * Usage: micro_rasterizer [--smoke] [--out FILE.json]
 *   --smoke  one tiny config, single rep (CI: "builds and runs" gate only)
 *   --out    JSON output path (default BENCH_rasterizer.json in $PWD)
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "render/arena.hpp"
#include "render/culling.hpp"
#include "render/rasterizer.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace clm;

namespace {

struct BenchCase
{
    std::string name;
    size_t n_gaussians;
    int width, height;
};

struct BenchResult
{
    BenchCase cfg;
    size_t subset = 0;
    size_t intersections = 0;
    int reps = 0;
    double fwd_ms = 0;          //!< Mean forward milliseconds per frame.
    double bwd_ms = 0;          //!< Mean backward milliseconds per frame.
    double fwd_gauss_per_s = 0; //!< Subset Gaussians projected+composited /s.
    double mpix_per_s = 0;      //!< Forward megapixels per second.
};

/** Run one config; reps adapt to hit ~min_seconds of forward time. */
BenchResult
runCase(const BenchCase &cfg, double min_seconds, int max_reps)
{
    SceneSpec spec = SceneSpec::bicycle();
    GaussianModel m = generateGroundTruth(spec, cfg.n_gaussians);
    Camera cam = generateCameraPath(spec, 2, cfg.width, cfg.height)[0];
    std::vector<uint32_t> subset = frustumCull(m, cam);

    RenderConfig render;
    render.sh_degree = 3;

    BenchResult r;
    r.cfg = cfg;
    r.subset = subset.size();

    // Hot-loop configuration: one arena reused across frames, exactly
    // like the trainers drive the rasterizer.
    RenderArena arena;

    // Warm-up (thread pool spin-up, arena growth) + activation stats.
    {
        const RenderOutput &out = renderForward(m, cam, subset, render,
                                                arena);
        r.intersections = out.totalTileIntersections();
    }

    Image d_image(cfg.width, cfg.height, {0.3f, -0.2f, 0.1f});
    GaussianGrads grads;
    grads.resize(m.size());

    double fwd_s = 0, bwd_s = 0;
    int reps = 0;
    while (reps == 0 || (reps < max_reps && fwd_s < min_seconds)) {
        Timer t;
        renderForward(m, cam, subset, render, arena);
        fwd_s += t.seconds();
        t.reset();
        renderBackward(m, cam, render, d_image, grads, arena);
        bwd_s += t.seconds();
        ++reps;
    }
    r.reps = reps;
    r.fwd_ms = fwd_s * 1e3 / reps;
    r.bwd_ms = bwd_s * 1e3 / reps;
    r.fwd_gauss_per_s = double(r.subset) * reps / fwd_s;
    r.mpix_per_s =
        double(cfg.width) * cfg.height * reps / fwd_s / 1e6;
    return r;
}

void
writeJson(const std::string &path, const std::vector<BenchResult> &results,
          bool smoke)
{
    std::ofstream f(path);
    f << "{\n  \"bench\": \"rasterizer\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n";
    bench::writeJsonContext(f);
    f << "  \"cases\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        f << "    {\"name\": \"" << r.cfg.name << "\""
          << ", \"gaussians\": " << r.cfg.n_gaussians
          << ", \"subset\": " << r.subset
          << ", \"width\": " << r.cfg.width
          << ", \"height\": " << r.cfg.height
          << ", \"reps\": " << r.reps
          << ", \"intersections\": " << r.intersections
          << ", \"fwd_ms\": " << r.fwd_ms
          << ", \"bwd_ms\": " << r.bwd_ms
          << ", \"fwd_gaussians_per_s\": " << r.fwd_gauss_per_s
          << ", \"fwd_mpix_per_s\": " << r.mpix_per_s << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_rasterizer.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else {
            std::cerr << "usage: micro_rasterizer [--smoke] [--out FILE]\n";
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
        cases = {{"small", 4000, 320, 180},
                 {"medium", 16000, 640, 360},
                 {"large", 64000, 960, 540}};
        min_seconds = 1.0;
        max_reps = 50;
    }

    std::cout << "=== micro_rasterizer: tile rasterizer throughput ===\n\n";
    Table table({"Case", "Subset", "WxH", "Isects", "Fwd ms", "Bwd ms",
                 "Fwd MGauss/s", "Fwd Mpix/s", "Reps"});
    std::vector<BenchResult> results;
    for (const BenchCase &c : cases) {
        BenchResult r = runCase(c, min_seconds, max_reps);
        table.addRow({r.cfg.name, std::to_string(r.subset),
                      std::to_string(c.width) + "x"
                          + std::to_string(c.height),
                      std::to_string(r.intersections),
                      Table::fmt(r.fwd_ms, 3), Table::fmt(r.bwd_ms, 3),
                      Table::fmt(r.fwd_gauss_per_s / 1e6, 3),
                      Table::fmt(r.mpix_per_s, 2),
                      std::to_string(r.reps)});
        results.push_back(r);
    }
    table.print(std::cout);

    writeJson(out_path, results, smoke);
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
