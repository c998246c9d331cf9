/**
 * @file
 * Tests for the synthetic scene/camera generators: the five presets must
 * reproduce the paper's workload structure — the sparsity ordering of
 * Figure 5 (BigCity sparsest ... Bicycle densest) and the spatial
 * locality that makes caching and TSP ordering effective.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "math/aabb.hpp"
#include "offload/frustum_sets.hpp"
#include "render/culling.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene_spec.hpp"
#include "scene/synthetic.hpp"
#include "sched/ordering.hpp"

namespace clm {
namespace {

/** Scaled-down profile for fast set computation in tests. */
FrustumSets
smallSets(const SceneSpec &spec, size_t n_gaussians = 4000,
          int n_views = 16)
{
    GaussianModel m = generateSceneGaussians(spec, n_gaussians);
    auto cams = generateCameraPath(spec, n_views, 64, 48);
    return computeFrustumSets(m, cams);
}

TEST(FrustumSets, MatchPerViewCullAcrossViewGroups)
{
    // 33 views: two whole cull groups and a partial one.
    const SceneSpec spec = SceneSpec::rubble();
    GaussianModel m = generateSceneGaussians(spec, 3000);
    auto cams = generateCameraPath(spec, 33, 64, 48);
    FrustumSets fs = computeFrustumSets(m, cams);
    EXPECT_EQ(fs.total_gaussians, m.size());
    ASSERT_EQ(fs.sets.size(), cams.size());
    for (size_t v = 0; v < cams.size(); ++v)
        EXPECT_EQ(fs.sets[v], frustumCull(m, cams[v])) << "view " << v;
}

TEST(SceneSpec, PresetsMatchPaperTables)
{
    auto all = SceneSpec::all();
    ASSERT_EQ(all.size(), 5u);
    EXPECT_EQ(all[0].name, "Bicycle");
    EXPECT_EQ(all[4].name, "BigCity");
    // Table 3 batch sizes.
    EXPECT_EQ(all[0].batch_size, 4);
    EXPECT_EQ(all[1].batch_size, 8);
    EXPECT_EQ(all[2].batch_size, 8);
    EXPECT_EQ(all[3].batch_size, 16);
    EXPECT_EQ(all[4].batch_size, 64);
    // Table 2 model sizes (millions).
    EXPECT_DOUBLE_EQ(all[4].paper_gaussians_m, 100.0);
    EXPECT_DOUBLE_EQ(all[1].paper_memory_gb, 50.0);
    EXPECT_EQ(SceneSpec::byName("Ithaca").paper_images, 8200);
    EXPECT_THROW(SceneSpec::byName("Nope"), std::runtime_error);
}

TEST(SceneSpec, SparsityDecreasesWithSceneScale)
{
    auto all = SceneSpec::all();
    for (size_t i = 0; i + 1 < all.size(); ++i)
        EXPECT_GT(all[i].mean_rho, all[i + 1].mean_rho)
            << all[i].name << " vs " << all[i + 1].name;
    // BigCity's headline numbers from §3.
    EXPECT_NEAR(all[4].mean_rho, 0.0039, 1e-6);
    EXPECT_NEAR(all[4].max_rho, 0.0106, 1e-6);
}

TEST(Synthetic, DeterministicForSeed)
{
    SceneSpec spec = SceneSpec::rubble();
    GaussianModel a = generateSceneGaussians(spec, 500);
    GaussianModel b = generateSceneGaussians(spec, 500);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i += 37)
        EXPECT_FLOAT_EQ(a.position(i).x, b.position(i).x);
}

TEST(Synthetic, GaussiansInsideWorld)
{
    for (const SceneSpec &spec : SceneSpec::all()) {
        GaussianModel m = generateSceneGaussians(spec, 800);
        Aabb box;
        box.lo = spec.world_lo;
        box.hi = spec.world_hi;
        box.inflate(0.25f * (spec.world_hi - spec.world_lo).norm());
        size_t inside = 0;
        for (size_t i = 0; i < m.size(); ++i)
            if (box.contains(m.position(i)))
                ++inside;
        EXPECT_GT(double(inside) / m.size(), 0.99) << spec.name;
    }
}

TEST(Synthetic, GroundTruthHasSolidOpacity)
{
    GaussianModel gt = generateGroundTruth(SceneSpec::bicycle(), 300);
    double mean_op = 0;
    for (size_t i = 0; i < gt.size(); ++i)
        mean_op += gt.worldOpacity(i);
    mean_op /= gt.size();
    EXPECT_GT(mean_op, 0.5);
}

TEST(CameraPath, ProducesRequestedViews)
{
    for (const SceneSpec &spec : SceneSpec::all()) {
        auto cams = generateCameraPath(spec, 13, 32, 24);
        EXPECT_EQ(cams.size(), 13u) << spec.name;
        for (const Camera &c : cams) {
            EXPECT_EQ(c.width(), 32);
            EXPECT_EQ(c.height(), 24);
        }
    }
}

TEST(CameraPath, ViewsSeeContent)
{
    // Every view of every scene must select a non-trivial Gaussian set.
    for (const SceneSpec &spec : SceneSpec::all()) {
        FrustumSets fs = smallSets(spec);
        for (size_t v = 0; v < fs.sets.size(); ++v)
            EXPECT_GT(fs.sets[v].size(), 10u)
                << spec.name << " view " << v;
    }
}

/** Parameterized over scenes: the measured per-view sparsity must sit in
 *  a plausible band around the paper-calibrated mean_rho. */
class SceneSparsityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SceneSparsityTest, MeasuredRhoTracksCalibration)
{
    SceneSpec spec = SceneSpec::all()[GetParam()];
    FrustumSets fs = smallSets(spec, spec.sim.n_gaussians / 4, 16);
    auto rho = fs.sparsities();
    double mean =
        std::accumulate(rho.begin(), rho.end(), 0.0) / rho.size();
    // Within a factor of ~2.5 of the paper value (synthetic stand-in).
    EXPECT_GT(mean, spec.mean_rho / 2.5) << spec.name;
    EXPECT_LT(mean, spec.mean_rho * 2.5) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllScenes, SceneSparsityTest,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(SceneSparsity, OrderingAcrossScenesMatchesFigure5)
{
    // The empirical sparsity ordering must match the paper's CDF order.
    std::vector<double> means;
    for (const SceneSpec &spec : SceneSpec::all()) {
        FrustumSets fs = smallSets(spec, spec.sim.n_gaussians / 4, 16);
        auto rho = fs.sparsities();
        means.push_back(std::accumulate(rho.begin(), rho.end(), 0.0)
                        / rho.size());
    }
    for (size_t i = 0; i + 1 < means.size(); ++i)
        EXPECT_GT(means[i], means[i + 1])
            << SceneSpec::all()[i].name << " should be denser than "
            << SceneSpec::all()[i + 1].name;
}

TEST(SceneLocality, ConsecutiveViewsOverlapMoreThanDistant)
{
    // Spatial locality (§3): consecutive capture-order views share more
    // Gaussians than views far apart on the path.
    // BigCity's synthetic capture is too sparse in views for adjacency
    // overlap at this scale (its cache benefit is small in the paper
    // too, Fig. 14); test the dense-path scenes.
    for (const SceneSpec &spec :
         {SceneSpec::rubble(), SceneSpec::ithaca()}) {
        FrustumSets fs =
            smallSets(spec, spec.sim.n_gaussians / 8, spec.sim.n_views);
        double consecutive = 0, distant = 0;
        int n = static_cast<int>(fs.sets.size());
        int pairs = 0;
        for (int v = 0; v + 1 < n; ++v) {
            consecutive += intersectionSize(fs.sets[v], fs.sets[v + 1]);
            distant +=
                intersectionSize(fs.sets[v], fs.sets[(v + n / 2) % n]);
            ++pairs;
        }
        EXPECT_GT(consecutive / pairs, distant / pairs + 1.0)
            << spec.name;
    }
}

} // namespace
} // namespace clm
