/**
 * @file
 * Tests for the bench helpers: GeoMean and layerSeconds edge cases,
 * status formatting, and sweep-record lookup.
 */

#include <gtest/gtest.h>

#include "bench/bench_common.hh"

namespace sonic::bench
{
namespace
{

TEST(GeoMeanTest, EmptyIsZero)
{
    GeoMean g;
    EXPECT_EQ(g.value(), 0.0);
    EXPECT_EQ(g.count(), 0u);
}

TEST(GeoMeanTest, SingleValueIsItself)
{
    GeoMean g;
    g.add(3.5);
    EXPECT_DOUBLE_EQ(g.value(), 3.5);
    EXPECT_EQ(g.count(), 1u);
}

TEST(GeoMeanTest, GeometricNotArithmetic)
{
    GeoMean g;
    g.add(2.0);
    g.add(8.0);
    EXPECT_NEAR(g.value(), 4.0, 1e-12); // not 5.0
}

TEST(GeoMeanTest, IgnoresNonPositiveObservations)
{
    GeoMean g;
    g.add(0.0);
    g.add(-4.0);
    EXPECT_EQ(g.value(), 0.0);
    EXPECT_EQ(g.count(), 0u);
    g.add(7.0);
    EXPECT_DOUBLE_EQ(g.value(), 7.0);
    EXPECT_EQ(g.count(), 1u);
}

app::ExperimentResult
resultWithLayers()
{
    app::ExperimentResult r;
    r.layers.push_back({"conv1", 0.25, 0.05, 1e-3});
    r.layers.push_back({"fc", 0.5, 0.0, 2e-3});
    r.layers.push_back({"zero", 0.0, 0.0, 0.0});
    return r;
}

TEST(LayerSecondsTest, SumsKernelAndControl)
{
    const auto r = resultWithLayers();
    EXPECT_DOUBLE_EQ(layerSeconds(r, "conv1"), 0.3);
    EXPECT_DOUBLE_EQ(layerSeconds(r, "fc"), 0.5);
}

TEST(LayerSecondsTest, MissingLayerIsZero)
{
    const auto r = resultWithLayers();
    EXPECT_EQ(layerSeconds(r, "conv9"), 0.0);
    EXPECT_EQ(layerSeconds(app::ExperimentResult{}, "conv1"), 0.0);
}

TEST(LayerSecondsTest, ZeroTimeLayerIsZeroNotMissing)
{
    const auto r = resultWithLayers();
    EXPECT_EQ(layerSeconds(r, "zero"), 0.0);
}

TEST(StatusOfTest, ThreeStates)
{
    app::ExperimentResult r;
    r.completed = true;
    EXPECT_EQ(statusOf(r), "ok");
    r.completed = false;
    r.nonTerminating = true;
    EXPECT_EQ(statusOf(r), "DNF");
    r.nonTerminating = false;
    EXPECT_EQ(statusOf(r), "fail");
}

TEST(FindRecordTest, MatchesCoordinatesOrNull)
{
    std::vector<app::SweepRecord> records(2);
    records[0].spec.net = "HAR";
    records[0].spec.impl = kernels::Impl::Sonic;
    records[0].result.energyJ = 1.0;
    records[1].spec.net = "HAR";
    records[1].spec.impl = kernels::Impl::Tails;
    records[1].spec.environment = {"rf-paper", 1e-3};
    records[1].result.energyJ = 2.0;

    const auto *hit = findRecord(records, "HAR",
                                 kernels::Impl::Tails,
                                 {"rf-paper", 1e-3});
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->result.energyJ, 2.0);

    EXPECT_EQ(findRecord(records, "OkG",
                         kernels::Impl::Sonic),
              nullptr);
    EXPECT_EQ(findRecord(records, "HAR",
                         kernels::Impl::Tails,
                         {"rf-paper", 100e-6}),
              nullptr);
    // The lookup is by EnvRef, so a parsed label finds its record.
    env::EnvRef parsed;
    std::string error;
    ASSERT_TRUE(env::parseEnvRef("rf-paper@1mF", &parsed, &error));
    EXPECT_EQ(findRecord(records, "HAR", kernels::Impl::Tails, parsed),
              hit);

    EXPECT_EQ(resultFor(records, "HAR",
                        kernels::Impl::Sonic)
                  .energyJ,
              1.0);
}

} // namespace
} // namespace sonic::bench
