/**
 * @file
 * Tests for GENESIS: the Eq. 1-3 application model, the compression
 * sweep, Pareto frontiers, feasibility filtering, and the headline
 * claim that the IMpJ-optimal configuration maximizes the model.
 */

#include <gtest/gtest.h>

#include "genesis/genesis.hh"
#include "genesis/impj.hh"

namespace sonic::genesis
{
namespace
{

AppModel
wildlife()
{
    AppModel m;
    m.baseRate = 0.05;
    m.senseJ = 10e-3;
    m.commJ = 23.0;
    m.inferJ = 26e-3;
    m.truePositive = 0.99;
    m.trueNegative = 0.99;
    return m;
}

TEST(Impj, BaselineMatchesHandComputation)
{
    const auto m = wildlife();
    EXPECT_NEAR(impjBaseline(m), 0.05 / (0.010 + 23.0), 1e-12);
}

TEST(Impj, IdealMatchesHandComputation)
{
    const auto m = wildlife();
    EXPECT_NEAR(impjIdeal(m), 0.05 / (0.010 + 0.05 * 23.0), 1e-12);
}

TEST(Impj, InferenceMatchesEq3)
{
    const auto m = wildlife();
    const f64 sent = 0.05 * 0.99 + 0.95 * 0.01;
    const f64 expect =
        (0.05 * 0.99) / ((0.010 + 0.026) + sent * 23.0);
    EXPECT_NEAR(impjInference(m), expect, 1e-12);
}

TEST(Impj, PerfectInferenceApproachesIdeal)
{
    auto m = wildlife();
    m.truePositive = 1.0;
    m.trueNegative = 1.0;
    m.inferJ = 0.0;
    EXPECT_NEAR(impjInference(m), impjIdeal(m), 1e-12);
}

TEST(Impj, OrderingBaselineInferenceIdeal)
{
    const auto m = wildlife();
    EXPECT_LT(impjBaseline(m), impjInference(m));
    EXPECT_LT(impjInference(m), impjIdeal(m));
}

TEST(Impj, MonotoneInAccuracy)
{
    auto m = wildlife();
    f64 prev = 0.0;
    for (f64 acc = 0.1; acc <= 1.0; acc += 0.1) {
        m.truePositive = acc;
        m.trueNegative = acc;
        const f64 v = impjInference(m);
        EXPECT_GT(v, prev);
        prev = v;
    }
}

TEST(Impj, MonotoneDecreasingInInferenceEnergy)
{
    auto m = wildlife();
    f64 prev = 1e18;
    for (f64 e = 0.0; e <= 0.5; e += 0.05) {
        m.inferJ = e;
        const f64 v = impjInference(m);
        EXPECT_LT(v, prev);
        prev = v;
    }
}

TEST(Impj, LowTrueNegativeHurtsWhenCommIsExpensive)
{
    auto m = wildlife();
    m.trueNegative = 0.5; // floods the radio with false positives
    const f64 low_tn = impjInference(m);
    m.trueNegative = 0.99;
    EXPECT_GT(impjInference(m), 3.0 * low_tn);
}

class GenesisSweep : public ::testing::Test
{
  protected:
    static const GenesisResult &
    result()
    {
        static GenesisResult r = [] {
            GenesisOptions opts;
            opts.denseGrid = false;
            opts.evalSamples = 32;
            return runGenesis("HAR", opts);
        }();
        return r;
    }
};

TEST_F(GenesisSweep, OriginalIsInfeasible)
{
    EXPECT_FALSE(result().original.feasible);
    EXPECT_GT(result().original.framBytes, u64{256} * 1024);
}

TEST_F(GenesisSweep, ChosenIsFeasible)
{
    EXPECT_TRUE(result().chosen().feasible);
}

TEST_F(GenesisSweep, ChosenMaximizesImpjAmongFeasible)
{
    for (const auto &c : result().configs) {
        if (c.feasible) {
            EXPECT_LE(c.impj, result().chosen().impj + 1e-12);
        }
    }
}

TEST_F(GenesisSweep, AccuracyDegradesWithAggressivePruning)
{
    // Among separate+prune configs with identical rank, the smallest
    // keep-fraction must not beat the largest by much.
    f64 min_keep = 1e9, max_keep = -1e9;
    f64 acc_min = 0, acc_max = 0;
    for (const auto &c : result().configs) {
        if (c.technique != Technique::SeparateAndPrune)
            continue;
        if (c.knobs.fcKeep < min_keep) {
            min_keep = c.knobs.fcKeep;
            acc_min = c.accuracy;
        }
        if (c.knobs.fcKeep > max_keep) {
            max_keep = c.knobs.fcKeep;
            acc_max = c.accuracy;
        }
    }
    EXPECT_LT(min_keep, max_keep);
    EXPECT_LE(acc_min, acc_max + 0.05);
}

TEST_F(GenesisSweep, CompressionReducesCost)
{
    for (const auto &c : result().configs) {
        EXPECT_LT(c.macs, result().original.macs);
        EXPECT_LT(c.params, result().original.params);
    }
}

TEST_F(GenesisSweep, ParetoFrontierUndominated)
{
    const auto &configs = result().configs;
    const auto front = paretoFrontier(configs, nullptr);
    ASSERT_FALSE(front.empty());
    for (u32 i : front) {
        for (u32 j = 0; j < configs.size(); ++j) {
            if (j == i)
                continue;
            const bool dominates = configs[j].macs < configs[i].macs
                && configs[j].accuracy > configs[i].accuracy;
            EXPECT_FALSE(dominates)
                << "config " << j << " dominates frontier member "
                << i;
        }
    }
}

TEST_F(GenesisSweep, ParetoSortedByMacs)
{
    const auto front = paretoFrontier(result().configs, nullptr);
    for (u32 k = 1; k < front.size(); ++k)
        EXPECT_LE(result().configs[front[k - 1]].macs,
                  result().configs[front[k]].macs);
}

TEST_F(GenesisSweep, TechniqueFilterRestricts)
{
    const Technique prune = Technique::PruneOnly;
    const auto front = paretoFrontier(result().configs, &prune);
    for (u32 i : front)
        EXPECT_EQ(result().configs[i].technique, Technique::PruneOnly);
}

TEST(Genesis, SweepsAnyZooModelThroughGenericCompression)
{
    // Non-paper models have no Table 2 budgets: GENESIS falls back to
    // the generic knob compressor via the zoo entry with zero edits
    // here or in genesis.cc.
    GenesisOptions opts;
    opts.denseGrid = false;
    opts.evalSamples = 16;
    const auto r = runGenesis("DeepFC-6", opts);
    EXPECT_EQ(r.net, "DeepFC-6");
    EXPECT_FALSE(r.configs.empty());
    EXPECT_TRUE(r.chosen().feasible);
    // Synthetic teachers are device-feasible, so the original is too.
    EXPECT_TRUE(r.original.feasible);
    EXPECT_DOUBLE_EQ(r.original.accuracy, 1.0); // no paper baseline
    // Separated/pruned configs really shrink the network.
    EXPECT_LT(r.chosen().params, r.original.params);
}

TEST(Genesis, TechniqueNames)
{
    EXPECT_STREQ(techniqueName(Technique::SeparateAndPrune),
                 "separate+prune");
    EXPECT_STREQ(techniqueName(Technique::PruneOnly), "prune-only");
}

TEST(Genesis, EinferScalesWithMacs)
{
    GenesisOptions opts;
    opts.denseGrid = false;
    opts.evalSamples = 16;
    const auto r = runGenesis("HAR", opts);
    for (const auto &c : r.configs)
        EXPECT_NEAR(c.inferJ,
                    static_cast<f64>(c.macs) * opts.joulesPerMac,
                    1e-12);
}

} // namespace
} // namespace sonic::genesis
