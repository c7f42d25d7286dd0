/**
 * @file
 * Tests for the experiment vocabulary, the engine's single-shot path,
 * and the application model (wildlife case study, offload comparison).
 */

#include <gtest/gtest.h>

#include "app/engine.hh"
#include "app/wildlife.hh"
#include "dnn/device_net.hh"
#include "tests/test_helpers.hh"

namespace sonic::app
{
namespace
{

Engine &
engine()
{
    static Engine instance;
    return instance;
}

TEST(Experiment, ProfileNames)
{
    EXPECT_STREQ(profileName(ProfileVariant::Standard), "standard");
    EXPECT_STREQ(profileName(ProfileVariant::NoLea), "no-lea");
    EXPECT_STREQ(profileName(ProfileVariant::NoDma), "no-dma");
}

TEST(Experiment, RfPaperEnvironmentMatchesCapacitorPower)
{
    // The paper's capacitor runs are rf-paper@C environments: a
    // HarvestSupply over a constant 0.5 mW model. The reference is a
    // device on testutil::CapacitorPower(C, 0.5 mW), the same physics in
    // closed form. Everything is bit-identical except the recharge
    // dead time, which the two supplies integrate along different
    // roundings (a few ULPs at most).
    for (const auto &net : dnn::kPaperNets) {
        const auto &model = dnn::ModelZoo::instance().get(net);
        const auto input =
            dnn::DeviceNetwork::quantizeInput(model.dataset()[0].input);
        for (const auto impl : kernels::kAllImpls) {
            for (const f64 farads : {50e-3, 1e-3, 100e-6}) {
                RunSpec spec;
                spec.net = net;
                spec.impl = impl;
                spec.environment = {"rf-paper", farads};
                const std::string what = net + "/"
                    + std::string(kernels::implName(impl)) + "/"
                    + spec.environment.label();
                const auto r = engine().runOne(spec);

                arch::Device dev(makeProfile(spec.profile),
                                 std::make_unique<testutil::CapacitorPower>(
                                     farads, env::kRfPaperWatts));
                dnn::DeviceNetwork device_net(dev, model.compressed());
                device_net.loadInput(input);
                const auto ref = kernels::runInference(device_net, impl);
                u64 ops = 0;
                for (u32 o = 0; o < arch::kNumOps; ++o)
                    ops += dev.stats().opCount(static_cast<arch::Op>(o));

                EXPECT_EQ(r.completed, ref.completed) << what;
                EXPECT_EQ(r.nonTerminating, ref.nonTerminating) << what;
                EXPECT_EQ(r.reboots, ref.reboots) << what;
                EXPECT_EQ(r.liveSeconds, dev.liveSeconds()) << what;
                EXPECT_EQ(r.energyJ, dev.consumedJoules()) << what;
                EXPECT_EQ(r.harvestedJ, dev.power().harvestedNj() * 1e-9)
                    << what;
                if (ref.completed) {
                    EXPECT_EQ(r.logits, ref.logits) << what;
                }
                EXPECT_EQ(r.opInstances, ops) << what;
                EXPECT_NEAR(r.deadSeconds, dev.deadSeconds(),
                            1e-15 * dev.deadSeconds())
                    << what;
                EXPECT_NEAR(r.totalSeconds, dev.totalSeconds(),
                            1e-15 * dev.totalSeconds())
                    << what;
            }
        }
    }
}

TEST(Experiment, EmptyEnvironmentIsContinuous)
{
    RunSpec spec;
    auto &registry = env::EnvRegistry::instance();
    const auto wall = registry.make(spec.environment, spec.seed);
    EXPECT_NE(dynamic_cast<arch::ContinuousPower *>(wall.get()), nullptr);
    spec.environment = {"rf-paper", 1e-3};
    const auto cap = registry.make(spec.environment, spec.seed);
    EXPECT_NE(dynamic_cast<env::HarvestSupply *>(cap.get()), nullptr);
    EXPECT_EQ(cap->capacityNj(),
              testutil::CapacitorPower(1e-3, env::kRfPaperWatts).capacityNj());
}

TEST(Experiment, ZooCachesAreStable)
{
    auto &zoo = dnn::ModelZoo::instance();
    const auto &a = zoo.get("HAR").compressed();
    EXPECT_EQ(&a, &zoo.get("HAR").compressed());
    const auto &t = zoo.get("HAR").teacher();
    EXPECT_EQ(&t, &zoo.get("HAR").teacher());
    EXPECT_EQ(zoo.get("HAR").dataset().size(), 64u);
}

TEST(Experiment, BreakdownSumsToLiveTime)
{
    // TAILS included: its batched LEA shifts are the origin of the
    // documented reassociation drift (see kBatchedEnergyRelTol).
    for (const auto impl : {kernels::Impl::Sonic,
                            kernels::Impl::Tails}) {
        RunSpec spec;
        spec.net = "HAR";
        spec.impl = impl;
        const auto r = engine().runOne(spec);
        ASSERT_TRUE(r.completed);
        f64 sum = 0.0;
        for (const auto &layer : r.layers)
            sum += layer.kernelSeconds + layer.controlSeconds;
        EXPECT_NEAR(sum, r.liveSeconds,
                    r.liveSeconds * testutil::kBatchedEnergyRelTol);
    }
}

TEST(Experiment, EnergyByOpSumsToTotal)
{
    for (const auto impl : {kernels::Impl::Sonic,
                            kernels::Impl::Tails}) {
        RunSpec spec;
        spec.net = "HAR";
        spec.impl = impl;
        const auto r = engine().runOne(spec);
        f64 sum = 0.0;
        for (const auto &[op, joules] : r.energyByOp)
            sum += joules;
        EXPECT_NEAR(sum, r.energyJ,
                    r.energyJ * testutil::kBatchedEnergyRelTol);
    }
}

TEST(Experiment, ContinuousHasNoDeadTime)
{
    RunSpec spec;
    spec.net = "HAR";
    spec.impl = kernels::Impl::Base;
    const auto r = engine().runOne(spec);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.deadSeconds, 0.0);
    EXPECT_EQ(r.reboots, 0u);
}

TEST(Experiment, SampleIndexChangesInput)
{
    RunSpec a;
    a.net = "HAR";
    a.impl = kernels::Impl::Sonic;
    a.sampleIndex = 0;
    RunSpec b = a;
    b.sampleIndex = 1;
    const auto ra = engine().runOne(a);
    const auto rb = engine().runOne(b);
    EXPECT_NE(ra.logits, rb.logits);
}

TEST(Experiment, AblationProfilesChangeTailsCost)
{
    RunSpec spec;
    spec.net = "HAR";
    spec.impl = kernels::Impl::Tails;
    spec.profile = ProfileVariant::Standard;
    const auto with_hw = engine().runOne(spec);
    spec.profile = ProfileVariant::NoLea;
    const auto no_lea = engine().runOne(spec);
    EXPECT_GT(no_lea.liveSeconds, with_hw.liveSeconds);
}

TEST(Experiment, TailsRunReportsCalibratedTile)
{
    RunSpec spec;
    spec.net = "HAR";
    spec.impl = kernels::Impl::Tails;
    const auto r = engine().runOne(spec);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.tailsTileWords, 0u);

    spec.impl = kernels::Impl::Sonic;
    EXPECT_EQ(engine().runOne(spec).tailsTileWords, 0u);
}

TEST(Wildlife, SweepShapes)
{
    WildlifeParams params;
    const auto rows = sweepWildlife(params, 5, false);
    ASSERT_EQ(rows.size(), 5u);
    EXPECT_EQ(rows.front().accuracy, 0.0);
    EXPECT_EQ(rows.back().accuracy, 1.0);
    // Always-send is flat; filtered systems grow with accuracy.
    EXPECT_NEAR(rows.front().alwaysSend, rows.back().alwaysSend, 1e-12);
    EXPECT_GT(rows.back().sonicTails, rows.front().sonicTails);
}

TEST(Wildlife, FullImageCalloutsMatchPaperShape)
{
    WildlifeParams params; // the paper's measured defaults
    const auto rows = sweepWildlife(params, 11, false);
    const auto &top = rows.back();
    const f64 gain = top.sonicTails / top.alwaysSend;
    EXPECT_GT(gain, 10.0);
    EXPECT_LT(gain, 25.0); // paper: ~20x
    const f64 vs_naive = top.sonicTails / top.naive;
    EXPECT_GT(vs_naive, 1.0);
    EXPECT_LT(vs_naive, 1.3); // paper: up to 14%, ~1.1x at the top
}

TEST(Wildlife, SendResultCalloutsMatchPaperShape)
{
    WildlifeParams params;
    const auto rows = sweepWildlife(params, 11, true);
    const auto &top = rows.back();
    EXPECT_GT(top.sonicTails / top.alwaysSend, 200.0); // paper ~480x
    EXPECT_GT(top.sonicTails / top.naive, 2.0);        // paper ~4.6x
    EXPECT_LT(top.ideal / top.sonicTails, 4.0);        // paper ~2.2x
}

TEST(Wildlife, OffloadComparisonHuge)
{
    const auto cmp = offloadVsLocal(28 * 28, 26e-3, env::kRfPaperWatts);
    EXPECT_GT(cmp.speedup, 300.0); // paper: >=360x
    EXPECT_GT(cmp.offloadSeconds, 3600.0); // over an hour
}

} // namespace
} // namespace sonic::app
