/**
 * @file
 * The central correctness property of the paper: intermittent
 * execution must be indistinguishable from continuous execution.
 *
 *  - Exhaustive single-failure sweep: SONIC on the tiny network with a
 *    power failure injected at *every* operation index produces
 *    bit-identical logits (this is the idempotence proof-by-testing of
 *    loop continuation, loop-ordered buffering, and sparse
 *    undo-logging).
 *  - Periodic-failure sweeps for SONIC, TAILS, and Tile-8 at several
 *    failure periods.
 *  - Capacitor runs of the real workloads: SONIC/TAILS complete with
 *    many reboots and bit-identical output; Base and Tile-128 are
 *    reported non-terminating at 100 uF; Tile-32 dies on MNIST only.
 */

#include <gtest/gtest.h>

#include "app/engine.hh"
#include "dnn/device_net.hh"
#include "kernels/runner.hh"
#include "tails/tails.hh"
#include "tests/test_helpers.hh"

namespace sonic::kernels
{
namespace
{

/** Shared engine so workload caches warm once per test binary. */
app::Engine &
testEngine()
{
    static app::Engine engine;
    return engine;
}

std::vector<i16>
runTinyWith(Impl impl, std::unique_ptr<arch::PowerSupply> psu,
            bool *completed = nullptr, u64 *reboots = nullptr)
{
    arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                     std::move(psu));
    const auto spec = testutil::tinyNet();
    dnn::DeviceNetwork net(dev, spec);
    net.loadInput(testutil::tinyInput());
    const auto res = runInference(net, impl);
    if (completed != nullptr)
        *completed = res.completed;
    if (reboots != nullptr)
        *reboots = res.reboots;
    return res.logits;
}

u64
countTinyOps(Impl impl)
{
    arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                     std::make_unique<arch::ContinuousPower>());
    const auto spec = testutil::tinyNet();
    dnn::DeviceNetwork net(dev, spec);
    net.loadInput(testutil::tinyInput());
    EXPECT_TRUE(runInference(net, impl).completed);
    u64 ops = 0;
    for (u32 o = 0; o < arch::kNumOps; ++o)
        ops += dev.stats().opCount(static_cast<arch::Op>(o));
    return ops;
}

TEST(Intermittent, SonicSurvivesFailureAtEveryOperation)
{
    const auto golden =
        runTinyWith(Impl::Sonic,
                    std::make_unique<arch::ContinuousPower>());
    const u64 total = countTinyOps(Impl::Sonic);
    ASSERT_GT(total, 1000u);

    for (u64 n = 0; n < total + 3; ++n) {
        bool completed = false;
        const auto logits =
            runTinyWith(Impl::Sonic, testutil::failOnceAt(n), &completed);
        ASSERT_TRUE(completed) << "failure at op " << n;
        ASSERT_EQ(logits, golden) << "divergence, failure at op " << n;
    }
}

TEST(Intermittent, TailsSurvivesSampledSingleFailures)
{
    const auto golden = runTinyWith(
        Impl::Tails, std::make_unique<arch::ContinuousPower>());
    const u64 total = countTinyOps(Impl::Tails);
    // Sample densely (every 7th op) — TAILS ops are coarser batches.
    for (u64 n = 0; n < total + 3; n += 7) {
        bool completed = false;
        const auto logits =
            runTinyWith(Impl::Tails, testutil::failOnceAt(n), &completed);
        ASSERT_TRUE(completed) << "failure at op " << n;
        ASSERT_EQ(logits, golden) << "divergence, failure at op " << n;
    }
}

TEST(Intermittent, Tile8SurvivesSampledSingleFailures)
{
    const auto golden = runTinyWith(
        Impl::Tile8, std::make_unique<arch::ContinuousPower>());
    const u64 total = countTinyOps(Impl::Tile8);
    for (u64 n = 0; n < total + 3; n += 11) {
        bool completed = false;
        const auto logits =
            runTinyWith(Impl::Tile8, testutil::failOnceAt(n), &completed);
        ASSERT_TRUE(completed) << "failure at op " << n;
        ASSERT_EQ(logits, golden) << "divergence, failure at op " << n;
    }
}

/** Periodic failures with assorted prime periods. */
class PeriodicSweep
    : public ::testing::TestWithParam<std::tuple<int, u64>>
{
};

TEST_P(PeriodicSweep, BitIdenticalUnderRepeatedFailures)
{
    const auto impl = static_cast<Impl>(std::get<0>(GetParam()));
    const u64 period = std::get<1>(GetParam());
    // An implementation can only tolerate failure periods longer than
    // its largest atomic unit: a whole task for Tile-8 (the paper's
    // non-termination condition), one FIR row for TAILS. SONIC's unit
    // is a single loop iteration.
    const u64 min_period = impl == Impl::Tile8 ? 521
        : impl == Impl::Tails              ? 127
                                           : 0;
    if (period < min_period)
        GTEST_SKIP();
    const auto golden = runTinyWith(
        impl, std::make_unique<arch::ContinuousPower>());
    bool completed = false;
    u64 reboots = 0;
    const auto logits =
        runTinyWith(impl, testutil::failEvery(period), &completed, &reboots);
    ASSERT_TRUE(completed);
    EXPECT_GT(reboots, 0u);
    EXPECT_EQ(logits, golden);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PeriodicSweep,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(Impl::Sonic),
                          static_cast<int>(Impl::Tails),
                          static_cast<int>(Impl::Tile8)),
        ::testing::Values(u64{61}, u64{127}, u64{257}, u64{521},
                          u64{1031}, u64{2053})));

TEST(Intermittent, HarSonicCapacitorBitIdentical)
{
    app::RunSpec spec;
    spec.net = "HAR";
    spec.impl = Impl::Sonic;
    const auto cont = testEngine().runOne(spec);
    ASSERT_TRUE(cont.completed);

    spec.environment = {"rf-paper", 100e-6};
    const auto inter = testEngine().runOne(spec);
    ASSERT_TRUE(inter.completed);
    EXPECT_GT(inter.reboots, 50u);
    EXPECT_EQ(inter.logits, cont.logits);
    EXPECT_GT(inter.deadSeconds, inter.liveSeconds);
}

TEST(Intermittent, OkgTailsCapacitorBitIdentical)
{
    app::RunSpec spec;
    spec.net = "OkG";
    spec.impl = Impl::Tails;
    const auto cont = testEngine().runOne(spec);
    ASSERT_TRUE(cont.completed);

    spec.environment = {"rf-paper", 100e-6};
    const auto inter = testEngine().runOne(spec);
    ASSERT_TRUE(inter.completed);
    EXPECT_GT(inter.reboots, 20u);
    EXPECT_EQ(inter.logits, cont.logits);
}

TEST(Intermittent, BaseDoesNotCompleteOnHarvestedPower)
{
    app::RunSpec spec;
    spec.net = "HAR";
    spec.impl = Impl::Base;
    spec.environment = {"rf-paper", 100e-6};
    const auto r = testEngine().runOne(spec);
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.nonTerminating);
}

TEST(Intermittent, Tile128DoesNotCompleteAt100uF)
{
    app::RunSpec spec;
    spec.net = "OkG";
    spec.impl = Impl::Tile128;
    spec.environment = {"rf-paper", 100e-6};
    const auto r = testEngine().runOne(spec);
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.nonTerminating);
}

TEST(Intermittent, Tile32CompletesOnHarButNotMnist)
{
    app::RunSpec spec;
    spec.impl = Impl::Tile32;
    spec.environment = {"rf-paper", 100e-6};

    spec.net = "HAR";
    EXPECT_TRUE(testEngine().runOne(spec).completed);

    spec.net = "MNIST";
    const auto mnist = testEngine().runOne(spec);
    EXPECT_FALSE(mnist.completed);
    EXPECT_TRUE(mnist.nonTerminating);
}

TEST(Intermittent, SonicConsistentAcrossCapacitorSizes)
{
    app::RunSpec spec;
    spec.net = "HAR";
    spec.impl = Impl::Sonic;
    const auto golden = testEngine().runOne(spec);
    ASSERT_TRUE(golden.completed);
    for (const f64 farads : {50e-3, 1e-3, 100e-6}) {
        spec.environment = {"rf-paper", farads};
        const std::string label = spec.environment.label();
        const auto r = testEngine().runOne(spec);
        ASSERT_TRUE(r.completed) << label;
        EXPECT_EQ(r.logits, golden.logits) << label;
        // Live time is the same work regardless of the power system
        // (within the re-execution noise of failures).
        EXPECT_LT(std::abs(r.liveSeconds - golden.liveSeconds)
                      / golden.liveSeconds,
                  0.25)
            << label;
    }
}

TEST(Intermittent, TailsCalibrationShrinksTileOnSmallBuffer)
{
    // On continuous power calibration keeps the maximum tile; on a
    // tiny buffer it must halve at least once yet still complete.
    const auto spec = testutil::tinyNet();

    arch::Device cont_dev(arch::EnergyProfile::msp430fr5994(),
                          std::make_unique<arch::ContinuousPower>());
    dnn::DeviceNetwork cont_net(cont_dev, spec);
    cont_net.loadInput(testutil::tinyInput());
    const auto cont = tails::runTails(cont_net);
    ASSERT_TRUE(cont.completed);

    // An energy buffer of ~2 uJ: too small for the maximum probe
    // tile, large enough for every per-iteration unit of the network.
    arch::Device small_dev(
        arch::EnergyProfile::msp430fr5994(),
        std::make_unique<testutil::CapacitorPower>(15e-6, 0.5e-3));
    dnn::DeviceNetwork small_net(small_dev, spec);
    small_net.loadInput(testutil::tinyInput());
    const auto small = tails::runTails(small_net);
    ASSERT_TRUE(small.completed);

    EXPECT_LT(small.calibTileWords, cont.calibTileWords);
}

} // namespace
} // namespace sonic::kernels
