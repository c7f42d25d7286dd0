/**
 * @file
 * Tests for the sense-infer-transmit pipeline subsystem: the pipeline
 * list's lookups, radio attempt-energy arithmetic against the OpenChirp
 * profile, continuous-round behavior (logit equality with the bare
 * kernel, delivery accounting, give-up on a dead link), exhaustive
 * single-failure delivery idempotence (never lose, never duplicate),
 * lossy-link determinism under failures, and a small oracle battery
 * over every registered pipeline.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "arch/device.hh"
#include "dnn/device_net.hh"
#include "pipeline/pipeline.hh"
#include "tests/test_helpers.hh"
#include "verify/oracle.hh"

namespace sonic::pipeline
{
namespace
{

constexpr u64 kSeed = 0x909e57;

RoundOutcome
runTinyRound(const PipelineSpec &spec, kernels::Impl impl,
             std::unique_ptr<arch::PowerSupply> psu, u64 round = 0,
             u64 seed = kSeed)
{
    arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                     std::move(psu));
    const auto net_spec = testutil::tinyNet();
    dnn::DeviceNetwork net(dev, net_spec);
    return runRound(net, impl, testutil::tinyInput(), spec, seed, round);
}

u64
countRoundOps(const PipelineSpec &spec, kernels::Impl impl)
{
    arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                     std::make_unique<arch::ContinuousPower>());
    const auto net_spec = testutil::tinyNet();
    dnn::DeviceNetwork net(dev, net_spec);
    const auto out =
        runRound(net, impl, testutil::tinyInput(), spec, kSeed, 0);
    EXPECT_TRUE(out.completed);
    u64 ops = 0;
    for (u32 o = 0; o < arch::kNumOps; ++o)
        ops += dev.stats().opCount(static_cast<arch::Op>(o));
    return ops;
}

// --- Pipeline list --------------------------------------------------

TEST(PipelineRegistry, BuiltinsAreRegistered)
{
    for (const char *name : {"infer-only", "wildlife", "sense-infer",
                             "result-tx", "lossy-uplink"})
        EXPECT_TRUE(contains(name)) << name;
    EXPECT_FALSE(contains("no-such-pipeline"));

    const auto &wildlife = get("wildlife");
    EXPECT_TRUE(wildlife.sense.enabled);
    EXPECT_TRUE(wildlife.radio.enabled);
    EXPECT_EQ(wildlife.radio.ackLossProbability, 0.0);
    EXPECT_FALSE(wildlife.inferOnly());
    EXPECT_TRUE(get("infer-only").inferOnly());

    // Every pipeline name appears in the CLI help list.
    const auto list = availableList();
    for (const auto &name : names())
        EXPECT_NE(list.find(name), std::string::npos) << name;
}

TEST(PipelineRegistry, UnknownNameDies)
{
    EXPECT_EXIT(get("no-such-pipeline"), ::testing::ExitedWithCode(1),
                "registered pipelines: infer-only, wildlife");
}

// --- Radio energy ---------------------------------------------------

TEST(RadioEnergy, OpenChirpImageAttemptMatchesPaper)
{
    const auto radio = arch::EnergyProfile::openChirpRadio();
    RadioConfig image;
    image.payloadBytes = 784; // one 28x28 8-bit image
    RadioConfig result;
    result.payloadBytes = 8; // one classified result

    // The paper's Sec. 3.2 numbers: ~23 J per image, result packets
    // ~98x cheaper. The attempt energy adds wake + ACK overhead, so
    // the ratio lands just under the payload-only 98x.
    const f64 image_j = attemptEnergyJ(image, radio);
    const f64 result_j = attemptEnergyJ(result, radio);
    EXPECT_NEAR(image_j, 23.0, 0.5);
    EXPECT_GT(image_j / result_j, 90.0);
    EXPECT_LT(image_j / result_j, 98.0);
}

TEST(RadioEnergy, AttemptEnergyScalesWithPayload)
{
    const auto profile = arch::EnergyProfile::msp430fr5994();
    RadioConfig small, big;
    small.payloadBytes = 4;
    big.payloadBytes = 64;
    const f64 overhead = profile.nanojoules(arch::Op::RadioWake) +
                         profile.nanojoules(arch::Op::RadioRxAck);
    const f64 per_byte = profile.nanojoules(arch::Op::RadioTxByte);
    EXPECT_NEAR(attemptEnergyJ(small, profile),
                (overhead + 4 * per_byte) * 1e-9, 1e-18);
    EXPECT_NEAR(attemptEnergyJ(big, profile),
                (overhead + 64 * per_byte) * 1e-9, 1e-18);
}

// --- Continuous rounds ----------------------------------------------

TEST(PipelineRound, ContinuousWildlifeDeliversWithKernelLogits)
{
    const auto &spec = get("wildlife");
    const auto out = runTinyRound(
        spec, kernels::Impl::Sonic,
        std::make_unique<arch::ContinuousPower>());
    ASSERT_TRUE(out.completed);
    EXPECT_FALSE(out.nonTerminating);
    EXPECT_TRUE(out.delivered);
    EXPECT_FALSE(out.txGaveUp);
    EXPECT_EQ(out.reboots, 0u);
    EXPECT_EQ(out.txAttempts, 1u);
    EXPECT_EQ(out.txFailedAttempts, 0u);
    EXPECT_EQ(out.backoffSeconds, 0.0);

    // The sense stage lands the sample exactly where loadInput would:
    // the pipeline's logits are the bare kernel's, bit for bit.
    const auto bare = runTinyRound(
        get("infer-only"),
        kernels::Impl::Sonic, std::make_unique<arch::ContinuousPower>());
    ASSERT_TRUE(bare.completed);
    EXPECT_EQ(out.logits, bare.logits);
    EXPECT_EQ(out.resultClass, bare.resultClass);
    ASSERT_GE(out.resultClass, 0);
    EXPECT_EQ(out.logits[static_cast<u32>(out.resultClass)],
              *std::max_element(out.logits.begin(), out.logits.end()));
}

TEST(PipelineRound, SenseStageChargesSenseOps)
{
    arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                     std::make_unique<arch::ContinuousPower>());
    const auto net_spec = testutil::tinyNet();
    dnn::DeviceNetwork net(dev, net_spec);
    const auto &spec = get("wildlife");
    const auto out =
        runRound(net, kernels::Impl::Sonic, testutil::tinyInput(), spec,
                 kSeed, 0);
    ASSERT_TRUE(out.completed);
    // One SenseSample per input element, one full radio attempt.
    EXPECT_EQ(dev.stats().opCount(arch::Op::SenseSample), 64u);
    EXPECT_EQ(dev.stats().opCount(arch::Op::RadioWake), 1u);
    EXPECT_EQ(dev.stats().opCount(arch::Op::RadioTxByte),
              spec.radio.payloadBytes);
    EXPECT_EQ(dev.stats().opCount(arch::Op::RadioRxAck), 1u);
}

TEST(PipelineRound, DeadLinkGivesUpAfterMaxAttempts)
{
    PipelineSpec spec;
    spec.name = "dead-link";
    spec.radio.enabled = true;
    spec.radio.payloadBytes = 8;
    spec.radio.maxAttempts = 2;
    spec.radio.ackLossProbability = 1.0;
    spec.radio.backoffSeconds = 0.5;
    spec.radio.backoffMultiplier = 2.0;

    const auto out = runTinyRound(
        spec, kernels::Impl::Sonic,
        std::make_unique<arch::ContinuousPower>());
    ASSERT_TRUE(out.completed);
    EXPECT_FALSE(out.delivered);
    EXPECT_TRUE(out.txGaveUp);
    EXPECT_EQ(out.txAttempts, 2u);
    EXPECT_EQ(out.txFailedAttempts, 2u);
    // Exponential backoff: 0.5 + 1.0.
    EXPECT_DOUBLE_EQ(out.backoffSeconds, 1.5);
    // The result itself still committed (it can be read locally).
    EXPECT_GE(out.resultClass, 0);
}

// --- Delivery idempotence under failures ----------------------------

/**
 * The tentpole property: a power failure at *every* operation index of
 * a wildlife round must neither lose nor duplicate the delivery, and
 * must leave logits and TX accounting bit-identical to the continuous
 * round. This sweeps the new atomicity surface exhaustively — sense
 * chunk boundaries, the result-commit write, every byte of the radio
 * attempt, and the ACK-commit write.
 */
TEST(PipelineDelivery, SurvivesFailureAtEveryOperation)
{
    const auto &spec = get("wildlife");
    const auto golden = runTinyRound(
        spec, kernels::Impl::Sonic,
        std::make_unique<arch::ContinuousPower>());
    ASSERT_TRUE(golden.completed);
    ASSERT_TRUE(golden.delivered);

    const u64 total = countRoundOps(spec, kernels::Impl::Sonic);
    ASSERT_GT(total, 1000u);
    for (u64 n = 0; n < total + 3; ++n) {
        const auto out = runTinyRound(
            spec, kernels::Impl::Sonic, testutil::failOnceAt(n));
        ASSERT_TRUE(out.completed) << "failure at op " << n;
        ASSERT_TRUE(out.delivered) << "delivery lost, failure at op "
                                   << n;
        ASSERT_EQ(out.txAttempts, golden.txAttempts)
            << "attempt accounting diverged, failure at op " << n;
        ASSERT_EQ(out.txFailedAttempts, golden.txFailedAttempts);
        ASSERT_EQ(out.logits, golden.logits)
            << "logit divergence, failure at op " << n;
        ASSERT_EQ(out.resultClass, golden.resultClass);
    }
}

TEST(PipelineDelivery, LossyLinkAccountingMatchesContinuous)
{
    // ACK loss is a pure function of (seed, round, attempt), so an
    // interrupted attempt re-executes with the identical outcome:
    // intermittent delivery accounting equals the continuous run's,
    // round by round, including rounds that give up.
    const auto &spec = get("lossy-uplink");
    const u64 total = countRoundOps(spec, kernels::Impl::Tile8);
    for (u64 round = 0; round < 6; ++round) {
        const auto golden = runTinyRound(
            spec, kernels::Impl::Tile8,
            std::make_unique<arch::ContinuousPower>(), round);
        ASSERT_TRUE(golden.completed);
        for (u64 n = total / 3; n < total + 2; n += total / 3) {
            const auto out = runTinyRound(
                spec, kernels::Impl::Tile8, testutil::failOnceAt(n), round);
            ASSERT_TRUE(out.completed) << "round " << round;
            ASSERT_EQ(out.delivered, golden.delivered)
                << "round " << round << " failure at op " << n;
            ASSERT_EQ(out.txAttempts, golden.txAttempts);
            ASSERT_EQ(out.txFailedAttempts, golden.txFailedAttempts);
            ASSERT_EQ(out.txGaveUp, golden.txGaveUp);
            ASSERT_DOUBLE_EQ(out.backoffSeconds, golden.backoffSeconds);
        }
    }
}

TEST(PipelineDelivery, LossyLinkEventuallyDropsAndRetries)
{
    // Sanity that the lossy built-in actually exercises both regimes
    // across rounds: some rounds retry, and accounting is consistent.
    const auto &spec = get("lossy-uplink");
    u32 retried = 0, delivered = 0;
    for (u64 round = 0; round < 24; ++round) {
        const auto out = runTinyRound(
            spec, kernels::Impl::Sonic,
            std::make_unique<arch::ContinuousPower>(), round);
        ASSERT_TRUE(out.completed);
        retried += out.txFailedAttempts > 0;
        delivered += out.delivered;
        if (out.delivered)
            EXPECT_EQ(out.txAttempts, out.txFailedAttempts + 1);
        else
            EXPECT_TRUE(out.txGaveUp);
    }
    EXPECT_GT(retried, 0u);
    EXPECT_GT(delivered, 12u); // 25% loss: most rounds deliver
}

// --- Oracle integration ---------------------------------------------

TEST(PipelineOracle, MixedBatteryGreenForEveryPipeline)
{
    for (const auto &name : names()) {
        for (const auto impl :
             {kernels::Impl::Sonic, kernels::Impl::Tile8}) {
            verify::LocalWorkload workload(testutil::tinyNet(),
                                           testutil::tinyInput(), impl);
            workload.round = get(name);
            const auto report = verify::verifyLocal(workload, 12, 0xf1ee7);
            EXPECT_TRUE(report.ok())
                << name << " x " << kernels::implName(impl) << ": "
                << (report.divergences.empty()
                        ? ""
                        : report.divergences.front().reason);
        }
    }
}

TEST(PipelineOracle, TxBoundaryTraceSeesEveryBoundary)
{
    verify::LocalWorkload workload(testutil::tinyNet(),
                                   testutil::tinyInput(),
                                   kernels::Impl::Sonic);
    workload.round = get("wildlife");
    u64 total = 0;
    const auto boundaries = verify::recordCommitTrace(workload, &total);
    // Lossless wildlife: one result commit + one ACK commit.
    ASSERT_EQ(boundaries.size(), 2u);
    EXPECT_LT(boundaries[0], boundaries[1]);
    EXPECT_LT(boundaries[1], total);
}

} // namespace
} // namespace sonic::pipeline
