/**
 * @file
 * Equivalence suite for the energy-lease fast path (the devirtualized
 * Device::consume). A Device built with DeviceConfig::perOpPowerDraw
 * crosses the virtual PowerSupply::draw boundary for every consume —
 * the reference semantics — while the default leases energy in bulk.
 * The two modes must be observationally indistinguishable: identical
 * outputs, identical Stats totals and cycle counts, identical reboot
 * counts, and the power failure landing on the identical operation,
 * across every supply kind.
 */

#include <gtest/gtest.h>

#include "arch/device.hh"
#include "arch/memory.hh"
#include "dnn/device_net.hh"
#include "kernels/runner.hh"
#include "tests/test_helpers.hh"

namespace sonic::arch
{
namespace
{

Device
makeDevice(std::unique_ptr<PowerSupply> psu, bool per_op_draw)
{
    DeviceConfig config;
    config.perOpPowerDraw = per_op_draw;
    return Device(EnergyProfile::msp430fr5994(), std::move(psu), config);
}

/**
 * A deterministic mixed charge script: single ops, multi-count ops and
 * bulk span charges, the shapes the kernels emit. Returns the indices
 * of script steps whose charge failed, rebooting after each failure
 * exactly as the scheduler would.
 */
struct ScriptResult
{
    std::vector<u32> failureSteps;
    u64 cycles = 0;
    f64 nanojoules = 0.0;
    u64 reboots = 0;
};

ScriptResult
runScript(Device &dev, u32 steps)
{
    ScriptResult out;
    for (u32 i = 0; i < steps; ++i) {
        const auto op = static_cast<Op>(i % kNumOps);
        const u64 count = 1 + (i % 5 == 0 ? i % 37 : 0); // mixed bulk
        try {
            dev.consume(op, count);
        } catch (const PowerFailure &) {
            out.failureSteps.push_back(i);
            dev.reboot();
        }
    }
    out.cycles = dev.cycles();
    out.nanojoules = dev.stats().totalNanojoules();
    out.reboots = dev.rebootCount();
    return out;
}

template <typename MakePsu>
void
expectScriptEquivalence(MakePsu make_psu, u32 steps)
{
    auto leased = makeDevice(make_psu(), /*per_op_draw=*/false);
    auto reference = makeDevice(make_psu(), /*per_op_draw=*/true);
    const auto a = runScript(leased, steps);
    const auto b = runScript(reference, steps);
    ASSERT_EQ(a.failureSteps, b.failureSteps);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.nanojoules, b.nanojoules); // bit-exact: same += sequence
    EXPECT_EQ(a.reboots, b.reboots);
}

TEST(LeaseScript, ContinuousNeverFails)
{
    expectScriptEquivalence(
        [] { return std::make_unique<ContinuousPower>(); }, 4096);
}

TEST(LeaseScript, FailOnceEveryInjectionPointMatches)
{
    // Exhaustive over the injection point: the failing consume call
    // must be the identical one in both modes.
    for (u64 fail_after = 0; fail_after < 300; ++fail_after) {
        auto make = [fail_after] {
            return testutil::failOnceAt(fail_after);
        };
        expectScriptEquivalence(make, 512);
    }
}

TEST(LeaseScript, FailEveryPeriodMatches)
{
    // Period 1 fails every draw; it must too.
    for (u64 period : {u64{1}, u64{2}, u64{3}, u64{7}, u64{61}, u64{127}}) {
        auto make = [period] {
            return testutil::failEvery(period);
        };
        expectScriptEquivalence(make, 2048);
    }
    // A repeating multi-entry schedule: draws 0, 3, 4, 7, 10, 11, ...
    const auto repeating = [] {
        return std::make_unique<SchedulePower>(std::vector<u64>{0, 3, 4}, 7);
    };
    expectScriptEquivalence(repeating, 2048);
}

TEST(LeaseScript, CapacitorBrownOutLandsOnSameOp)
{
    // Small capacitors so the script brown-outs many times; the level
    // countdown must follow the identical floating-point sequence.
    for (const f64 farads : {2e-6, 5e-6, 20e-6}) {
        auto make = [farads] {
            return std::make_unique<testutil::CapacitorPower>(farads, 0.5e-3);
        };
        auto leased = makeDevice(make(), false);
        auto reference = makeDevice(make(), true);
        const auto a = runScript(leased, 4096);
        const auto b = runScript(reference, 4096);
        ASSERT_EQ(a.failureSteps, b.failureSteps) << farads;
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.nanojoules, b.nanojoules);
        EXPECT_EQ(a.reboots, b.reboots);
        // Supply-side state is exact too: the remaining charge and the
        // harvest account settle to the per-op-draw values.
        const auto &cap_a =
            static_cast<const testutil::CapacitorPower &>(leased.power());
        const auto &cap_b =
            static_cast<const testutil::CapacitorPower &>(reference.power());
        EXPECT_EQ(cap_a.levelNj(), cap_b.levelNj()) << farads;
        EXPECT_EQ(cap_a.harvestedNj(), cap_b.harvestedNj()) << farads;
    }
}

} // namespace
} // namespace sonic::arch

namespace sonic::kernels
{
namespace
{

using arch::Device;

struct KernelProbe
{
    bool completed = false;
    u64 reboots = 0;
    std::vector<i16> logits;
    u64 cycles = 0;
    f64 nanojoules = 0.0;
    f64 deadSeconds = 0.0;
    u64 opInstances = 0;
};

KernelProbe
runTiny(Impl impl, std::unique_ptr<arch::PowerSupply> psu,
        bool per_op_draw)
{
    arch::DeviceConfig config;
    config.perOpPowerDraw = per_op_draw;
    arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                     std::move(psu), config);
    const auto spec = testutil::tinyNet();
    dnn::DeviceNetwork net(dev, spec);
    net.loadInput(testutil::tinyInput());
    const auto res = runInference(net, impl);
    KernelProbe probe;
    probe.completed = res.completed;
    probe.reboots = res.reboots;
    probe.logits = res.logits;
    probe.cycles = dev.cycles();
    probe.nanojoules = dev.stats().totalNanojoules();
    probe.deadSeconds = dev.deadSeconds();
    for (u32 o = 0; o < arch::kNumOps; ++o)
        probe.opInstances +=
            dev.stats().opCount(static_cast<arch::Op>(o));
    return probe;
}

void
expectProbesEqual(const KernelProbe &a, const KernelProbe &b,
                  u64 context)
{
    ASSERT_EQ(a.completed, b.completed) << context;
    ASSERT_EQ(a.logits, b.logits) << context;
    ASSERT_EQ(a.reboots, b.reboots) << context;
    ASSERT_EQ(a.cycles, b.cycles) << context;
    ASSERT_EQ(a.nanojoules, b.nanojoules) << context;
    ASSERT_EQ(a.opInstances, b.opInstances) << context;
}

TEST(LeaseKernels, ContinuousAllImplsIdentical)
{
    for (auto impl : kAllImpls) {
        const auto a = runTiny(
            impl, std::make_unique<arch::ContinuousPower>(), false);
        const auto b = runTiny(
            impl, std::make_unique<arch::ContinuousPower>(), true);
        expectProbesEqual(a, b, static_cast<u64>(impl));
        ASSERT_TRUE(a.completed);
    }
}

TEST(LeaseKernels, SonicExhaustiveFailOnceSweepIdentical)
{
    // The tentpole acceptance test: a power failure injected at every
    // operation index yields, in both power-accounting modes, the same
    // outputs, the same op/energy totals, the same reboot count — so
    // the brown-out landed on the same operation and recovery did the
    // same work.
    const auto golden = runTiny(
        Impl::Sonic, std::make_unique<arch::ContinuousPower>(), true);
    ASSERT_TRUE(golden.completed);
    // Op instances bound the draw-call count, so sweeping them covers
    // every possible failing draw.
    for (u64 n = 0; n < golden.opInstances + 3; ++n) {
        const auto a = runTiny(Impl::Sonic, testutil::failOnceAt(n), false);
        const auto b = runTiny(Impl::Sonic, testutil::failOnceAt(n), true);
        expectProbesEqual(a, b, n);
        ASSERT_TRUE(a.completed) << n;
        ASSERT_EQ(a.logits, golden.logits) << n;
    }
}

TEST(LeaseKernels, SampledFailOnceSweepsIdenticalAcrossImpls)
{
    for (auto impl : {Impl::Tile8, Impl::Tails, Impl::Base}) {
        const auto golden = runTiny(
            impl, std::make_unique<arch::ContinuousPower>(), true);
        for (u64 n = 0; n < golden.opInstances + 3; n += 13) {
            const auto a = runTiny(impl, testutil::failOnceAt(n), false);
            const auto b = runTiny(impl, testutil::failOnceAt(n), true);
            expectProbesEqual(a, b, n);
        }
    }
}

TEST(LeaseKernels, PeriodicFailuresIdentical)
{
    for (const u64 period : {u64{61}, u64{127}, u64{521}, u64{2053}}) {
        const auto a =
            runTiny(Impl::Sonic, testutil::failEvery(period), false);
        const auto b =
            runTiny(Impl::Sonic, testutil::failEvery(period), true);
        expectProbesEqual(a, b, period);
        ASSERT_TRUE(a.completed) << period;
        EXPECT_GT(a.reboots, 0u) << period;
    }
}

TEST(LeaseKernels, TinyBufferClampsSpansAndStillCompletes)
{
    // A ~450 nJ buffer cannot pay for a full 32-word atomic span;
    // safeSpanWords clamps the chunking so forward progress survives
    // (the regression a fixed span width would reintroduce: the seed's
    // per-element SONIC completes at 3 uF, so the span build must
    // too), and the result still matches continuous power bit-exactly
    // in both power-accounting modes.
    const auto golden = runTiny(
        Impl::Sonic, std::make_unique<arch::ContinuousPower>(), true);
    const auto a = runTiny(
        Impl::Sonic,
        std::make_unique<testutil::CapacitorPower>(3e-6, 0.5e-3), false);
    const auto b = runTiny(
        Impl::Sonic,
        std::make_unique<testutil::CapacitorPower>(3e-6, 0.5e-3), true);
    expectProbesEqual(a, b, 3);
    ASSERT_TRUE(a.completed);
    EXPECT_GT(a.reboots, 100u);
    EXPECT_EQ(a.logits, golden.logits);

    // Below the seed's own completion boundary (2 uF DNFs in the
    // per-element build as well) the two modes must still agree.
    const auto dnf_a = runTiny(
        Impl::Sonic,
        std::make_unique<testutil::CapacitorPower>(2e-6, 0.5e-3), false);
    const auto dnf_b = runTiny(
        Impl::Sonic,
        std::make_unique<testutil::CapacitorPower>(2e-6, 0.5e-3), true);
    expectProbesEqual(dnf_a, dnf_b, 2);
    EXPECT_FALSE(dnf_a.completed);
}

TEST(LeaseKernels, CapacitorRunsIdenticalIncludingDeadTime)
{
    for (const f64 farads : {30e-6, 100e-6}) {
        const auto a = runTiny(
            Impl::Sonic,
            std::make_unique<testutil::CapacitorPower>(farads, 0.5e-3),
            false);
        const auto b = runTiny(
            Impl::Sonic,
            std::make_unique<testutil::CapacitorPower>(farads, 0.5e-3),
            true);
        expectProbesEqual(a, b, static_cast<u64>(farads * 1e6));
        ASSERT_TRUE(a.completed);
        EXPECT_GT(a.reboots, 0u);
        EXPECT_EQ(a.deadSeconds, b.deadSeconds);
    }
}

} // namespace
} // namespace sonic::kernels
