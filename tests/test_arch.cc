/**
 * @file
 * Unit tests for the device substrate: energy profile, power supplies,
 * the device's consume/fail path, stats attribution, the FRAM memory
 * handles and their capacity check, and the NVM digest's shortcuts
 * against a byte-wise FNV-1a walk (including devices on eight threads
 * sharing one read-only region).
 */

#include <cstdint>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "arch/device.hh"
#include "arch/memory.hh"
#include "tests/test_helpers.hh"
#include "util/rng.hh"

namespace sonic::arch
{
namespace
{

Device
makeContinuousDevice()
{
    return Device(EnergyProfile::msp430fr5994(),
                  std::make_unique<ContinuousPower>());
}

TEST(EnergyProfile, AllOpsHaveCosts)
{
    const auto p = EnergyProfile::msp430fr5994();
    for (u32 o = 0; o < kNumOps; ++o) {
        const auto op = static_cast<Op>(o);
        EXPECT_GT(p.cycles(op), 0u) << opName(op);
        EXPECT_GT(p.nanojoules(op), 0.0) << opName(op);
    }
}

TEST(EnergyProfile, RelativeCostsSane)
{
    const auto p = EnergyProfile::msp430fr5994();
    // Peripheral multiply far slower than an add.
    EXPECT_GE(p.cycles(Op::AluMul), 8u);
    // FRAM writes cost more energy than reads, reads more than SRAM.
    EXPECT_GT(p.nanojoules(Op::FramStore), p.nanojoules(Op::FramLoad));
    EXPECT_GT(p.nanojoules(Op::FramLoad), p.nanojoules(Op::SramLoad));
    // Alpaca transition is much heavier than SONIC's.
    EXPECT_GT(p.nanojoules(Op::AlpacaTransition),
              10 * p.nanojoules(Op::TaskTransition));
    // LEA MAC is cheaper than a software fixed multiply.
    EXPECT_LT(p.nanojoules(Op::LeaMac), p.nanojoules(Op::FixedMul));
}

TEST(EnergyProfile, AblationsInflateTheRightOps)
{
    const auto std_p = EnergyProfile::msp430fr5994();
    const auto no_lea = EnergyProfile::msp430fr5994NoLea();
    const auto no_dma = EnergyProfile::msp430fr5994NoDma();
    EXPECT_GT(no_lea.nanojoules(Op::LeaMac),
              std_p.nanojoules(Op::LeaMac));
    EXPECT_GT(no_dma.nanojoules(Op::DmaWord),
              std_p.nanojoules(Op::DmaWord));
    EXPECT_EQ(no_lea.nanojoules(Op::FramLoad),
              std_p.nanojoules(Op::FramLoad));
}

TEST(CapacitorPower, CapacityFollowsCapacitance)
{
    testutil::CapacitorPower small(100e-6, 0.5e-3);
    testutil::CapacitorPower big(1e-3, 0.5e-3);
    EXPECT_NEAR(big.capacityNj() / small.capacityNj(), 10.0, 1e-6);
}

TEST(CapacitorPower, DrainsAndFails)
{
    testutil::CapacitorPower cap(100e-6, 0.5e-3);
    const f64 budget = cap.capacityNj();
    EXPECT_TRUE(cap.draw(budget * 0.6));
    EXPECT_FALSE(cap.draw(budget * 0.6)); // exceeds remaining charge
    EXPECT_EQ(cap.levelNj(), 0.0);
}

TEST(CapacitorPower, RechargeTimeMatchesHarvestPower)
{
    testutil::CapacitorPower cap(100e-6, 0.5e-3);
    const f64 budget = cap.capacityNj();
    EXPECT_FALSE(cap.draw(budget * 2)); // kill it
    const f64 dead = cap.recharge();
    EXPECT_NEAR(dead, budget / (0.5e-3 * 1e9), 1e-9);
    EXPECT_EQ(cap.levelNj(), cap.capacityNj());
}

TEST(CapacitorPower, HarvestAccounting)
{
    testutil::CapacitorPower cap(100e-6, 0.5e-3);
    const f64 initial = cap.harvestedNj();
    EXPECT_FALSE(cap.draw(cap.capacityNj() * 2));
    cap.recharge();
    EXPECT_GT(cap.harvestedNj(), initial);
}

TEST(SchedulePower, SingleIndexFailsExactlyOnce)
{
    SchedulePower psu({3});
    EXPECT_TRUE(psu.draw(1));
    EXPECT_TRUE(psu.draw(1));
    EXPECT_TRUE(psu.draw(1));
    EXPECT_FALSE(psu.draw(1)); // the 4th draw (index 3) fails
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(psu.draw(1));
    EXPECT_GT(psu.firedCount(), 0u);
}

TEST(SchedulePower, PeriodicFailure)
{
    SchedulePower psu({3}, 4);
    int ok = 0;
    for (int i = 0; i < 12; ++i)
        ok += psu.draw(1);
    EXPECT_EQ(ok, 9); // 3 failures in 12 draws
}

TEST(SchedulePower, PeriodRepeatsEveryEntry)
{
    // Draw i fails iff i % 5 is in {1, 3}; the cursor wraps each
    // period, and firedCount() keeps counting across the wraps.
    SchedulePower psu({3, 1}, 5);
    std::vector<u64> failed;
    for (u64 i = 0; i < 12; ++i)
        if (!psu.draw(1.0))
            failed.push_back(i);
    EXPECT_EQ(failed, (std::vector<u64>{1, 3, 6, 8, 11}));
    EXPECT_EQ(psu.firedCount(), 5u);
}

TEST(Device, ConsumeAccumulatesCyclesAndEnergy)
{
    auto dev = makeContinuousDevice();
    dev.consume(Op::AluMul, 10);
    const auto &p = dev.profile();
    EXPECT_EQ(dev.cycles(), 10 * p.cycles(Op::AluMul));
    EXPECT_NEAR(dev.stats().totalNanojoules(),
                10 * p.nanojoules(Op::AluMul), 1e-9);
}

TEST(Device, LiveSecondsUsesClock)
{
    auto dev = makeContinuousDevice();
    dev.consume(Op::Nop, 16'000'000); // 16M cycles at 16 MHz = 1 s
    EXPECT_NEAR(dev.liveSeconds(), 1.0, 1e-9);
}

TEST(Device, ThrowsOnExhaustedBuffer)
{
    Device dev(EnergyProfile::msp430fr5994(), testutil::failOnceAt(2));
    dev.consume(Op::Nop);
    dev.consume(Op::Nop);
    EXPECT_THROW(dev.consume(Op::Nop), PowerFailure);
    dev.reboot();
    dev.consume(Op::Nop); // recovered
    EXPECT_EQ(dev.rebootCount(), 1u);
}

TEST(Device, StatsAttributionByLayerAndPart)
{
    auto dev = makeContinuousDevice();
    const u16 conv = dev.registerLayer("conv");
    {
        ScopedLayer al(dev, conv);
        ScopedPart kp(dev, Part::Kernel);
        dev.consume(Op::FixedMul, 5);
    }
    dev.consume(Op::Branch, 3); // layer "other", control
    const auto &stats = dev.stats();
    EXPECT_EQ(stats.bucket(conv, Part::Kernel)
                  .count[static_cast<u32>(Op::FixedMul)],
              5u);
    EXPECT_EQ(stats.bucket(0, Part::Control)
                  .count[static_cast<u32>(Op::Branch)],
              3u);
    EXPECT_EQ(stats.layerOpCount(conv, Op::Branch), 0u);
}

TEST(Device, ScopedAttributionRestoresOnUnwind)
{
    Device dev(EnergyProfile::msp430fr5994(), testutil::failOnceAt(0));
    const u16 conv = dev.registerLayer("conv");
    try {
        ScopedLayer al(dev, conv);
        ScopedPart kp(dev, Part::Kernel);
        dev.consume(Op::Nop);
        FAIL() << "should have thrown";
    } catch (const PowerFailure &) {
    }
    EXPECT_EQ(dev.currentLayer(), 0);
    EXPECT_EQ(dev.currentPart(), Part::Control);
}

TEST(Memory, NvArrayPersistsAcrossReboot)
{
    auto dev = makeContinuousDevice();
    NvArray<i16> arr(dev, 8, "a");
    arr.write(3, 1234);
    dev.reboot();
    EXPECT_EQ(arr.read(3), 1234);
}

TEST(Memory, AccessesAreCharged)
{
    auto dev = makeContinuousDevice();
    NvArray<i16> arr(dev, 4, "a");
    const u64 before = dev.cycles();
    arr.write(0, 1);
    (void)arr.read(0);
    const auto &p = dev.profile();
    EXPECT_EQ(dev.cycles() - before,
              p.cycles(Op::FramStore) + p.cycles(Op::FramLoad));
}

TEST(Memory, PokePeekUncharged)
{
    auto dev = makeContinuousDevice();
    NvArray<i16> arr(dev, 4, "a");
    arr.poke(1, 9);
    EXPECT_EQ(arr.peek(1), 9);
    EXPECT_EQ(dev.cycles(), 0u);
}

TEST(Memory, WideTypesChargePerWord)
{
    auto dev = makeContinuousDevice();
    NvVar<i32> v(dev, "v");
    const u64 before = dev.cycles();
    v.write(1);
    EXPECT_EQ(dev.cycles() - before,
              2 * dev.profile().cycles(Op::FramStore));
}

TEST(Memory, FramCapacityTracked)
{
    auto dev = makeContinuousDevice();
    EXPECT_EQ(dev.framBytesUsed(), 0u);
    {
        NvArray<i16> arr(dev, 100, "a");
        EXPECT_EQ(dev.framBytesUsed(), 200u);
    }
    EXPECT_EQ(dev.framBytesUsed(), 0u);

    // The whole FRAM fits; one element more is fatal, naming the region.
    {
        NvArray<i16> all(dev, kFramCapacityBytes / 2, "all");
        EXPECT_EQ(dev.framBytesUsed(), kFramCapacityBytes);
    }
    EXPECT_EXIT(
        {
            auto big = makeContinuousDevice();
            NvArray<i16> over(big, kFramCapacityBytes / 2 + 1, "over");
        },
        ::testing::ExitedWithCode(1),
        "FRAM exhausted allocating 262146B for 'over': 262146B used "
        "of 262144B");
}

TEST(Memory, PowerFailureBeforeWriteLands)
{
    Device dev(EnergyProfile::msp430fr5994(), testutil::failOnceAt(0));
    NvArray<i16> arr(dev, 4, "a");
    arr.poke(0, 42);
    EXPECT_THROW(arr.write(0, 99), PowerFailure);
    // The store's energy draw failed, so the old value survives —
    // word-granularity write atomicity.
    EXPECT_EQ(arr.peek(0), 42);
}

TEST(Memory, BulkSpansMoveDataAndChargeLikeSingles)
{
    auto bulk_dev = makeContinuousDevice();
    auto single_dev = makeContinuousDevice();
    NvArray<i16> bulk(bulk_dev, 64, "bulk");
    NvArray<i16> single(single_dev, 64, "single");

    i16 buf[16];
    for (u32 i = 0; i < 16; ++i)
        buf[i] = static_cast<i16>(100 + i);
    bulk.writeRange(8, 16, buf);
    for (u32 i = 0; i < 16; ++i)
        single.write(8 + i, static_cast<i16>(100 + i));
    for (u32 i = 0; i < 16; ++i)
        EXPECT_EQ(bulk.peek(8 + i), static_cast<i16>(100 + i));

    i16 out[16] = {};
    bulk.readRange(8, 16, out);
    for (u32 i = 0; i < 16; ++i) {
        EXPECT_EQ(out[i], 100 + i);
        (void)single.read(8 + i);
    }

    bulk.fillRange(0, 8, 7);
    for (u32 i = 0; i < 8; ++i) {
        single.write(i, 7);
        EXPECT_EQ(bulk.peek(i), 7);
    }

    bulk.accumRange(0, 8, [](i16 v, u64 k) {
        return static_cast<i16>(v + static_cast<i16>(k));
    });
    for (u32 i = 0; i < 8; ++i) {
        const i16 v = single.read(i);
        single.write(i, static_cast<i16>(v + static_cast<i16>(i)));
        EXPECT_EQ(bulk.peek(i), 7 + static_cast<i16>(i));
    }

    // Identical cycle and energy totals to the per-element accesses.
    EXPECT_EQ(bulk_dev.cycles(), single_dev.cycles());
    EXPECT_EQ(bulk_dev.stats().totalNanojoules(),
              single_dev.stats().totalNanojoules());
}

TEST(Memory, ReadStrideGathersAndCharges)
{
    auto dev = makeContinuousDevice();
    NvArray<i16> arr(dev, 32, "a");
    for (u32 i = 0; i < 32; ++i)
        arr.poke(i, static_cast<i16>(i));
    i16 out[4];
    const u64 before = dev.cycles();
    arr.readStride(1, 8, 4, out);
    EXPECT_EQ(dev.cycles() - before,
              4 * dev.profile().cycles(Op::FramLoad));
    for (u32 k = 0; k < 4; ++k)
        EXPECT_EQ(out[k], static_cast<i16>(1 + 8 * k));
}

TEST(Memory, BulkSpanIsAtomicUnderPowerFailure)
{
    Device dev(EnergyProfile::msp430fr5994(), testutil::failOnceAt(0));
    NvArray<i16> arr(dev, 16, "a");
    for (u32 i = 0; i < 16; ++i)
        arr.poke(i, 42);
    i16 buf[16] = {};
    EXPECT_THROW(arr.writeRange(0, 16, buf), PowerFailure);
    // All-or-nothing: no element of the span landed.
    for (u32 i = 0; i < 16; ++i)
        EXPECT_EQ(arr.peek(i), 42);
    dev.reboot();
    arr.writeRange(0, 16, buf); // recovered
    EXPECT_EQ(arr.peek(15), 0);
}

TEST(Memory, AccumRangeAtomicUnderPowerFailure)
{
    // accumRange charges loads then stores; fail the store charge and
    // the span must be untouched.
    Device dev(EnergyProfile::msp430fr5994(), testutil::failOnceAt(1));
    NvArray<i16> arr(dev, 8, "a");
    for (u32 i = 0; i < 8; ++i)
        arr.poke(i, -5);
    EXPECT_THROW(
        arr.accumRange(0, 8, [](i16 v, u64) -> i16 {
            return v > 0 ? v : 0;
        }),
        PowerFailure);
    for (u32 i = 0; i < 8; ++i)
        EXPECT_EQ(arr.peek(i), -5);
}

TEST(Memory, WriteCoalescedChargesNStoresLandsLastValue)
{
    auto dev = makeContinuousDevice();
    NvVar<i16> v(dev, "v", 0);
    const u64 before = dev.cycles();
    v.writeCoalesced(9, 5);
    EXPECT_EQ(dev.cycles() - before,
              5 * dev.profile().cycles(Op::FramStore));
    EXPECT_EQ(v.peek(), 9);

    Device failing(EnergyProfile::msp430fr5994(), testutil::failOnceAt(0));
    NvVar<i16> w(failing, "w", 3);
    EXPECT_THROW(w.writeCoalesced(9, 5), PowerFailure);
    EXPECT_EQ(w.peek(), 3); // atomic as a unit
}

TEST(Device, FailingBulkChargeCountsOnePendingReboot)
{
    // A PowerFailure thrown from a bulk (count > 1) charge is one
    // failure, not one per word, and reboot() models one power cycle.
    struct FailureCounter : TraceProbe
    {
        void onPowerFailure(const Device &) override { ++failures; }
        u64 failures = 0;
    };
    FailureCounter probe;
    Device dev(EnergyProfile::msp430fr5994(), testutil::failOnceAt(0));
    dev.setProbe(&probe);
    NvArray<i16> arr(dev, 64, "a");
    i16 buf[64] = {};
    EXPECT_THROW(arr.writeRange(0, 64, buf), PowerFailure);
    EXPECT_EQ(probe.failures, 1u);
    dev.reboot();
    EXPECT_EQ(dev.rebootCount(), 1u);
}

TEST(Device, RebootConsumesWholeFailureBacklog)
{
    // Two failures charged before the scheduler models the power cycle
    // still count as a single reboot.
    Device dev(EnergyProfile::msp430fr5994(), testutil::failEvery(1));
    EXPECT_THROW(dev.consume(Op::Nop), PowerFailure);
    EXPECT_THROW(dev.consume(Op::Nop), PowerFailure);
    dev.reboot();
    EXPECT_EQ(dev.rebootCount(), 1u);
}

TEST(SchedulePower, FiresExactlyAtScheduledIndices)
{
    // Indices are draw coordinates; duplicates and ordering are
    // normalized at construction.
    SchedulePower psu({7, 3, 3, 11});
    std::vector<u64> failed;
    for (u64 i = 0; i < 20; ++i)
        if (!psu.draw(1.0))
            failed.push_back(i);
    EXPECT_EQ(failed, (std::vector<u64>{3, 7, 11}));
    EXPECT_EQ(psu.firedCount(), 3u);
    EXPECT_EQ(psu.drawsSoFar(), 20u);
}

TEST(SchedulePower, IndicesBeyondTheRunNeverFire)
{
    SchedulePower psu({100});
    for (u64 i = 0; i < 50; ++i)
        EXPECT_TRUE(psu.draw(1.0));
    EXPECT_EQ(psu.firedCount(), 0u);
}

TEST(SchedulePower, LeaseModeFailsOnTheSameDrawAsPerOp)
{
    // The lease protocol must land every scheduled brown-out on the
    // bit-identical consume call the per-draw path fails on.
    const std::vector<u64> schedule = {0, 1, 5, 6, 7, 40, 41, 90};
    for (const bool per_op : {false, true}) {
        DeviceConfig config;
        config.perOpPowerDraw = per_op;
        Device dev(EnergyProfile::msp430fr5994(),
                   std::make_unique<SchedulePower>(schedule), config);
        std::vector<u64> failed_steps;
        for (u64 i = 0; i < 120; ++i) {
            try {
                dev.consume(Op::FixedMul, 1 + i % 3);
            } catch (const PowerFailure &) {
                failed_steps.push_back(i);
                dev.reboot();
            }
        }
        EXPECT_EQ(failed_steps, schedule) << "per_op=" << per_op;
    }
}

TEST(Memory, EmptySpansChargeOneDrawUnitAndMoveNothing)
{
    // An n == 0 span is one consume call of zero instances: no
    // cycles, no energy, no data movement — but still one draw unit
    // (the accounting boundary crossing), exactly like consume(op, 0).
    auto dev = makeContinuousDevice();
    NvArray<i16> arr(dev, 8, "a");
    for (u32 i = 0; i < 8; ++i)
        arr.poke(i, 5);
    i16 buf[4] = {99, 99, 99, 99};
    arr.readRange(3, 0, buf);
    arr.writeRange(3, 0, buf);
    arr.fillRange(3, 0, 7);
    arr.readStride(0, 2, 0, buf);
    arr.accumRange(0, 0, [](i16, u64) -> i16 { return -1; });
    EXPECT_EQ(dev.cycles(), 0u);
    EXPECT_EQ(dev.stats().totalNanojoules(), 0.0);
    EXPECT_EQ(buf[0], 99);
    for (u32 i = 0; i < 8; ++i)
        EXPECT_EQ(arr.peek(i), 5);

    // The draw-unit accounting: a supply that fails on draw index 6
    // sees each empty span as one draw.
    Device counting(EnergyProfile::msp430fr5994(),
                    std::make_unique<SchedulePower>(
                        std::vector<u64>{6}));
    NvArray<i16> tiny(counting, 4, "t");
    for (u32 i = 0; i < 6; ++i)
        tiny.readRange(0, 0, buf); // six empty spans = draws 0..5
    EXPECT_THROW(tiny.readRange(0, 0, buf), PowerFailure);
}

TEST(Memory, SpanStraddlingLeaseExhaustionMatchesPerOpMode)
{
    // A span whose charge arrives with the lease partly spent crosses
    // back into the slow path; totals and the failing step must match
    // the per-op reference exactly, at every injection point.
    auto script = [](Device &dev) {
        NvArray<i16> arr(dev, 256, "a");
        i16 buf[64];
        std::vector<u32> failures;
        for (u32 step = 0; step < 64; ++step) {
            const u32 n = 1 + step % 64;
            try {
                if (step % 3 == 0) {
                    arr.fillRange(0, n, static_cast<i16>(step));
                } else if (step % 3 == 1) {
                    arr.readRange(64, n, buf);
                } else {
                    arr.accumRange(128, n, [](i16 v, u64 k) {
                        return static_cast<i16>(v + k);
                    });
                }
            } catch (const PowerFailure &) {
                failures.push_back(step);
                dev.reboot();
            }
        }
        return failures;
    };
    for (u64 fail_after = 0; fail_after < 96; fail_after += 7) {
        DeviceConfig leased, per_op;
        per_op.perOpPowerDraw = true;
        Device a(EnergyProfile::msp430fr5994(),
                 testutil::failOnceAt(fail_after), leased);
        Device b(EnergyProfile::msp430fr5994(),
                 testutil::failOnceAt(fail_after), per_op);
        EXPECT_EQ(script(a), script(b)) << fail_after;
        EXPECT_EQ(a.cycles(), b.cycles()) << fail_after;
        EXPECT_EQ(a.stats().totalNanojoules(),
                  b.stats().totalNanojoules())
            << fail_after;
    }
}

TEST(NvmDigest, CapturesFramChangesAndNothingElse)
{
    auto dev = makeContinuousDevice();
    NvArray<i16> fram(dev, 8, "nv");
    NvVar<i32> var(dev, "x", 0);
    const u64 initial = dev.nvmDigest();
    EXPECT_EQ(dev.nvmDigest(), initial); // pure

    fram.poke(3, 99);
    const u64 changed = dev.nvmDigest();
    EXPECT_NE(changed, initial);
    fram.poke(3, 0);
    EXPECT_EQ(dev.nvmDigest(), initial);

    var.poke(-7);
    EXPECT_NE(dev.nvmDigest(), initial);
}

TEST(NvmDigest, RebootDigestProbeSnapshotsEveryReboot)
{
    /** The production probe, plus a check of the reboot index. */
    struct IndexedDigests : RebootDigestProbe
    {
        explicit IndexedDigests(std::vector<u64> &chain)
            : RebootDigestProbe(chain), seen(chain)
        {
        }

        void
        onReboot(const Device &d, u64 index) override
        {
            EXPECT_EQ(index, seen.size() + 1);
            RebootDigestProbe::onReboot(d, index);
        }

        const std::vector<u64> &seen;
    };
    std::vector<u64> chain;
    IndexedDigests probe(chain);
    Device dev(EnergyProfile::msp430fr5994(), testutil::failEvery(3));
    NvArray<i16> fram(dev, 4, "nv");
    dev.setProbe(&probe);
    for (u32 i = 0; i < 9; ++i) {
        try {
            fram.write(i % 4, static_cast<i16>(i));
        } catch (const PowerFailure &) {
            dev.reboot();
        }
    }
    EXPECT_EQ(chain.size(), dev.rebootCount());
    EXPECT_GT(chain.size(), 1u);
}

/** Byte-wise FNV-1a of a region as NvRegion lays it out: the size
 * word, then every element sign-extended to 64 bits. */
u64
walkRegion(u64 state, const std::vector<i16> &data)
{
    const auto fold = [&state](u64 word) {
        for (u32 i = 0; i < 8; ++i) {
            state ^= (word >> (8 * i)) & 0xffu;
            state *= 0x00000100000001b3ull;
        }
    };
    fold(data.size());
    for (const i16 v : data)
        fold(static_cast<u64>(static_cast<i64>(v)));
    return state;
}

std::vector<i16>
randomWords(Rng &rng, u64 n)
{
    std::vector<i16> out(n);
    for (auto &v : out)
        v = static_cast<i16>(rng.next());
    return out;
}

template <typename T>
void
expectElementMatchesWord(u64 state, T v)
{
    NvmDigest fast(state);
    fast.element(v);
    NvmDigest bytes(state);
    bytes.word(static_cast<u64>(static_cast<i64>(v)));
    ASSERT_EQ(fast.value(), bytes.value())
        << "state " << state << " value " << i64{v};
}

TEST(NvmDigest, ElementFoldsSignExtensionLikeTheByteWiseWord)
{
    // Exhaustive over 16-bit values (NvArray<i16>, NvVar<i16>).
    Rng rng(0xe1e);
    std::vector<u64> states(64);
    for (auto &s : states)
        s = rng.next();
    for (const u64 s : states)
        for (i32 v = std::numeric_limits<i16>::min();
             v <= std::numeric_limits<i16>::max(); ++v)
            expectElementMatchesWord(s, static_cast<i16>(v));

    // Random plus the extremes for 32-bit values (NvVar<i32>).
    const i32 edges[] = {std::numeric_limits<i32>::min(), -1, 0, 1,
                         std::numeric_limits<i32>::max()};
    for (const u64 s : states) {
        for (const i32 v : edges)
            expectElementMatchesWord(s, v);
        for (u32 k = 0; k < 4096; ++k)
            expectElementMatchesWord(s, static_cast<i32>(rng.next()));
    }
}

TEST(FixedFold, MatchesTheWalkFromEveryLowOctet)
{
    auto dev = makeContinuousDevice();
    Rng rng(0xf01d);
    std::vector<std::vector<i16>> regions;
    regions.push_back({0}); // a padded empty index list
    for (const u64 n : {0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 255, 256, 257,
                        1000, 1023, 1024, 1025, 4095, 4096})
        regions.push_back(randomWords(rng, n));
    for (const auto &data : regions) {
        const FlashRegion<i16> region("r", data);
        const NvConstArray<i16> view(dev, region);
        for (u64 low = 0; low < 256; ++low) {
            // First entry with this low octet walks, the second folds.
            for (u32 pass = 0; pass < 2; ++pass) {
                const u64 s = (rng.next() & ~u64{0xff}) | low;
                NvmDigest d(s);
                view.digestInto(d);
                ASSERT_EQ(d.value(), walkRegion(s, data))
                    << data.size() << " elements, low octet " << low
                    << ", pass " << pass;
            }
        }
    }
}

TEST(Memory, NvConstArrayReadsLikeAFlashedNvArray)
{
    Rng rng(0xc0de);
    const auto data = randomWords(rng, 40);
    const FlashRegion<i16> region("w", data);
    auto a = makeContinuousDevice();
    auto b = makeContinuousDevice();
    NvArray<i16> poked(a, data.size(), "w");
    for (u64 i = 0; i < data.size(); ++i)
        poked.poke(i, data[i]);
    const NvConstArray<i16> view(b, region);
    EXPECT_EQ(a.framBytesUsed(), b.framBytesUsed());
    EXPECT_EQ(view.name(), poked.name());
    EXPECT_EQ(a.nvmDigest(), b.nvmDigest());

    i16 range_a[8], range_b[8], stride_a[4], stride_b[4];
    EXPECT_EQ(poked.read(5), view.read(5));
    poked.readRange(3, 8, range_a);
    view.readRange(3, 8, range_b);
    poked.readStride(1, 9, 4, stride_a);
    view.readStride(1, 9, 4, stride_b);
    for (u32 i = 0; i < 8; ++i)
        EXPECT_EQ(range_a[i], range_b[i]);
    for (u32 i = 0; i < 4; ++i)
        EXPECT_EQ(stride_a[i], stride_b[i]);
    EXPECT_EQ(a.stats().opCount(Op::FramLoad),
              b.stats().opCount(Op::FramLoad));
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(view.peek(7), data[7]);
}

TEST(FixedFold, DevicesOnEightThreadsShareOneRegion)
{
    // Each thread's device puts its own FRAM array before the shared
    // region, so the threads enter the region's fold from different
    // states and fill its table concurrently.
    constexpr u32 kThreads = 8;
    constexpr u32 kRounds = 48;
    Rng rng(0x5a4ed);
    const auto data = randomWords(rng, 3000);
    const FlashRegion<i16> shared("shared", data);

    const auto prefixValue = [](u32 t, u32 k) {
        return static_cast<i16>(t * 977 + k * 131);
    };
    std::vector<std::vector<u64>> want(kThreads);
    for (u32 t = 0; t < kThreads; ++t)
        for (u32 k = 0; k < kRounds; ++k) {
            NvmDigest d;
            d.word(t + 1);
            for (u32 i = 0; i <= t; ++i)
                d.element(prefixValue(t, k));
            want[t].push_back(walkRegion(d.value(), data));
        }

    std::vector<std::vector<u64>> got(kThreads);
    std::vector<std::thread> pool;
    for (u32 t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            auto dev = makeContinuousDevice();
            NvArray<i16> prefix(dev, t + 1, "prefix");
            const NvConstArray<i16> view(dev, shared);
            for (u32 k = 0; k < kRounds; ++k) {
                for (u32 i = 0; i <= t; ++i)
                    prefix.poke(i, prefixValue(t, k));
                got[t].push_back(dev.nvmDigest());
            }
        });
    for (auto &thread : pool)
        thread.join();
    for (u32 t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[t], want[t]) << "thread " << t;
}

TEST(Device, BucketCacheSurvivesLayerRegistration)
{
    // Stats buckets are address-stable; interleaving registrations and
    // consumes must never misattribute.
    auto dev = makeContinuousDevice();
    std::vector<u16> layers;
    for (u32 i = 0; i < 64; ++i) {
        layers.push_back(dev.registerLayer("l" + std::to_string(i)));
        ScopedLayer al(dev, layers.back());
        dev.consume(Op::FixedMul, i + 1);
    }
    for (u32 i = 0; i < 64; ++i) {
        EXPECT_EQ(dev.stats().layerOpCount(layers[i], Op::FixedMul),
                  i + 1);
    }
}

} // namespace
} // namespace sonic::arch
