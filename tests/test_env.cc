/**
 * @file
 * Tests for the harvested-energy environment subsystem: the
 * piecewise-linear harvest model's integrals, environment references
 * and registry semantics, trace parsing with corruption diagnostics,
 * seeded determinism (same seed, same supply behavior), the
 * lease-protocol equivalence of every registered environment (leased
 * and per-op-draw devices must brown out on the identical operation),
 * and the bit identity of the recharge walk with its fmod-folding
 * reference.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "app/engine.hh"
#include "arch/device.hh"
#include "env/environment.hh"
#include "env/traces.hh"
#include "tests/test_helpers.hh"
#include "util/rng.hh"

namespace sonic::env
{
namespace
{

// --- HarvestModel ---------------------------------------------------

TEST(HarvestModel, ConstantRateIntegralsAreExact)
{
    const auto model = HarvestModel::constant(0.5e-3);
    EXPECT_EQ(model.watts(0.0), 0.5e-3);
    EXPECT_EQ(model.watts(123.456), 0.5e-3);
    EXPECT_NEAR(model.energyJoules(7.0, 10.0), 5e-3, 1e-12);
    // Inverse: harvesting 1 mJ at 0.5 mW takes 2 s from any phase.
    EXPECT_NEAR(model.secondsToHarvest(0.0, 1e-3), 2.0, 1e-9);
    EXPECT_NEAR(model.secondsToHarvest(941.5, 1e-3), 2.0, 1e-9);
}

TEST(HarvestModel, PiecewiseRampIntegratesAndInverts)
{
    // 0 W at t=0 ramping to 10 mW at t=10, back down by t=20 (wrap).
    const HarvestModel model({{0.0, 0.0}, {10.0, 10e-3}}, 20.0);
    EXPECT_NEAR(model.watts(5.0), 5e-3, 1e-15);
    EXPECT_NEAR(model.watts(15.0), 5e-3, 1e-15);
    // One period integrates to the triangle area: 1/2 * 20 s * 10 mW.
    EXPECT_NEAR(model.energyJoulesPerPeriod(), 0.1, 1e-12);
    EXPECT_NEAR(model.energyJoules(0.0, 20.0), 0.1, 1e-12);
    EXPECT_NEAR(model.energyJoules(0.0, 40.0), 0.2, 1e-12);
    // Inverse agrees with the forward integral.
    const f64 t = model.secondsToHarvest(2.5, 0.03);
    EXPECT_NEAR(model.energyJoules(2.5, t), 0.03, 1e-9);
}

TEST(HarvestModel, DarkSpansDelayRecharge)
{
    // Solar-like: dark until t=100, then 10 mW until the period ends.
    const HarvestModel model(
        {{0.0, 0.0}, {100.0, 0.0}, {100.5, 10e-3}}, 200.0);
    // Asking for energy at midnight waits out the darkness first.
    const f64 dead = model.secondsToHarvest(0.0, 1e-3);
    EXPECT_GT(dead, 100.0);
    EXPECT_NEAR(model.energyJoules(0.0, dead), 1e-3, 1e-9);
    // Asking during the lit span is fast.
    EXPECT_LT(model.secondsToHarvest(110.0, 1e-4), 1.0);
}

TEST(HarvestModel, InvalidModelsDie)
{
    EXPECT_DEATH(HarvestModel({{1.0, 1e-3}}, 10.0), "start at t = 0");
    EXPECT_DEATH(HarvestModel({{0.0, -1e-3}}, 10.0), "negative");
    EXPECT_DEATH(HarvestModel({{0.0, 1e-3}, {20.0, 1e-3}}, 10.0),
                 "beyond the period");
    // All-dark: could never recharge anything.
    EXPECT_DEATH(HarvestModel({{0.0, 0.0}}, 10.0), "positive energy");
}

// --- EnvRef parsing -------------------------------------------------

TEST(EnvRef, ParsesNamesAndCapacitorOverrides)
{
    EnvRef ref;
    std::string error;
    ASSERT_TRUE(parseEnvRef("solar", &ref, &error));
    EXPECT_EQ(ref.env, "solar");
    EXPECT_EQ(ref.capacitanceFarads, 0.0);
    EXPECT_EQ(ref.label(), "solar");

    ASSERT_TRUE(parseEnvRef("rf-paper@50mF", &ref, &error));
    EXPECT_EQ(ref.env, "rf-paper");
    EXPECT_NEAR(ref.capacitanceFarads, 50e-3, 1e-15);
    EXPECT_EQ(ref.label(), "rf-paper@50mF");

    ASSERT_TRUE(parseEnvRef("x@0.05F", &ref, &error));
    EXPECT_NEAR(ref.capacitanceFarads, 0.05, 1e-15);
    ASSERT_TRUE(parseEnvRef("x@220nF", &ref, &error));
    EXPECT_NEAR(ref.capacitanceFarads, 220e-9, 1e-20);

    EXPECT_FALSE(parseEnvRef("@1mF", &ref, &error));
    EXPECT_NE(error.find("empty name"), std::string::npos);
    EXPECT_FALSE(parseEnvRef("solar@", &ref, &error));
    EXPECT_FALSE(parseEnvRef("solar@12kF", &ref, &error));
    EXPECT_NE(error.find("unit"), std::string::npos);
    EXPECT_FALSE(parseEnvRef("solar@-3uF", &ref, &error));
    EXPECT_NE(error.find("positive"), std::string::npos);
    for (const char *bad : {"solar@nanuF", "solar@infF", "solar@0x10uF",
                            "solar@1e400F", "solar@1.2.3uF", "solar@1e",
                            "solar@1eF", "solar@1e99999999999F"}) {
        EXPECT_FALSE(parseEnvRef(bad, &ref, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(EnvRef, CapacitancesParseToTheirLiterals)
{
    // The unit folds into the decimal exponent before one conversion,
    // so a label is the literal it reads as (a multiply by a rounded
    // 1e-6 left 100uF, 5uF, 20uF and 50uF one ULP low).
    const std::pair<const char *, f64> cases[] = {
        {"x@100uF", 100e-6}, {"x@5uF", 5e-6},     {"x@20uF", 20e-6},
        {"x@50uF", 50e-6},   {"x@4.7uF", 4.7e-6}, {"x@0.05F", 0.05},
        {"x@100nF", 100e-9}, {"x@1mF", 1e-3},     {"x@50mF", 50e-3},
        {"x@1e-06nF", 1e-15}, {"x@2.5e3uF", 2.5e-3}};
    for (const auto &[label, farads] : cases) {
        EnvRef ref;
        std::string error;
        ASSERT_TRUE(parseEnvRef(label, &ref, &error)) << error;
        EXPECT_EQ(ref.capacitanceFarads, farads) << label;
    }
    // label() and parseEnvRef are inverses on printed values.
    for (const f64 farads : {100e-6, 5e-6, 4.7e-6, 50e-3, 1e-15, 1e7}) {
        const EnvRef ref{"rf-paper", farads};
        EnvRef parsed;
        std::string error;
        ASSERT_TRUE(parseEnvRef(ref.label(), &parsed, &error)) << error;
        EXPECT_EQ(parsed, ref) << ref.label();
    }
}

// --- Registry -------------------------------------------------------

TEST(EnvRegistry, BuiltinsAreRegistered)
{
    auto &registry = EnvRegistry::instance();
    for (const char *name :
         {"continuous", "rf-paper", "rf-bursty", "solar", "duty-cycle",
          "trace-rf-office", "trace-solar-cloudy"})
        EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_FALSE(registry.contains("no-such-env"));
    EXPECT_EQ(registry.meta("no-such-env"), nullptr);
    EXPECT_TRUE(registry.meta("continuous")->alwaysOn);
    EXPECT_FALSE(registry.meta("solar")->alwaysOn);
}

TEST(EnvRegistry, UnknownEnvironmentDies)
{
    EXPECT_DEATH(EnvRegistry::instance().make({"no-such-env", 0.0}, 1),
                 "registered environments");
}

TEST(EnvRegistry, DuplicateNameIsFatal)
{
    EXPECT_EXIT(EnvRegistry::instance().addHarvest(
                    "solar", {}, HarvestModel::constant(1e-3)),
                ::testing::ExitedWithCode(1),
                "fatal: duplicate environment registration: solar");
}

TEST(EnvRegistry, CapacitorOverrideScalesTheBuffer)
{
    auto &registry = EnvRegistry::instance();
    auto small = registry.make({"rf-paper", 100e-6}, 7);
    auto large = registry.make({"rf-paper", 1e-3}, 7);
    ASSERT_GT(small->capacityNj(), 0.0);
    EXPECT_NEAR(large->capacityNj() / small->capacityNj(), 10.0,
                1e-9);
    auto defaulted = registry.make({"rf-paper", 0.0}, 7);
    EXPECT_EQ(defaulted->capacityNj(), small->capacityNj());
}

// --- Traces ---------------------------------------------------------

TEST(Traces, CsvParsesAndNormalizes)
{
    HarvestModel model;
    std::string error;
    ASSERT_TRUE(parseTraceCsv("# comment\n"
                              "10,0.001\n"
                              "\n"
                              "  20 , 0.002 \n"
                              "30,0.001\n",
                              &model, &error))
        << error;
    EXPECT_EQ(model.periodSeconds(), 20.0); // normalized to t0 = 0
    EXPECT_NEAR(model.watts(5.0), 0.0015, 1e-12);

    // A subnormal sample is a number like any other; std::stod throws
    // on one, so the readers use from_chars.
    ASSERT_TRUE(parseTraceCsv("0,0.001\n1,1e-310\n2,0.001\n", &model,
                              &error))
        << error;
    EXPECT_EQ(model.periodSeconds(), 2.0);
}

TEST(Traces, NearFlatRampFromZeroWattsRechargesOnTheRamp)
{
    // 0 -> 1e-13 W over 1e6 s: a slope below the solver's 1e-18 W/s
    // flat threshold from a dark start. 1 nJ takes m*tau^2/2 = 1e-9 J,
    // tau = sqrt(2e10) s, not 1e-9 / 0 clamped to the whole segment.
    HarvestModel model;
    std::string error;
    ASSERT_TRUE(parseTraceCsv("0,0\n1000000,1e-13\n2000000,1e-13\n",
                              &model, &error))
        << error;
    const f64 tau = model.secondsToHarvest(0.0, 1e-9);
    EXPECT_NEAR(tau, 141421.356, 1e-3);
    EXPECT_NEAR(model.energyJoules(0.0, tau), 1e-9, 1e-9 * 1e-9);
}

TEST(Traces, CsvCorruptionDiagnostics)
{
    HarvestModel model;
    std::string error;

    EXPECT_FALSE(parseTraceCsv("0 0.001\n1,0.001\n", &model, &error));
    EXPECT_NE(error.find("no comma"), std::string::npos);

    EXPECT_FALSE(parseTraceCsv("0,abc\n1,0.001\n", &model, &error));
    EXPECT_NE(error.find("unparsable"), std::string::npos);

    EXPECT_FALSE(parseTraceCsv("0,0.001\n0,0.002\n", &model, &error));
    EXPECT_NE(error.find("strictly increasing"), std::string::npos);

    EXPECT_FALSE(parseTraceCsv("0,0.001\n1,-0.2\n", &model, &error));
    EXPECT_NE(error.find("negative power"), std::string::npos);

    EXPECT_FALSE(parseTraceCsv("0,0.001\n", &model, &error));
    EXPECT_NE(error.find("at least 2 samples"), std::string::npos);

    EXPECT_FALSE(parseTraceCsv("0,0\n5,0\n10,0\n", &model, &error));
    EXPECT_NE(error.find("no energy"), std::string::npos);
}

TEST(Traces, NonFiniteSamplesAreRejectedWithLineNumbers)
{
    HarvestModel model;
    std::string error;

    // from_chars parses "nan" and "inf", and `watts < 0.0` is
    // false for NaN — both used to slip through validation and poison
    // every downstream energy integral.
    EXPECT_FALSE(
        parseTraceCsv("0,0.001\n1,nan\n", &model, &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("non-finite power"), std::string::npos);

    EXPECT_FALSE(
        parseTraceCsv("0,0.001\n1,inf\n", &model, &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("non-finite power"), std::string::npos);

    EXPECT_FALSE(
        parseTraceCsv("0,0.001\n1,-inf\n", &model, &error));
    EXPECT_NE(error.find("non-finite power"), std::string::npos);

    EXPECT_FALSE(
        parseTraceCsv("nan,0.001\n1,0.001\n", &model, &error));
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
    EXPECT_NE(error.find("non-finite timestamp"), std::string::npos);

    // A power that overflows f64 ("1e999" -> inf) cannot sneak
    // through either parser: from_chars signals out-of-range.
    EXPECT_FALSE(
        parseTraceCsv("0,0.001\n1,1e999\n", &model, &error));
    EXPECT_FALSE(parseTraceJson(
        "{\"format\": \"sonic-trace\", \"version\": 1, "
        "\"points\": [[0, 0.001], [1, 1e999]]}",
        &model, &error));

    // The shared sample validator (the JSON path's line of defense
    // for programmatically-built samples) names the offending sample.
    EXPECT_FALSE(
        parseTraceCsv("0,0.001\n1, nan\n2,0.001\n", &model, &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(Traces, JsonParsesAndRejectsCorruption)
{
    HarvestModel model;
    std::string error;
    ASSERT_TRUE(parseTraceJson(
        "{\"format\": \"sonic-trace\", \"version\": 1, "
        "\"points\": [[0, 0.001], [10, 0.002], [20, 0.001]]}",
        &model, &error))
        << error;
    EXPECT_EQ(model.periodSeconds(), 20.0);

    ASSERT_TRUE(parseTraceJson(
        "{\"format\": \"sonic-trace\", \"version\": 1, "
        "\"points\": [[0, 0.001], [1, 1e-310], [2, 0.001]]}",
        &model, &error))
        << error;
    EXPECT_EQ(model.periodSeconds(), 2.0);

    EXPECT_FALSE(parseTraceJson(
        "{\"format\": \"other\", \"version\": 1, "
        "\"points\": [[0, 1], [1, 1]]}",
        &model, &error));
    EXPECT_NE(error.find("not a sonic-trace"), std::string::npos);

    EXPECT_FALSE(parseTraceJson(
        "{\"format\": \"sonic-trace\", \"version\": 9, "
        "\"points\": [[0, 1], [1, 1]]}",
        &model, &error));
    EXPECT_NE(error.find("unsupported trace format version 9"),
              std::string::npos);

    EXPECT_FALSE(parseTraceJson(
        "{\"format\": \"sonic-trace\", \"version\": 1, "
        "\"points\": [[0, 1], [1]]}",
        &model, &error));
    EXPECT_NE(error.find("[seconds, watts]"), std::string::npos);

    EXPECT_FALSE(parseTraceJson(
        "{\"format\": \"sonic-trace\", \"version\": 1, "
        "\"points\": [[0, 1], [1, 1]]} extra",
        &model, &error));
    EXPECT_NE(error.find("trailing garbage"), std::string::npos);

    EXPECT_FALSE(parseTraceJson("{\"format\": \"sonic-trace\", "
                                "\"version\": 1}",
                                &model, &error));
    EXPECT_NE(error.find("missing \"points\""), std::string::npos);

    EXPECT_FALSE(parseTraceJson(
        "{\"format\": \"sonic-trace\", \"version\": 1, \"step\": 1, "
        "\"points\": [[0, 1], [1, 1]]}",
        &model, &error));
    EXPECT_NE(error.find("unknown field \"step\""), std::string::npos);
}

TEST(Traces, FileRegistrationAndDiagnostics)
{
    const std::string path =
        ::testing::TempDir() + "sonic_env_trace.csv";
    {
        std::ofstream out(path);
        out << "0,0.0005\n60,0.001\n120,0.0005\n";
    }
    auto &registry = EnvRegistry::instance();
    std::string error;
    if (!registry.contains("test-trace-file")) {
        ASSERT_TRUE(registry.addTraceFile("test-trace-file", path,
                                          &error))
            << error;
    }
    EXPECT_EQ(registry.meta("test-trace-file")->family, "trace");
    auto psu = registry.make({"test-trace-file", 1e-3}, 3);
    EXPECT_NE(dynamic_cast<HarvestSupply *>(psu.get()), nullptr);

    // Duplicate registration is rejected, not overwritten.
    EXPECT_FALSE(
        registry.addTraceFile("test-trace-file", path, &error));
    EXPECT_NE(error.find("already registered"), std::string::npos);

    // Missing and corrupt files produce diagnostics.
    EXPECT_FALSE(registry.addTraceFile("test-missing-trace",
                                       "/no/such/trace.csv", &error));
    EXPECT_NE(error.find("cannot read"), std::string::npos);

    const std::string bad_path =
        ::testing::TempDir() + "sonic_env_trace_bad.csv";
    {
        std::ofstream out(bad_path);
        out << "0,0.001\nbogus line\n";
    }
    EXPECT_FALSE(registry.addTraceFile("test-bad-trace", bad_path,
                                       &error));
    EXPECT_NE(error.find("line 2"), std::string::npos);
    EXPECT_FALSE(registry.contains("test-bad-trace"));
}

TEST(Traces, RacingRegistrationsAreAtomic)
{
    // Eight threads register the same 64 trace names at once: each
    // name is won by exactly one call, and every other call gets false
    // and "already registered". In a child process, so the extra
    // environments stay out of tests that iterate the registry.
    const std::string path =
        ::testing::TempDir() + "sonic_env_trace_race.csv";
    {
        std::ofstream out(path);
        out << "0,0.0005\n60,0.001\n";
    }
    EXPECT_EXIT(
        {
            constexpr u32 kThreads = 8;
            constexpr u32 kNames = 64;
            std::vector<std::atomic<u32>> wins(kNames);
            std::atomic<u32> bad_errors{0};
            // All threads line up before each name, so every name is a
            // genuine race.
            std::atomic<u32> arrived{0};
            std::vector<std::thread> pool;
            for (u32 t = 0; t < kThreads; ++t)
                pool.emplace_back([&] {
                    for (u32 i = 0; i < kNames; ++i) {
                        arrived.fetch_add(1);
                        while (arrived.load() < kThreads * (i + 1))
                            std::this_thread::yield();
                        std::string error;
                        if (EnvRegistry::instance().addTraceFile(
                                "race-" + std::to_string(i), path,
                                &error))
                            wins[i].fetch_add(1);
                        else if (error.find("already registered")
                                 == std::string::npos)
                            bad_errors.fetch_add(1);
                    }
                });
            for (auto &thread : pool)
                thread.join();
            bool once_each = bad_errors.load() == 0;
            for (const auto &count : wins)
                once_each = once_each && count.load() == 1;
            std::exit(once_each ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

// --- Determinism and the lease protocol -----------------------------

/** Drive a supply through a fixed mixed charge script on a Device,
 * returning every observable a schedule comparison needs. */
struct ScriptProbe
{
    std::vector<u32> failureSteps;
    u64 cycles = 0;
    f64 nanojoules = 0.0;
    u64 reboots = 0;
    f64 deadSeconds = 0.0;
};

ScriptProbe
runScript(arch::Device &dev, u32 steps)
{
    ScriptProbe out;
    for (u32 i = 0; i < steps; ++i) {
        const auto op = static_cast<arch::Op>(i % arch::kNumOps);
        const u64 count = 1 + (i % 7 == 0 ? i % 23 : 0);
        try {
            dev.consume(op, count);
        } catch (const arch::PowerFailure &) {
            out.failureSteps.push_back(i);
            dev.reboot();
        }
    }
    out.cycles = dev.cycles();
    out.nanojoules = dev.stats().totalNanojoules();
    out.reboots = dev.rebootCount();
    out.deadSeconds = dev.deadSeconds();
    return out;
}

ScriptProbe
probeEnvironment(const EnvRef &ref, u64 seed, bool per_op_draw,
                 u32 steps = 4096)
{
    arch::DeviceConfig config;
    config.perOpPowerDraw = per_op_draw;
    arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                     EnvRegistry::instance().make(ref, seed), config);
    return runScript(dev, steps);
}

TEST(EnvDeterminism, SameSeedReplaysTheIdenticalSupplyBehavior)
{
    for (const auto &name : EnvRegistry::instance().names()) {
        // Small buffers so the script browns out often.
        const EnvRef ref{name, 5e-6};
        const auto a = probeEnvironment(ref, 0xabc, false);
        const auto b = probeEnvironment(ref, 0xabc, false);
        EXPECT_EQ(a.failureSteps, b.failureSteps) << name;
        EXPECT_EQ(a.cycles, b.cycles) << name;
        EXPECT_EQ(a.nanojoules, b.nanojoules) << name;
        EXPECT_EQ(a.deadSeconds, b.deadSeconds) << name;
    }
}

TEST(EnvDeterminism, SeedsChangeTheDeploymentPhase)
{
    // Distinct seeds boot at distinct points of the solar cycle, so
    // the dead-time pattern differs (failure placement is energy-
    // deterministic, but recharge timing shifts).
    const EnvRef ref{"solar", 5e-6};
    const auto a = probeEnvironment(ref, 1, false);
    const auto b = probeEnvironment(ref, 2, false);
    EXPECT_NE(a.deadSeconds, b.deadSeconds);
}

TEST(EnvLease, EveryRegisteredEnvironmentIsLeaseEquivalent)
{
    // The PR 2 contract, extended to the whole registry: a leased
    // device and a per-op-draw device under the same environment must
    // brown out on the identical operation with identical totals.
    for (const auto &name : EnvRegistry::instance().names()) {
        for (const f64 farads : {3e-6, 20e-6}) {
            const EnvRef ref{name, farads};
            const auto leased = probeEnvironment(ref, 0x5eed, false);
            const auto reference = probeEnvironment(ref, 0x5eed, true);
            ASSERT_EQ(leased.failureSteps, reference.failureSteps)
                << name << "@" << farads;
            EXPECT_EQ(leased.cycles, reference.cycles) << name;
            EXPECT_EQ(leased.nanojoules, reference.nanojoules)
                << name;
            EXPECT_EQ(leased.reboots, reference.reboots) << name;
            EXPECT_EQ(leased.deadSeconds, reference.deadSeconds)
                << name;
        }
    }
}

TEST(EnvLease, HarvestSupplyStateSettlesExactly)
{
    // Supply-side observables settle to the per-op-draw values too.
    auto make = [](bool per_op) {
        arch::DeviceConfig config;
        config.perOpPowerDraw = per_op;
        return config;
    };
    // Brown-out coordinates are recorded the way the oracle records
    // them: a probe reading the settled supply's draw cursor.
    struct BrownOuts : arch::TraceProbe
    {
        std::vector<u64> draws;

        void
        onPowerFailure(const arch::Device &dev) override
        {
            draws.push_back(
                static_cast<const HarvestSupply &>(dev.power())
                    .drawsSoFar()
                - 1);
        }
    };
    BrownOuts failures_a, failures_b;
    auto psu_a = EnvRegistry::instance().make({"rf-bursty", 5e-6}, 9);
    auto psu_b = EnvRegistry::instance().make({"rf-bursty", 5e-6}, 9);
    auto *raw_a = dynamic_cast<HarvestSupply *>(psu_a.get());
    auto *raw_b = dynamic_cast<HarvestSupply *>(psu_b.get());
    ASSERT_NE(raw_a, nullptr);
    arch::Device dev_a(arch::EnergyProfile::msp430fr5994(),
                       std::move(psu_a), make(false));
    arch::Device dev_b(arch::EnergyProfile::msp430fr5994(),
                       std::move(psu_b), make(true));
    dev_a.setProbe(&failures_a);
    dev_b.setProbe(&failures_b);
    runScript(dev_a, 4096);
    runScript(dev_b, 4096);
    dev_a.power(); // settle
    dev_b.power();
    EXPECT_GT(failures_a.draws.size(), 0u);
    EXPECT_EQ(failures_a.draws, failures_b.draws);
    EXPECT_EQ(raw_a->drawsSoFar(), raw_b->drawsSoFar());
    EXPECT_EQ(raw_a->levelNj(), raw_b->levelNj());
    EXPECT_EQ(raw_a->harvestedNj(), raw_b->harvestedNj());
    EXPECT_EQ(raw_a->simSeconds(), raw_b->simSeconds());
}

TEST(EnvClock, DeviceLifetimeFlushesUptimeIntoTheSupplyClock)
{
    // A supply that outlives its Device (the fleet lifetime pattern:
    // one environment powering a sequence of inferences through
    // BorrowedSupply views) must see every second of uptime, including
    // the stretch after the last reboot — otherwise the environment
    // clock lags and between-inference recharges integrate the
    // harvest model at a stale simulated time.
    auto psu = EnvRegistry::instance().make({"duty-cycle", 1e-3}, 11);
    auto *harvest = dynamic_cast<HarvestSupply *>(psu.get());
    ASSERT_NE(harvest, nullptr);
    const f64 phase = harvest->simSeconds();

    f64 live = 0.0, dead = 0.0;
    {
        arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                         std::make_unique<BorrowedSupply>(psu.get()));
        runScript(dev, 2048);
        live = dev.liveSeconds();
        dead = dev.deadSeconds();
    }
    // Clock advanced by the uptime plus the recharge dead time —
    // nothing lost at destruction, with or without reboots. The clock
    // wraps into [0, period) (the model is periodic), so compare
    // modulo the period (NEAR: the clock accumulates per-reboot
    // deltas, a telescoped sum).
    const f64 period = harvest->model().periodSeconds();
    EXPECT_NEAR(harvest->simSeconds(),
                std::fmod(phase + live + dead, period),
                (phase + live + dead) * 1e-12);

    // And a reboot-free lifetime advances it by pure uptime.
    auto psu3 = EnvRegistry::instance().make({"duty-cycle", 50e-3}, 11);
    auto *harvest3 = dynamic_cast<HarvestSupply *>(psu3.get());
    const f64 phase3 = harvest3->simSeconds();
    f64 live3 = 0.0;
    {
        arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                         std::make_unique<BorrowedSupply>(psu3.get()));
        dev.consume(arch::Op::FixedMul, 100);
        live3 = dev.liveSeconds();
        EXPECT_EQ(dev.rebootCount(), 0u);
    }
    EXPECT_DOUBLE_EQ(
        harvest3->simSeconds(),
        std::fmod(phase3 + live3, harvest3->model().periodSeconds()));
}

TEST(EnvClock, ZeroAndNegativeElapseAreNoOps)
{
    auto psu = EnvRegistry::instance().make({"solar", 1e-3}, 3);
    auto *harvest = dynamic_cast<HarvestSupply *>(psu.get());
    ASSERT_NE(harvest, nullptr);
    const f64 before = harvest->simSeconds();
    harvest->elapse(0.0);
    EXPECT_EQ(harvest->simSeconds(), before);
    harvest->elapse(-5.0);
    EXPECT_EQ(harvest->simSeconds(), before);
}

TEST(EnvClock, PhaseWrapsExactlyAtHugeUptime)
{
    // The absorption bug the wrap fixes: an unwrapped f64 accumulator
    // at ~1e17 s absorbs a 1 s increment entirely (1e17 + 1.0 == 1e17
    // in f64), freezing the phase. With wrapping the clock stays in
    // [0, period) where 1 s increments are exactly representable.
    auto psu = EnvRegistry::instance().make({"duty-cycle", 1e-3}, 5);
    auto *harvest = dynamic_cast<HarvestSupply *>(psu.get());
    ASSERT_NE(harvest, nullptr);
    const f64 period = harvest->model().periodSeconds();
    ASSERT_GT(period, 0.0);
    const f64 phase = harvest->simSeconds();

    // Whole periods are identity on the wrapped clock...
    harvest->elapse(1e6 * period);
    EXPECT_NEAR(harvest->simSeconds(), phase, period * 1e-9);
    // ...and a fractional remainder lands at the same phase as the
    // short elapse alone would.
    harvest->elapse(17.0 * period + 0.25 * period);
    EXPECT_NEAR(harvest->simSeconds(),
                std::fmod(phase + 0.25 * period, period), period * 1e-9);
    EXPECT_LT(harvest->simSeconds(), period);

    // The frozen-phase failure mode: after an enormous uptime the
    // clock still registers a small increment instead of absorbing it.
    // (The huge elapse itself rounds once at ulp(1e9 * period) — the
    // wrap's guarantee is that subsequent small increments land from
    // a small base, not that a single giant addition is exact.)
    harvest->elapse(1e9 * period);
    const f64 p1 = harvest->simSeconds();
    EXPECT_LT(p1, period);
    harvest->elapse(0.125 * period);
    EXPECT_NEAR(harvest->simSeconds(),
                std::fmod(p1 + 0.125 * period, period), period * 1e-9);
}

TEST(EnvClock, TimeInvariantSuppliesIgnoreElapse)
{
    // elapse() is a PowerSupply-wide notification; supplies with no
    // environment clock must accept it silently at any magnitude.
    arch::ContinuousPower continuous;
    continuous.elapse(0.0);
    continuous.elapse(1e18);
    EXPECT_EQ(continuous.harvestedNj(), 0.0);

    testutil::CapacitorPower cap(100e-6, 0.5e-3);
    const f64 level = cap.levelNj();
    cap.elapse(0.0);
    cap.elapse(1e18);
    EXPECT_EQ(cap.levelNj(), level);

    arch::SchedulePower sched({3, 5});
    sched.elapse(1e18);
    EXPECT_EQ(sched.drawsSoFar(), 0u);
    EXPECT_TRUE(sched.draw(1.0));
}

// --- Bit identity of the harvest walk -------------------------------

/**
 * The harvest walk before HarvestModel::wrap, kept verbatim as the
 * reference: each step folds t with std::fmod, searches t's segment,
 * and evaluates both end rates through watts(), which fold and search
 * again. One edit: a near-flat segment that starts at 0 W is solved on
 * its ramp, as the model does, since this reference pins the clock
 * fold and not that formula.
 */
class FmodHarvestModel
{
  public:
    explicit FmodHarvestModel(const HarvestModel &model)
        : points_(model.points()), period_(model.periodSeconds()),
          periodJoules_(model.energyJoulesPerPeriod())
    {
    }

    f64 periodSeconds() const { return period_; }

    f64
    fold(f64 t) const
    {
        f64 local = std::fmod(t, period_);
        if (local < 0.0)
            local += period_;
        return local;
    }

    f64
    watts(f64 t) const
    {
        f64 local = std::fmod(t, period_);
        if (local < 0.0)
            local += period_;
        // Last control point at or before `local`.
        u64 i = points_.size() - 1;
        while (i > 0 && points_[i].seconds > local)
            --i;
        const f64 t0 = points_[i].seconds;
        const f64 t1 = segmentEnd(i);
        const f64 w0 = points_[i].watts;
        const f64 w1 = segmentEndWatts(i);
        if (t1 <= t0)
            return w0;
        return w0 + (w1 - w0) * ((local - t0) / (t1 - t0));
    }

    f64
    secondsToHarvest(f64 t0, f64 joules) const
    {
        if (joules <= 0.0)
            return 0.0;
        f64 seconds = 0.0;
        if (joules > periodJoules_) {
            const f64 periods = std::floor(joules / periodJoules_);
            seconds += periods * period_;
            joules -= periods * periodJoules_;
            if (joules <= 0.0)
                return seconds;
        }
        f64 t = t0 + seconds;
        const u64 max_steps = 2 * (points_.size() + 1) + 4;
        for (u64 step = 0; step < max_steps; ++step) {
            f64 local = std::fmod(t, period_);
            if (local < 0.0)
                local += period_;
            u64 i = points_.size() - 1;
            while (i > 0 && points_[i].seconds > local)
                --i;
            const f64 seg_end = segmentEnd(i);
            f64 span = seg_end - local;
            if (span <= 0.0)
                span = 0.0;
            const f64 w0 = watts(t);
            const f64 w1 = watts(t + span);
            const f64 seg_joules = 0.5 * (w0 + w1) * span;
            if (seg_joules >= joules && seg_joules > 0.0) {
                const f64 m = span > 0.0 ? (w1 - w0) / span : 0.0;
                f64 tau;
                if (std::fabs(m) < 1e-18) {
                    tau = w0 == 0.0 ? std::sqrt(2.0 * joules / m)
                                    : joules / w0;
                } else {
                    const f64 disc = w0 * w0 + 2.0 * m * joules;
                    tau = (std::sqrt(std::max(disc, 0.0)) - w0) / m;
                }
                tau = std::clamp(tau, 0.0, span);
                return seconds + tau;
            }
            joules -= seg_joules;
            seconds += span;
            t += span;
            if (span == 0.0) {
                const f64 nudge = period_ * 1e-12;
                seconds += nudge;
                t += nudge;
            }
        }
        return seconds + joules / (periodJoules_ / period_);
    }

  private:
    f64
    segmentEnd(u64 i) const
    {
        return i + 1 < points_.size() ? points_[i + 1].seconds : period_;
    }

    f64
    segmentEndWatts(u64 i) const
    {
        return i + 1 < points_.size() ? points_[i + 1].watts
                                      : points_.front().watts;
    }

    std::vector<HarvestModel::Point> points_;
    f64 period_;
    f64 periodJoules_;
};

/** HarvestSupply's clock and recharge arithmetic over the reference
 * model, its clock folded by std::fmod. */
struct FmodHarvestSupply
{
    FmodHarvestModel model;
    f64 capacityNj;
    f64 levelNj;
    f64 harvestedNj;
    f64 simSeconds;

    explicit FmodHarvestSupply(const HarvestSupply &s)
        : model(s.model()), capacityNj(s.capacityNj()),
          levelNj(s.levelNj()), harvestedNj(s.harvestedNj()),
          simSeconds(s.simSeconds())
    {
    }

    void
    wrapClock()
    {
        const f64 period = model.periodSeconds();
        if (period > 0.0 && simSeconds >= period)
            simSeconds = std::fmod(simSeconds, period);
    }

    void
    elapse(f64 live_seconds)
    {
        if (live_seconds <= 0.0)
            return;
        simSeconds += live_seconds;
        wrapClock();
    }

    f64
    recharge()
    {
        const f64 deficit_nj = capacityNj - levelNj;
        const f64 dead =
            model.secondsToHarvest(simSeconds, deficit_nj * 1e-9);
        simSeconds += dead;
        wrapClock();
        harvestedNj += deficit_nj;
        levelNj = capacityNj;
        return dead;
    }
};

u64
bits(f64 x)
{
    return std::bit_cast<u64>(x);
}

/** Every registered environment's harvest model, by name. */
std::vector<std::pair<std::string, HarvestModel>>
registeredModels()
{
    std::vector<std::pair<std::string, HarvestModel>> out;
    for (const auto &name : EnvRegistry::instance().names()) {
        const auto psu = EnvRegistry::instance().make({name, 1e-3}, 1);
        if (const auto *h = dynamic_cast<const HarvestSupply *>(psu.get()))
            out.emplace_back(name, h->model());
    }
    return out;
}

TEST(HarvestWalk, MatchesTheFmodWalkBitForBit)
{
    auto models = registeredModels();
    ASSERT_GE(models.size(), 6u);
    models.emplace_back("constant", HarvestModel::constant(0.5e-3));
    models.emplace_back("dark-both-ends",
                        HarvestModel({{0.0, 0.0},
                                      {10.0, 0.0},
                                      {20.0, 4e-3},
                                      {30.0, 0.0}},
                                     40.0));
    models.emplace_back("negative-zero-watts",
                        HarvestModel({{0.0, -0.0},
                                      {3.0, -0.0},
                                      {5.0, 2e-3},
                                      {8.0, 0.0},
                                      {9.0, -0.0}},
                                     10.0));
    models.emplace_back(
        "point-an-ulp-below-the-period",
        HarvestModel({{0.0, 1e-3}, {std::nextafter(60.0, 0.0), 5e-3}},
                     60.0));
    // Past the -0.0 W point the slope is below the solver's 1e-18 W/s
    // threshold and the segment starts dark, so the dead time comes
    // from its ramp whichever sign the zero start rate carries.
    const HarvestModel shallow({{0.0, 1e-3}, {1.0, -0.0}, {1e6, 1e-13}},
                               2e6);
    const f64 past_the_ramp = 1.25e-4 + 1e-9; // from t = 0.5
    EXPECT_GT(FmodHarvestModel(shallow).secondsToHarvest(0.5, past_the_ramp),
              1.0);
    EXPECT_EQ(bits(shallow.secondsToHarvest(0.5, past_the_ramp)),
              bits(FmodHarvestModel(shallow).secondsToHarvest(
                  0.5, past_the_ramp)));
    models.emplace_back("shallow-slope-after-negative-zero", shallow);

    Rng rng(0x5eed);
    for (const auto &[name, model] : models) {
        SCOPED_TRACE(name);
        const FmodHarvestModel ref(model);
        const f64 p = model.periodSeconds();
        const f64 e = model.energyJoulesPerPeriod();
        // -denorm_min folds to p itself: a zero-width first step and
        // the nudge past it.
        std::vector<f64> starts = {-0.0,
                                   0.0,
                                   -std::numeric_limits<f64>::denorm_min(),
                                   std::nextafter(p, 0.0),
                                   p,
                                   1.37 * p,
                                   2.0 * p,
                                   1e6 * p};
        for (const auto &point : model.points())
            starts.push_back(point.seconds);
        for (int k = 0; k < 16; ++k)
            starts.push_back(rng.uniform(0.0, 3.0 * p));
        std::vector<f64> joules = {0.0, -0.0,
                                   std::numeric_limits<f64>::denorm_min(),
                                   1e-310, e, 2.0 * e, 3.0 * e, 1e-9 * e};
        for (int k = 0; k < 16; ++k)
            joules.push_back(rng.uniform(0.0, 2.5 * e));
        for (int k = 0; k < 8; ++k)
            joules.push_back(e * std::ldexp(1.0, -2 * k - 2));

        for (const f64 t0 : starts) {
            EXPECT_EQ(bits(model.wrap(t0)), bits(ref.fold(t0))) << t0;
            EXPECT_EQ(bits(model.watts(t0)), bits(ref.watts(t0))) << t0;
            for (const f64 j : joules)
                ASSERT_EQ(bits(model.secondsToHarvest(t0, j)),
                          bits(ref.secondsToHarvest(t0, j)))
                    << "t0 " << t0 << " joules " << j;
        }
    }
}

TEST(HarvestWalk, ReplayWalkMatchesAnFmodClock)
{
    // The fleet's hit replay: elapse, empty, recharge, 10^5 times per
    // environment. Dead time, clock and harvested energy must match the
    // fmod-folded supply bit for bit after every step.
    for (const auto &name : EnvRegistry::instance().names()) {
        for (const f64 farads : {5e-6, 1e-3}) {
            auto psu = EnvRegistry::instance().make({name, farads}, 7);
            auto *supply = dynamic_cast<HarvestSupply *>(psu.get());
            if (supply == nullptr)
                continue;
            SCOPED_TRACE(name + "@" + formatCapacitance(farads));
            FmodHarvestSupply ref(*supply);
            const f64 p = supply->model().periodSeconds();
            Rng rng(0xfee1 + bits(farads));
            for (u32 step = 0; step < 100000; ++step) {
                // Mostly short uptimes; some cross one period (the
                // subtraction) and some several (the fmod).
                const u64 kind = rng.below(20);
                const f64 live = kind == 0 ? rng.uniform(2.0 * p, 40.0 * p)
                    : kind == 1           ? rng.uniform(p, 2.0 * p)
                    : kind == 2           ? -rng.uniform(0.0, 1.0)
                                          : rng.uniform(0.0, 0.05 * p);
                supply->elapse(live);
                ref.elapse(live);
                supply->setLevelNjForReplay(0.0);
                ref.levelNj = 0.0;
                const f64 dead = supply->recharge();
                const f64 ref_dead = ref.recharge();
                ASSERT_EQ(bits(dead), bits(ref_dead)) << "step " << step;
                ASSERT_EQ(bits(supply->simSeconds()), bits(ref.simSeconds))
                    << "step " << step;
                ASSERT_EQ(bits(supply->harvestedNj()),
                          bits(ref.harvestedNj))
                    << "step " << step;
            }
        }
    }
}

// --- Sweep integration ----------------------------------------------

TEST(EnvSweep, EnvironmentAxisExpandsAndReseeds)
{
    app::SweepPlan plan;
    plan.nets({"golden"})
        .impls({kernels::Impl::Sonic})
        .environmentLabels({"rf-paper@1mF", "solar"});
    EXPECT_EQ(plan.size(), 2u);
    const auto specs = plan.expand();
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].environment.label(), "rf-paper@1mF");
    EXPECT_EQ(specs[1].environment.label(), "solar");
    EXPECT_NE(specs[0].seed, specs[1].seed);

    // The empty EnvRef keeps pre-axis seeds; a set one reseeds.
    app::SweepPlan plain;
    plain.nets({"golden"}).impls({kernels::Impl::Sonic});
    EXPECT_NE(plain.expand()[0].seed, specs[0].seed);
    app::SweepPlan defaulted;
    defaulted.nets({"golden"})
        .impls({kernels::Impl::Sonic})
        .environments({{}});
    EXPECT_EQ(plain.expand()[0].seed, defaulted.expand()[0].seed);
}

TEST(EnvSweep, UnknownEnvironmentInPlanDies)
{
    app::SweepPlan plan;
    EXPECT_DEATH(plan.environmentLabels({"no-such-env"}),
                 "registered environments");
}

TEST(EnvSweep, EngineRunsUnderAnEnvironmentDeterministically)
{
    app::SweepPlan plan;
    plan.nets({"golden"})
        .impls({kernels::Impl::Sonic, kernels::Impl::Tile8})
        .environmentLabels(
            {"trace-rf-office@100uF", "duty-cycle@100uF"});
    app::Engine serial(app::EngineOptions{1});
    app::Engine parallel(app::EngineOptions{4});
    const auto a = serial.run(plan);
    const auto b = parallel.run(plan);
    ASSERT_EQ(a.size(), 4u);
    for (u64 i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].result.completed) << i;
        EXPECT_GT(a[i].result.reboots, 0u) << i;
        EXPECT_EQ(a[i].result.reboots, b[i].result.reboots) << i;
        EXPECT_EQ(a[i].result.logits, b[i].result.logits) << i;
        EXPECT_EQ(a[i].result.deadSeconds, b[i].result.deadSeconds)
            << i;
        EXPECT_EQ(a[i].result.energyJ, b[i].result.energyJ) << i;
    }
}

} // namespace
} // namespace sonic::env
