/**
 * @file
 * Tests for the adversarial intermittence oracle (src/verify): the
 * schedule-driven power supply, seeded schedule generators, commit
 * tracing, NVM snapshot chains, the differential oracle with ddmin
 * shrinking (including the acceptance battery: >= 1000 schedules
 * across Base/Tile-8/Tile-32/SONIC/TAILS with zero divergences, and a
 * deliberately broken SONIC caught and shrunk to a tiny schedule),
 * batteries on the worker pool, and the committed golden digest file.
 */

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "util/json_parse.hh"
#include "verify/oracle.hh"
#include "verify/workload.hh"

namespace sonic::verify
{
namespace
{

LocalWorkload
goldenWorkload(kernels::Impl impl)
{
    return LocalWorkload(goldenNet(), goldenInput(), impl);
}

/** RAII around the injected SONIC fault so no assertion exit can leak
 * the broken kernel into later tests. */
struct UndoLogFaultGuard
{
    UndoLogFaultGuard()
    {
        kernels::testhooks::sonicDisableUndoLogging = true;
    }

    ~UndoLogFaultGuard()
    {
        kernels::testhooks::sonicDisableUndoLogging = false;
    }
};

// --- Schedule generators --------------------------------------------

TEST(ScheduleGen, DeterministicBoundedAndSorted)
{
    ScheduleGenConfig config;
    config.seed = 42;
    config.opHorizon = 10'000;
    config.maxFailures = 8;

    const auto a = uniformSchedules(50, config);
    const auto b = uniformSchedules(50, config);
    ASSERT_EQ(a.size(), 50u);
    EXPECT_EQ(a, b); // same seed, same battery
    for (const auto &schedule : a) {
        ASSERT_FALSE(schedule.empty());
        EXPECT_LE(schedule.size(), 8u);
        for (u64 i = 0; i < schedule.size(); ++i) {
            EXPECT_LT(schedule[i], config.opHorizon);
            if (i > 0) {
                EXPECT_LT(schedule[i - 1], schedule[i]);
            }
        }
    }

    config.seed = 43;
    EXPECT_NE(uniformSchedules(50, config), a);
}

TEST(ScheduleGen, FailureCountClampedBelowNoProgressThreshold)
{
    // Even an absurd request stays far below the scheduler's
    // maxFailuresWithoutProgress (48), so generated schedules can
    // never produce a legitimate non-termination verdict.
    ScheduleGenConfig config;
    config.opHorizon = 1'000'000;
    config.maxFailures = 10'000;
    for (const auto &schedule : burstySchedules(100, config))
        EXPECT_LE(schedule.size(), 40u);
    for (const auto &schedule : uniformSchedules(100, config))
        EXPECT_LE(schedule.size(), 40u);
}

TEST(ScheduleGen, CommitTargetedLandsNearCommits)
{
    const std::vector<u64> commits = {100, 5'000, 20'000};
    ScheduleGenConfig config;
    config.opHorizon = 30'000;
    const auto schedules =
        commitTargetedSchedules(40, commits, config);
    for (const auto &schedule : schedules) {
        for (u64 index : schedule) {
            bool near = false;
            for (u64 commit : commits)
                near |= index >= commit && index < commit + 8;
            EXPECT_TRUE(near) << index;
        }
    }
}

// --- Commit tracing -------------------------------------------------

TEST(CommitTrace, RecordsMonotoneInHorizonCommits)
{
    const auto workload = goldenWorkload(kernels::Impl::Sonic);
    u64 draws = 0;
    const auto commits = recordCommitTrace(workload, &draws);
    ASSERT_GT(draws, 1000u);
    ASSERT_GT(commits.size(), 5u); // one per task transition
    for (u64 i = 0; i < commits.size(); ++i) {
        EXPECT_LT(commits[i], draws);
        if (i > 0) {
            EXPECT_LE(commits[i - 1], commits[i]);
        }
    }
}

// --- NVM snapshot chains --------------------------------------------

TEST(SnapshotChain, OneDigestPerRebootAndDeterministic)
{
    const auto run = localRunner(goldenWorkload(kernels::Impl::Sonic));
    const Schedule schedule = {200, 900, 1400};
    const auto a = run(schedule);
    const auto b = run(schedule);
    ASSERT_TRUE(a.completed);
    EXPECT_EQ(a.fired, schedule.size());
    EXPECT_EQ(a.reboots, a.fired);
    EXPECT_EQ(a.rebootDigests.size(), a.reboots);
    // Bit-identical replay, including the digest chain.
    EXPECT_EQ(a.rebootDigests, b.rebootDigests);
    EXPECT_EQ(a.finalNvmDigest, b.finalNvmDigest);
    EXPECT_EQ(a.logits, b.logits);

    // A distant failure placement snapshots different FRAM state.
    const auto c = run({1200, 1900, 2400});
    EXPECT_NE(a.rebootDigests, c.rebootDigests);
}

TEST(SnapshotChain, RecoveryRestoresTheContinuousFinalState)
{
    // SONIC's recovery re-derives identical values everywhere, so the
    // final FRAM image matches continuous power bit-for-bit.
    const auto run = localRunner(goldenWorkload(kernels::Impl::Sonic));
    const auto cont = run({});
    const auto inter = run({137, 138, 2000});
    ASSERT_TRUE(inter.completed);
    EXPECT_EQ(inter.logits, cont.logits);
    EXPECT_EQ(inter.finalNvmDigest, cont.finalNvmDigest);
}

// --- The oracle acceptance battery ----------------------------------

/**
 * >= 1000 schedules with a fixed seed across the five acceptance
 * kernels: every crash-consistent kernel must be indistinguishable
 * from continuous power under every schedule; Base must replay
 * deterministically. Zero divergences.
 */
TEST(Oracle, GrandSweepZeroDivergences)
{
    const kernels::Impl impls[] = {
        kernels::Impl::Base, kernels::Impl::Tile8,
        kernels::Impl::Tile32, kernels::Impl::Sonic,
        kernels::Impl::Tails};
    u64 total_schedules = 0;
    for (const auto impl : impls) {
        const auto &info = kernels::implInfo(impl);
        const auto workload = goldenWorkload(impl);
        u64 draws = 0;
        const auto commits = recordCommitTrace(workload, &draws);

        ScheduleGenConfig gen;
        gen.seed = 0x5eed1000 + static_cast<u64>(impl);
        gen.opHorizon = draws;
        gen.maxFailures = 8;
        const auto schedules = mixedSchedules(200, commits, gen);
        total_schedules += schedules.size();

        OracleOptions options;
        options.crashConsistent = info.crashConsistent;
        // The final FRAM image is part of the property for the purely
        // software kernels; TAILS' calibration registers (tile words,
        // attempt flags) legitimately depend on where failures land,
        // so only its logits are held to the reference.
        options.checkFinalNvmDigest = impl != kernels::Impl::Tails;
        Oracle oracle(localRunner(workload), options);
        const auto report = oracle.verify(schedules);
        EXPECT_TRUE(report.ok())
            << info.name << ": " << report.divergences.size()
            << " divergences, first: "
            << (report.ok()
                    ? std::string()
                    : report.divergences.front().reason);
        EXPECT_GT(report.totalFired, 0u) << info.name;
        EXPECT_EQ(report.totalReboots, report.totalFired)
            << info.name;
    }
    EXPECT_GE(total_schedules, 1000u);
}

/**
 * The oracle must catch a real crash-consistency bug: SONIC with its
 * sparse undo-logging disabled double-applies a tap when a failure
 * lands between the in-place store and the index advance. The fuzz
 * battery finds it and ddmin shrinks the counterexample to at most 3
 * failure indices (typically 1).
 */
TEST(Oracle, BrokenSonicCaughtAndShrunk)
{
    const auto workload = goldenWorkload(kernels::Impl::Sonic);
    const auto run = localRunner(workload);
    u64 draws = 0;
    const auto commits = recordCommitTrace(workload, &draws);

    OracleReport report;
    {
        UndoLogFaultGuard fault;
        ScheduleGenConfig gen;
        gen.seed = 0xbad5eed;
        gen.opHorizon = draws;
        gen.maxFailures = 8;
        const auto schedules = mixedSchedules(300, commits, gen);

        Oracle oracle(run, {});
        report = oracle.verify(schedules);
    }

    ASSERT_FALSE(report.ok())
        << "oracle failed to catch disabled undo-logging";
    const auto good = run({});
    for (const auto &d : report.divergences) {
        EXPECT_LE(d.shrunk.size(), 3u);
        ASSERT_FALSE(d.shrunk.empty());
        // The shrunk schedule is a genuine standalone counterexample.
        UndoLogFaultGuard fault;
        const auto replay = run(d.shrunk);
        EXPECT_TRUE(!replay.completed || replay.logits != good.logits);
    }

    // And the fixed kernel passes the exact schedules that broke the
    // faulty one.
    Oracle fixed(run, {});
    std::vector<Schedule> broken_schedules;
    for (const auto &d : report.divergences)
        broken_schedules.push_back(d.schedule);
    EXPECT_TRUE(fixed.verify(broken_schedules).ok());
}

TEST(Oracle, ShrinkStripsBenignIndicesFromAMixedSchedule)
{
    // Find one minimal failing index under the broken kernel, bury it
    // in padding, and check ddmin digs a tiny counterexample back out.
    const auto workload = goldenWorkload(kernels::Impl::Sonic);
    UndoLogFaultGuard fault;
    const auto run = localRunner(workload);
    Oracle oracle(run, {});

    std::optional<u64> bad;
    u64 draws = 0;
    recordCommitTrace(workload, &draws);
    for (u64 i = 0; i < draws && !bad; ++i) {
        const Schedule probe = {i};
        if (oracle.judge(probe, run(probe)))
            bad = i;
    }
    ASSERT_TRUE(bad.has_value());

    // Padding strictly after the failing index: failures before it
    // would shift the op stream and could mask the window.
    const Schedule padded = {*bad, *bad + 997, *bad + 2003,
                             *bad + 3001};
    ASSERT_TRUE(oracle.judge(padded, run(padded)));
    const auto shrunk = oracle.shrink(padded);
    EXPECT_LT(shrunk.size(), padded.size());
    EXPECT_LE(shrunk.size(), 2u);
    // Shrinking never invents indices.
    for (u64 index : shrunk)
        EXPECT_TRUE(std::find(padded.begin(), padded.end(), index)
                    != padded.end());
}

// --- Batteries on the worker pool -------------------------------------

TEST(Oracle, ReportIsTheSameAtAnyThreadCount)
{
    // Broken SONIC, so the report carries divergences and their shrunk
    // schedules; Base, so its replay batch runs on the pool too.
    UndoLogFaultGuard fault;
    for (const auto impl : {kernels::Impl::Sonic, kernels::Impl::Base}) {
        const auto workload = goldenWorkload(impl);
        const auto serial =
            reportJson(verifyLocal(workload, 60, 0x7e57, 8, {}, 1));
        if (impl == kernels::Impl::Sonic) {
            EXPECT_NE(serial.find("\"shrunk\""), std::string::npos);
        }
        for (const u32 threads : {2u, 8u})
            EXPECT_EQ(reportJson(verifyLocal(workload, 60, 0x7e57, 8, {},
                                             threads)),
                      serial)
                << kernels::implName(impl) << " at " << threads;
    }
}

TEST(Oracle, VerifyWithEngineJudgesZooModels)
{
    // SONIC is judged against the reference; Base, held only to
    // deterministic replay, is judged against a second pooled run.
    const std::pair<dnn::NetRef, kernels::Impl> cases[] = {
        {"HAR", kernels::Impl::Sonic},
        {"golden", kernels::Impl::Base},
    };
    app::Engine engine(app::EngineOptions{4});
    for (const auto &[net, impl] : cases) {
        EngineOracleConfig config;
        config.net = net;
        config.impl = impl;
        config.schedules = 24;
        config.seed = 0xfa11;
        const auto report = verifyWithEngine(engine, config);
        const auto name = kernels::implName(impl);
        EXPECT_TRUE(report.ok())
            << name << ": " << report.divergences.size()
            << " divergences, first: "
            << (report.ok() ? std::string()
                            : report.divergences.front().reason);
        EXPECT_EQ(report.schedulesRun, 24u);
        EXPECT_EQ(report.impl, name);
        EXPECT_EQ(report.workload, net);
        EXPECT_GT(report.totalFired, 0u) << name;
    }
}

TEST(Oracle, OneDivergentReplayGivesExactlyThatDivergence)
{
    // Base is held to deterministic replay: a replay list that differs
    // from the observations in one schedule gives that divergence and
    // no other.
    const auto workload = goldenWorkload(kernels::Impl::Base);
    u64 draws = 0;
    const auto commits = recordCommitTrace(workload, &draws);
    ScheduleGenConfig gen;
    gen.seed = 0x4e91a7;
    gen.opHorizon = draws;
    const auto schedules = mixedSchedules(12, commits, gen);
    const auto run = localRunner(workload);
    std::vector<Observation> observed;
    for (const auto &schedule : schedules)
        observed.push_back(run(schedule));

    OracleOptions options;
    options.crashConsistent = false;
    options.shrink = false;
    Oracle oracle(run, options);
    const u64 bad = 5;
    ASSERT_FALSE(schedules[bad].empty());
    auto replayed = observed;
    ASSERT_FALSE(replayed[bad].logits.empty());
    replayed[bad].logits[0] ^= 1;
    const auto report = oracle.judgeBatch(schedules, observed, replayed);
    ASSERT_EQ(report.divergences.size(), 1u);
    EXPECT_EQ(report.divergences[0].schedule, schedules[bad]);
    EXPECT_EQ(report.divergences[0].reason, "replay diverges: logits");
    EXPECT_EQ(report.schedulesRun, schedules.size());
}

TEST(Oracle, ReportJsonCarriesShrunkCounterexample)
{
    OracleReport report;
    report.impl = "SONIC";
    report.workload = "golden";
    report.schedulesRun = 3;
    Divergence d;
    d.schedule = {5, 9, 12};
    d.shrunk = {9};
    d.reason = "logits diverge from the continuous reference";
    d.observed.completed = true;
    d.observed.rebootDigests = {0xabcdu};
    report.divergences.push_back(d);
    const std::string json = reportJson(report);
    EXPECT_NE(json.find("\"shrunk\": [9]"), std::string::npos);
    EXPECT_NE(json.find("logits diverge"), std::string::npos);
    EXPECT_NE(json.find("\"schedule\": [5, 9, 12]"),
              std::string::npos);

    // User-supplied strings (--load'ed model names, --env labels,
    // --artifact paths) must not break the document.
    report.workload = "my \"net\" \\ v2\nunder rf";
    report.divergences[0].tracePath = "dir\\a \"b\".sonictrace";
    jsonp::JsonValue doc;
    std::string error;
    ASSERT_TRUE(jsonp::parseJson(reportJson(report), &doc, &error))
        << error;
    const auto *root = doc.object();
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(*root->at("workload").string(), report.workload);
    EXPECT_EQ(*root->at("impl").string(), "SONIC");
    const auto &div = *root->at("divergences").array()->at(0).object();
    EXPECT_EQ(*div.at("tracePath").string(),
              report.divergences[0].tracePath);
    EXPECT_EQ(*div.at("reason").string(), d.reason);

    // sonic_oracle --artifact: an array of reports through one writer.
    OracleReport second = report;
    second.impl = "TAILS";
    second.divergences[0].shrunk = {5, 12};
    std::ostringstream artifact;
    json::Writer w(artifact);
    w.beginArray();
    for (const OracleReport *each : {&report, &second})
        writeReportJson(w.br(2), *each, 2);
    w.br(0).end();
    ASSERT_TRUE(jsonp::parseJson(artifact.str(), &doc, &error)) << error;
    const auto *reports = doc.array();
    ASSERT_NE(reports, nullptr);
    ASSERT_EQ(reports->size(), 2u);
    EXPECT_EQ(*reports->at(0).object()->at("workload").string(),
              report.workload);
    const auto &tails = *reports->at(1).object();
    EXPECT_EQ(*tails.at("impl").string(), "TAILS");
    const auto &shrunk = *tails.at("divergences").array()->at(0)
                              .object()->at("shrunk").array();
    ASSERT_EQ(shrunk.size(), 2u);
    EXPECT_EQ(*shrunk[1].number(), 12.0);
}

// --- Environment-recorded schedules ---------------------------------

TEST(EnvironmentFailures, RecordedBrownOutsReplayExactly)
{
    // The oracle's environment mode turns a deployment's brown-outs
    // into an explicit schedule. Replaying that schedule must fire
    // every index and reproduce the environment run's reboots and
    // logits, or environment fuzzing would judge a different run.
    //
    // Capacitors stay at 20 uF and up: SONIC/TAILS clamp their span
    // width by the supply's capacity (safeSpanWords), which
    // SchedulePower reports as unbounded, so below that the clamp
    // binds on the golden rows and the replay runs a different op
    // stream (at 5 uF SONIC replays 72 of 90 brown-outs). The tiled
    // kernels only finish on the larger capacitor.
    const std::pair<kernels::Impl, env::EnvRef> cases[] = {
        {kernels::Impl::Sonic, {"rf-bursty", 20e-6}},
        {kernels::Impl::Tails, {"rf-bursty", 20e-6}},
        {kernels::Impl::Tile8, {"rf-bursty", 100e-6}},
        {kernels::Impl::Tile32, {"rf-bursty", 100e-6}}};
    const u64 seed = 0xb0;
    for (const auto &[impl, ref] : cases) {
        const auto workload = goldenWorkload(impl);
        const auto env_run = observe(
            workload, env::EnvRegistry::instance().make(ref, seed));
        ASSERT_TRUE(env_run.completed);

        // A separate run records the brown-outs, so a recorder that
        // perturbs the run it watches fails the comparison below.
        BrownOutRecorder recorder;
        observe(workload, env::EnvRegistry::instance().make(ref, seed),
                &recorder);
        const Schedule &recorded = recorder.failures;
        ASSERT_FALSE(recorded.empty()) << "capacitor never browned out";
        const auto replay = observe(
            workload, std::make_unique<arch::SchedulePower>(recorded));
        EXPECT_TRUE(replay.completed);
        EXPECT_EQ(replay.fired, recorded.size());
        EXPECT_EQ(replay.reboots, env_run.reboots);
        EXPECT_EQ(replay.logits, env_run.logits);
    }
}

// --- Golden digest file ---------------------------------------------

TEST(Golden, CommittedFileMatchesRegeneration)
{
    // Byte-exact comparison: any change to a kernel's intermittent
    // semantics (op stream, reboot recovery, FRAM state) shows up as
    // a golden diff. Refresh intentionally with:
    //   sonic_oracle --emit-golden=tests/golden/golden_net.json
    const std::string path =
        std::string(SONIC_GOLDEN_DIR) + "/golden_net.json";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::ostringstream stored;
    stored << in.rdbuf();
    EXPECT_EQ(stored.str(), goldenJson())
        << "golden digests diverge; refresh with sonic_oracle "
           "--emit-golden if the change is intentional";
}

} // namespace
} // namespace sonic::verify
