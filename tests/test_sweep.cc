/**
 * @file
 * Tests for the declarative sweep engine: plan expansion (shape,
 * ordering, seeding), engine execution (parallel bit-identical to
 * serial — the determinism contract), and the streaming sinks.
 */

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app/engine.hh"

namespace sonic::app
{
namespace
{

void
expectResultsEqual(const ExperimentResult &a, const ExperimentResult &b,
                   const std::string &what)
{
    EXPECT_EQ(a.completed, b.completed) << what;
    EXPECT_EQ(a.nonTerminating, b.nonTerminating) << what;
    EXPECT_EQ(a.reboots, b.reboots) << what;
    EXPECT_EQ(a.tasksExecuted, b.tasksExecuted) << what;
    // Bit-identical, not approximately equal: the same spec performs
    // the same charged operations in the same order on its own device
    // regardless of which worker thread runs it.
    EXPECT_EQ(a.liveSeconds, b.liveSeconds) << what;
    EXPECT_EQ(a.deadSeconds, b.deadSeconds) << what;
    EXPECT_EQ(a.totalSeconds, b.totalSeconds) << what;
    EXPECT_EQ(a.energyJ, b.energyJ) << what;
    EXPECT_EQ(a.harvestedJ, b.harvestedJ) << what;
    EXPECT_EQ(a.logits, b.logits) << what;
    EXPECT_EQ(a.predictedClass, b.predictedClass) << what;
    EXPECT_EQ(a.tailsTileWords, b.tailsTileWords) << what;
    ASSERT_EQ(a.layers.size(), b.layers.size()) << what;
    for (u64 i = 0; i < a.layers.size(); ++i) {
        EXPECT_EQ(a.layers[i].name, b.layers[i].name) << what;
        EXPECT_EQ(a.layers[i].kernelSeconds, b.layers[i].kernelSeconds)
            << what;
        EXPECT_EQ(a.layers[i].controlSeconds,
                  b.layers[i].controlSeconds)
            << what;
        EXPECT_EQ(a.layers[i].energyJ, b.layers[i].energyJ) << what;
    }
    EXPECT_EQ(a.energyByOp, b.energyByOp) << what;
}

TEST(SweepPlan, DefaultsToSingleDefaultSpec)
{
    SweepPlan plan;
    EXPECT_EQ(plan.size(), 1u);
    const auto specs = plan.expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].net, "MNIST");
    EXPECT_EQ(specs[0].impl, kernels::Impl::Sonic);
    EXPECT_TRUE(specs[0].environment.empty());
    EXPECT_EQ(specs[0].profile, ProfileVariant::Standard);
    EXPECT_EQ(specs[0].sampleIndex, 0u);
}

TEST(SweepPlan, DefaultSpecSeedIsPinned)
{
    // Specs on the default (empty) environment keep the seeds they had
    // when the supply still had a second selector: a refactor of the
    // seed mix must never silently reseed recorded sweeps.
    SweepPlan plan;
    plan.nets({"golden"});
    const auto specs = plan.expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].seed, 6322557469518132022ull);
    EXPECT_EQ(SweepPlan::specSeed(0x5eed, specs[0]),
              6322557469518132022ull);
}

TEST(SweepPlan, EmptyAxesAndZeroCountsExitWithDiagnostics)
{
    // User input, so fatal() (exit 1 with a message), never a panic.
    const auto exits = ::testing::ExitedWithCode(1);
    SweepPlan plan;
    EXPECT_EXIT(plan.nets({}), exits, "empty net axis");
    EXPECT_EXIT(plan.implNames({}), exits, "empty impl axis");
    EXPECT_EXIT(plan.environments({}), exits, "empty environment axis");
    EXPECT_EXIT(plan.profiles({}), exits, "empty profile axis");
    EXPECT_EXIT(plan.sampleIndices({}), exits, "empty sample axis");
    EXPECT_EXIT(plan.samples(0), exits, "needs n > 0");
}

TEST(SweepPlan, CrossProductSizeAndOrder)
{
    SweepPlan plan;
    plan.nets({"HAR", "OkG"})
        .impls({kernels::Impl::Base, kernels::Impl::Sonic})
        .environments({{}, {"rf-paper", 1e-3}})
        .samples(2);
    EXPECT_EQ(plan.size(), 16u);
    const auto specs = plan.expand();
    ASSERT_EQ(specs.size(), 16u);

    // Nets outermost ... samples innermost.
    EXPECT_EQ(specs[0].net, "HAR");
    EXPECT_EQ(specs[0].impl, kernels::Impl::Base);
    EXPECT_TRUE(specs[0].environment.empty());
    EXPECT_EQ(specs[0].sampleIndex, 0u);
    EXPECT_EQ(specs[1].sampleIndex, 1u);
    EXPECT_EQ(specs[2].environment.label(), "rf-paper@1mF");
    EXPECT_EQ(specs[4].impl, kernels::Impl::Sonic);
    EXPECT_EQ(specs[8].net, "OkG");
    EXPECT_EQ(specs[15].net, "OkG");
    EXPECT_EQ(specs[15].impl, kernels::Impl::Sonic);
    EXPECT_EQ(specs[15].environment.label(), "rf-paper@1mF");
    EXPECT_EQ(specs[15].sampleIndex, 1u);
}

TEST(SweepPlan, AllAxisHelpersCoverThePaperGrid)
{
    SweepPlan plan;
    plan.allNets()
        .allImpls()
        .environmentLabels({"continuous", "rf-paper@50mF",
                            "rf-paper@1mF", "rf-paper@100uF"})
        .profiles({ProfileVariant::Standard, ProfileVariant::NoLea,
                   ProfileVariant::NoDma});
    EXPECT_EQ(plan.size(), 3u * 6u * 4u * 3u);
}

TEST(SweepPlan, ImplNamesResolveThroughRegistry)
{
    SweepPlan plan;
    plan.implNames({"SONIC", "Tile-8", "TAILS"});
    const auto specs = plan.expand();
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].impl, kernels::Impl::Sonic);
    EXPECT_EQ(specs[1].impl, kernels::Impl::Tile8);
    EXPECT_EQ(specs[2].impl, kernels::Impl::Tails);
}

TEST(SweepPlan, SeedsAreDeterministicAndShapeIndependent)
{
    SweepPlan small;
    small.nets({"HAR"})
        .impls({kernels::Impl::Sonic});
    SweepPlan large;
    large.allNets()
        .impls({kernels::Impl::Base, kernels::Impl::Sonic})
        .environments({{},
                       {"rf-paper", 50e-3},
                       {"rf-paper", 1e-3},
                       {"rf-paper", 100e-6}})
        .samples(2);

    const auto small_specs = small.expand();
    const auto large_specs = large.expand();
    // The (Har, Sonic, continuous, Standard, 0) point exists in both
    // plans and must carry the same seed: seeding is a function of
    // coordinates, not of plan shape or expansion index.
    const RunSpec &a = small_specs[0];
    const RunSpec *b = nullptr;
    for (const auto &spec : large_specs) {
        if (spec.net == a.net && spec.impl == a.impl
            && spec.environment == a.environment
            && spec.profile == a.profile
            && spec.sampleIndex == a.sampleIndex)
            b = &spec;
    }
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a.seed, b->seed);

    // Distinct coordinates get distinct seeds.
    std::set<u64> seeds;
    for (const auto &spec : large_specs)
        seeds.insert(spec.seed);
    EXPECT_EQ(seeds.size(), large_specs.size());

    // A different base seed reseeds everything.
    SweepPlan reseeded;
    reseeded.nets({"HAR"})
        .impls({kernels::Impl::Sonic})
        .baseSeed(1234);
    EXPECT_NE(reseeded.expand()[0].seed, a.seed);
}

TEST(SweepPlan, SeedsIndependentOfAxisInsertionOrder)
{
    // The seed is a pure function of (baseSeed, coordinates): the
    // order axis setters were called in — and therefore any refactor
    // of plan-building code — can never reseed a grid point.
    SweepPlan ab;
    ab.nets({"HAR", "OkG"})
        .impls({kernels::Impl::Base, kernels::Impl::Sonic})
        .environments({{}, {"rf-paper", 1e-3}})
        .samples(2)
        .baseSeed(77);
    SweepPlan ba;
    ba.baseSeed(77)
        .samples(2)
        .environments({{}, {"rf-paper", 1e-3}})
        .impls({kernels::Impl::Base, kernels::Impl::Sonic})
        .nets({"HAR", "OkG"});

    const auto a = ab.expand();
    const auto b = ba.expand();
    ASSERT_EQ(a.size(), b.size());
    for (u64 i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].net, b[i].net);
        EXPECT_EQ(a[i].impl, b[i].impl);
        EXPECT_EQ(a[i].seed, b[i].seed) << i;
    }
}

TEST(SweepPlan, SeedsBitStableAcrossThreadCounts)
{
    // Engine workers pull specs from a shared counter; the recorded
    // seed stream must be the plan's expansion regardless of how many
    // threads raced over it.
    SweepPlan plan;
    plan.nets({"HAR"})
        .impls({kernels::Impl::Sonic, kernels::Impl::Base})
        .samples(2)
        .baseSeed(0xabcdef);
    const auto expanded = plan.expand();

    for (const u32 threads : {1u, 2u, 8u}) {
        Engine engine(EngineOptions{threads});
        const auto records = engine.run(plan);
        ASSERT_EQ(records.size(), expanded.size()) << threads;
        for (u64 i = 0; i < records.size(); ++i)
            EXPECT_EQ(records[i].spec.seed, expanded[i].seed)
                << threads << "/" << i;
    }
}

TEST(Engine, IntermittentRunsStreamDigestsThroughSinks)
{
    // The golden network on the paper's smallest capacitor browns out
    // three times; each reboot leaves one FRAM digest.
    SweepPlan plan;
    plan.nets({"golden"})
        .impls({kernels::Impl::Sonic})
        .environmentLabels({"rf-paper@100uF"})
        .captureNvmDigests(true);
    std::ostringstream json_out;
    JsonSink json(json_out);
    Engine engine(EngineOptions{1});
    const auto records = engine.run(plan, {&json});
    ASSERT_EQ(records.size(), 1u);
    const auto &r = records[0].result;
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.reboots, 3u);
    EXPECT_EQ(r.rebootDigests.size(), r.reboots);
    EXPECT_NE(r.finalNvmDigest, 0u);

    const std::string text = json_out.str();
    EXPECT_NE(text.find("\"rebootDigests\": ["), std::string::npos);
}

TEST(Engine, ParallelSweepBitIdenticalToSerial)
{
    SweepPlan plan;
    plan.nets({"HAR"})
        .impls({kernels::Impl::Sonic, kernels::Impl::Tails})
        .environments({{}, {"rf-paper", 100e-6}});

    Engine serial(EngineOptions{1});
    Engine parallel(EngineOptions{4});
    EXPECT_EQ(serial.threadCount(), 1u);
    EXPECT_EQ(parallel.threadCount(), 4u);

    const auto serial_records = serial.run(plan);
    const auto parallel_records = parallel.run(plan);
    ASSERT_EQ(serial_records.size(), plan.size());
    ASSERT_EQ(parallel_records.size(), plan.size());

    for (u64 i = 0; i < serial_records.size(); ++i) {
        const auto &s = serial_records[i];
        const auto &p = parallel_records[i];
        // Records arrive in plan order on both paths.
        EXPECT_EQ(s.planIndex, i);
        EXPECT_EQ(p.planIndex, i);
        EXPECT_EQ(s.spec.net, p.spec.net);
        EXPECT_EQ(s.spec.impl, p.spec.impl);
        EXPECT_EQ(s.spec.environment, p.spec.environment);
        EXPECT_EQ(s.spec.seed, p.spec.seed);
        expectResultsEqual(
            s.result, p.result,
            "record " + std::to_string(i) + " ("
                + std::string(kernels::implName(s.spec.impl)) + "/"
                + s.spec.environment.label() + ")");
        EXPECT_TRUE(s.result.completed);
    }
}

TEST(Engine, SinksStreamInPlanOrder)
{
    SweepPlan plan;
    plan.nets({"HAR"})
        .impls({kernels::Impl::Base, kernels::Impl::Sonic});

    std::ostringstream csv_out, json_out;
    CsvSink csv(csv_out);
    JsonSink json(json_out);

    Engine engine(EngineOptions{2});
    const auto records = engine.run(plan, {&csv, &json});
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].planIndex, 0u);
    EXPECT_EQ(records[0].spec.impl, kernels::Impl::Base);
    EXPECT_EQ(records[1].planIndex, 1u);
    EXPECT_EQ(records[1].spec.impl, kernels::Impl::Sonic);

    // CSV: header + one line per record, in plan order.
    const std::string csv_text = csv_out.str();
    std::istringstream csv_lines(csv_text);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(csv_lines, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0].rfind("planIndex,net,impl,environment,profile", 0),
              0u);
    EXPECT_NE(lines[1].find("HAR,Base,,standard"), std::string::npos);
    EXPECT_NE(lines[2].find("HAR,SONIC,,standard"), std::string::npos);

    // JSON: an array with one object per record and the trajectory
    // payload (layers, per-op energies, logits).
    const std::string json_text = json_out.str();
    EXPECT_EQ(json_text.front(), '[');
    EXPECT_EQ(json_text[json_text.size() - 2], ']');
    EXPECT_NE(json_text.find("\"impl\": \"SONIC\""),
              std::string::npos);
    EXPECT_NE(json_text.find("\"layers\": ["), std::string::npos);
    EXPECT_NE(json_text.find("\"energyByOp\": {"),
              std::string::npos);
    EXPECT_NE(json_text.find("\"logits\": ["), std::string::npos);
    u64 objects = 0;
    for (u64 pos = 0;
         (pos = json_text.find("\"planIndex\"", pos))
         != std::string::npos;
         ++pos)
        ++objects;
    EXPECT_EQ(objects, 2u);
}

TEST(Sinks, CsvQuotesHostileModelNamesAndJsonEscapes)
{
    // Model names are user-supplied: a comma/quote in a name must not
    // shift CSV columns, and control characters must not break JSON.
    SweepRecord record;
    record.planIndex = 0;
    record.spec.net = "evil,\"model\"\nname";

    std::ostringstream csv_out;
    CsvSink csv(csv_out);
    csv.begin(1);
    csv.add(record);
    const std::string csv_text = csv_out.str();
    // RFC 4180: quoted field, embedded quotes doubled.
    EXPECT_NE(csv_text.find("0,\"evil,\"\"model\"\"\nname\","),
              std::string::npos)
        << csv_text;

    std::ostringstream json_out;
    JsonSink json(json_out);
    json.begin(1);
    json.add(record);
    json.end();
    const std::string json_text = json_out.str();
    EXPECT_NE(json_text.find("evil,\\\"model\\\"\\nname"),
              std::string::npos)
        << json_text;
}

TEST(Engine, RunOneMatchesSweepRecord)
{
    SweepPlan plan;
    plan.nets({"HAR"}).impls({kernels::Impl::Sonic});
    Engine engine;
    const auto records = engine.run(plan);
    ASSERT_EQ(records.size(), 1u);
    const auto direct = engine.runOne(records[0].spec);
    expectResultsEqual(records[0].result, direct, "runOne vs sweep");
}

} // namespace
} // namespace sonic::app
