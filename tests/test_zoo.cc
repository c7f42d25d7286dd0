/**
 * @file
 * Tests for the model zoo and the declarative NetworkBuilder: registry
 * semantics (lazy caching, registration order, duplicate/unknown
 * names), builder shape propagation and fusion, the synthetic model
 * families, generic knob compression, determinism of the concurrent
 * model and dataset construction, and the unknown-model error paths in
 * SweepPlan and Engine.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "app/engine.hh"
#include "dnn/builder.hh"
#include "dnn/model_io.hh"
#include "dnn/zoo.hh"

namespace sonic::dnn
{
namespace
{

TEST(ModelZoo, BuiltinsAreRegisteredInOrder)
{
    auto &zoo = ModelZoo::instance();
    const auto names = zoo.names();
    ASSERT_GE(names.size(), 7u);
    // The paper trio leads, then the verify workload, then the
    // builder-generated synthetic families.
    EXPECT_EQ(names[0], "MNIST");
    EXPECT_EQ(names[1], "HAR");
    EXPECT_EQ(names[2], "OkG");
    EXPECT_EQ(names[3], "golden");
    EXPECT_TRUE(zoo.contains("DeepFC-6"));
    EXPECT_TRUE(zoo.contains("WideFC-512"));
    EXPECT_TRUE(zoo.contains("DWConv-3"));
    EXPECT_FALSE(zoo.contains("no-such-model"));
    EXPECT_EQ(zoo.find("no-such-model"), nullptr);
}

TEST(ModelZoo, EntriesAreCachedAndStable)
{
    auto &zoo = ModelZoo::instance();
    const ModelEntry *a = zoo.find("HAR");
    const ModelEntry *b = zoo.find("HAR");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a, b);
    EXPECT_EQ(&a->teacher(), &b->teacher());
    EXPECT_EQ(&a->dataset(), &b->dataset());
    EXPECT_EQ(a->dataset().size(), a->meta().datasetSamples);
}

TEST(ModelZoo, PaperMetadataMatchesTable2)
{
    auto &zoo = ModelZoo::instance();
    EXPECT_DOUBLE_EQ(zoo.get("MNIST").meta().paperAccuracy, 0.99);
    EXPECT_DOUBLE_EQ(zoo.get("HAR").meta().paperAccuracy, 0.88);
    EXPECT_DOUBLE_EQ(zoo.get("OkG").meta().paperAccuracy, 0.84);
    EXPECT_EQ(zoo.get("MNIST").meta().family, "paper");
    EXPECT_EQ(zoo.get("golden").meta().family, "verify");
    EXPECT_EQ(zoo.get("DeepFC-6").meta().family, "synthetic");
    EXPECT_DOUBLE_EQ(zoo.get("HAR").meta().scaledAccuracy(0.5),
                     0.44);
}

TEST(ModelZoo, AddRegistersACustomModelSweepableByName)
{
    auto &zoo = ModelZoo::instance();
    // Process-global registry: stay idempotent under --gtest_repeat.
    if (!zoo.contains("test-custom")) {
        ModelMeta meta;
        meta.family = "custom";
        zoo.add("test-custom", meta,
                deepFcNet("test-custom", 16, 2, 8, 4));
    }
    const auto &entry = zoo.get("test-custom");
    EXPECT_EQ(entry.teacher().numClasses, 4u);
    // teacher == compressed for fixed registered networks.
    EXPECT_EQ(entry.compressed().paramCount(),
              entry.teacher().paramCount());

    // Sweepable through the engine with zero engine edits.
    app::SweepPlan plan;
    plan.nets({"test-custom"}).impls({kernels::Impl::Sonic});
    app::Engine engine(app::EngineOptions{1});
    const auto records = engine.run(plan);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(records[0].result.completed);
    EXPECT_EQ(records[0].spec.net, "test-custom");
}

TEST(ModelZoo, DatasetBuilderReplacesTheSyntheticDefault)
{
    auto &zoo = ModelZoo::instance();
    // A model shipping its own eval inputs (the dataset plug-in
    // point): three constant-ramp samples with fixed labels instead
    // of the synthetic teacher-labelled noise.
    if (!zoo.contains("test-own-dataset")) {
        ModelMeta meta;
        meta.family = "custom";
        meta.datasetSamples = 64; // ignored by the custom builder
        zoo.add("test-own-dataset", meta, [] {
            ModelDef def;
            def.teacher = deepFcNet("test-own-dataset", 16, 2, 8, 4);
            def.dataset = [](const NetworkSpec &teacher,
                             const ModelMeta &) {
                Dataset data;
                for (u32 s = 0; s < 3; ++s) {
                    Sample sample;
                    sample.input = tensor::FeatureMap(
                        teacher.input.c, teacher.input.h,
                        teacher.input.w);
                    for (u64 i = 0; i < sample.input.data.size(); ++i)
                        sample.input.data[i] =
                            0.01 * static_cast<f64>(i + s);
                    sample.label = s % teacher.numClasses;
                    data.push_back(std::move(sample));
                }
                return data;
            };
            return def;
        });
    }
    const auto &entry = zoo.get("test-own-dataset");
    ASSERT_EQ(entry.dataset().size(), 3u); // not meta.datasetSamples
    EXPECT_EQ(entry.dataset()[1].label, 1u);
    EXPECT_EQ(entry.dataset()[0].input.data[2], 0.02);

    // The engine consumes the custom samples like any dataset.
    app::SweepPlan plan;
    plan.nets({"test-own-dataset"})
        .impls({kernels::Impl::Sonic})
        .samples(3);
    app::Engine engine(app::EngineOptions{1});
    const auto records = engine.run(plan);
    ASSERT_EQ(records.size(), 3u);
    for (const auto &record : records)
        EXPECT_TRUE(record.result.completed);
}

TEST(ModelZoo, SyntheticModelsRunOnEveryPaperKernel)
{
    app::SweepPlan plan;
    plan.nets({"DeepFC-6", "WideFC-512", "DWConv-3"}).allImpls();
    app::Engine engine;
    const auto records = engine.run(plan);
    ASSERT_EQ(records.size(), 3u * 6u);
    for (const auto &record : records)
        EXPECT_TRUE(record.result.completed)
            << record.spec.net << "/"
            << kernels::implName(record.spec.impl);
}

TEST(ModelZoo, UnknownNameInSweepPlanDies)
{
    EXPECT_EXIT(
        {
            app::SweepPlan plan;
            plan.nets({"HAR", "definitely-not-registered"});
        },
        ::testing::ExitedWithCode(1), "definitely-not-registered");
}

TEST(ModelZoo, UnknownNameInEngineDies)
{
    EXPECT_EXIT(
        {
            app::Engine engine;
            app::RunSpec spec;
            spec.net = "definitely-not-registered";
            engine.runOne(spec);
        },
        ::testing::ExitedWithCode(1), "registered models");
}

TEST(ModelZoo, DuplicateNameIsFatal)
{
    EXPECT_EXIT(ModelZoo::instance().add(
                    "HAR", {}, deepFcNet("HAR", 16, 2, 8, 4)),
                ::testing::ExitedWithCode(1),
                "fatal: duplicate model registration: HAR");
}

TEST(ModelZoo, RacingFirstLookupsBuildOnce)
{
    // Eight threads make the first lookup of a fresh model at once:
    // the builder runs once and every thread gets the same entry. In
    // a child process, so the model stays out of other tests.
    EXPECT_EXIT(
        {
            auto &zoo = ModelZoo::instance();
            std::atomic<int> builds{0};
            zoo.add("test-race-once", {}, [&builds] {
                builds.fetch_add(1);
                // Slow enough that every thread arrives mid-build.
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
                return ModelDef{deepFcNet("test-race-once", 16, 2, 8, 4),
                                {}, {}, {}, {}};
            });
            std::vector<const ModelEntry *> seen(8, nullptr);
            std::atomic<u32> waiting{static_cast<u32>(seen.size())};
            std::vector<std::thread> pool;
            for (u32 t = 0; t < seen.size(); ++t)
                pool.emplace_back([&, t] {
                    waiting.fetch_sub(1);
                    while (waiting.load() > 0)
                        std::this_thread::yield();
                    seen[t] = &zoo.get("test-race-once");
                });
            for (auto &thread : pool)
                thread.join();
            bool same = true;
            for (const ModelEntry *entry : seen)
                same = same && entry == seen[0];
            std::exit(builds.load() == 1 && same ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(ModelZoo, GenericKnobCompressionShrinksSyntheticTeachers)
{
    const auto &entry = ModelZoo::instance().get("DeepFC-6");
    CompressionKnobs lean;
    lean.fcKeep = 0.5;
    const auto compressed = entry.withKnobs(lean, 0x5eed);
    EXPECT_LT(compressed.paramCount(), entry.teacher().paramCount());
    EXPECT_EQ(compressed.numClasses, entry.teacher().numClasses);
}

TEST(ModelZoo, PaperCompressionIsIndependentOfConstructionPath)
{
    // The zoo compresses the teacher it built; GENESIS rebuilds the
    // teacher per call. Both run the per-layer decompositions
    // concurrently and must give the same bytes.
    CompressionKnobs lean;
    lean.fcKeep = 0.35;
    lean.convKeep = 0.6;
    lean.fcRankScale = 0.5;
    for (NetId id : {NetId::Mnist, NetId::Har, NetId::Okg}) {
        const NetworkSpec teacher = buildTeacher(id);
        const std::string direct =
            modelJson(compress(id, teacher, CompressionKnobs{}));
        EXPECT_EQ(direct, modelJson(buildWithKnobs(id, CompressionKnobs{})))
            << netName(id);
        EXPECT_EQ(direct,
                  modelJson(ModelZoo::instance().get(netName(id))
                                .compressed()))
            << netName(id);
        EXPECT_EQ(modelJson(compress(id, teacher, lean)),
                  modelJson(buildWithKnobs(id, lean)))
            << netName(id);
    }
}

TEST(ModelZoo, DatasetsMatchASerialTeacherPass)
{
    auto &zoo = ModelZoo::instance();
    for (const auto &name : zoo.names()) {
        const ModelEntry &entry = zoo.get(name);
        // Test-registered models may ship their own datasets.
        if (entry.meta().family == "custom")
            continue;
        const Dataset data = makeDataset(entry.teacher(),
                                         entry.meta().datasetSamples,
                                         entry.meta().datasetSeed);
        const Dataset &cached = entry.dataset();
        ASSERT_EQ(data.size(), cached.size()) << name;
        for (u32 i = 0; i < data.size(); ++i) {
            const auto &input = data[i].input.data;
            ASSERT_EQ(input.size(), cached[i].input.data.size());
            EXPECT_EQ(std::memcmp(input.data(),
                                  cached[i].input.data.data(),
                                  input.size() * sizeof(f64)),
                      0)
                << name << " sample " << i;
            EXPECT_EQ(data[i].label, entry.teacher().classify(data[i].input))
                << name << " sample " << i;
            EXPECT_EQ(cached[i].label, data[i].label)
                << name << " sample " << i;
        }
    }
}

TEST(Builder, TracksShapesThroughConvPoolAndFc)
{
    NetworkBuilder b("shapes", {1, 12, 12});
    b.factoredConv("conv1", 4, 3, 3).relu().pool();
    // (12-3+1) = 10 -> pool -> 5; 4 channels.
    EXPECT_EQ(b.currentShape().c, 4u);
    EXPECT_EQ(b.currentShape().h, 5u);
    EXPECT_EQ(b.currentShape().w, 5u);
    b.sparseFc("fc", 16, 0.5).relu().fc("out", 6);
    const auto net = b.build();
    EXPECT_EQ(net.numClasses, 6u);
    ASSERT_EQ(net.layers.size(), 3u);
    EXPECT_TRUE(net.layers[0].reluAfter);
    EXPECT_TRUE(net.layers[0].poolAfter);
    EXPECT_TRUE(net.layers[1].reluAfter);
    EXPECT_FALSE(net.layers[2].reluAfter);
    EXPECT_EQ(net.shapeAfter(2).elems(), 6u);
}

TEST(Builder, SyntheticWeightsAreDeterministicDyadics)
{
    const auto a = deepFcNet("det", 16, 3, 8, 4, 99);
    const auto b = deepFcNet("det", 16, 3, 8, 4, 99);
    const auto c = deepFcNet("det", 16, 3, 8, 4, 100);
    const auto *fa = std::get_if<DenseFcLayer>(&a.layers[0].op);
    const auto *fb = std::get_if<DenseFcLayer>(&b.layers[0].op);
    const auto *fc = std::get_if<DenseFcLayer>(&c.layers[0].op);
    ASSERT_NE(fa, nullptr);
    EXPECT_EQ(fa->weights.data(), fb->weights.data());
    EXPECT_NE(fa->weights.data(), fc->weights.data());
    // Every weight sits on a dyadic grid: scaling by 4096 yields an
    // integer exactly (the platform-stability property).
    for (f64 w : fa->weights.data()) {
        const f64 scaled = w * 4096.0;
        EXPECT_EQ(scaled, static_cast<f64>(static_cast<i64>(scaled)));
    }
}

TEST(Builder, FamiliesProduceRunnableDeviceNets)
{
    // One-liner families must lower and classify on the host.
    const auto wide = wideFcNet("w", 24, 64, 0.25, 5);
    EXPECT_EQ(wide.numClasses, 5u);
    const auto dw = depthwiseConvNet("d", 2, 10, 2, 3);
    EXPECT_EQ(dw.numClasses, 3u);
    tensor::FeatureMap in(2, 10, 10);
    in.data[3] = 0.5;
    EXPECT_LT(dw.classify(in), 3u);
}

TEST(Builder, ExplicitWeightsAndValidation)
{
    tensor::Matrix w(3, 16);
    w.at(0, 0) = 1.0;
    const auto net = NetworkBuilder("explicit", {1, 4, 4})
                         .fc("fc", std::move(w))
                         .build();
    EXPECT_EQ(net.numClasses, 3u);

    // A mis-sized explicit FC is a fatal configuration error.
    EXPECT_DEATH(
        {
            tensor::Matrix bad(3, 7);
            NetworkBuilder("bad", {1, 4, 4}).fc("fc", std::move(bad));
        },
        "expects");
}

} // namespace
} // namespace sonic::dnn
