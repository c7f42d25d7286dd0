/**
 * @file
 * Tests for the DNN layer: spec shape/count arithmetic, the three
 * Table-2 workloads, synthetic datasets, and device lowering
 * (quantization, sparse formats, buffer schedule, the shared flash
 * image and its 16-bit index checks).
 */

#include <gtest/gtest.h>

#include "arch/memory.hh"
#include "dnn/dataset.hh"
#include "dnn/device_net.hh"
#include "dnn/zoo.hh"
#include "fixed/fixed.hh"
#include "kernels/runner.hh"
#include "tests/test_helpers.hh"

namespace sonic::dnn
{
namespace
{

/** The zoo-cached entry for a registered model. */
const ModelEntry &
zooModel(const char *name)
{
    return ModelZoo::instance().get(name);
}

arch::Device
continuousDevice()
{
    return arch::Device(arch::EnergyProfile::msp430fr5994(),
                        std::make_unique<arch::ContinuousPower>());
}

TEST(Spec, TinyNetShapes)
{
    const auto net = testutil::tinyNet();
    EXPECT_EQ(net.shapeAfter(0).elems(), 2u * 3 * 3);
    EXPECT_EQ(net.shapeAfter(1).elems(), 3u * 2 * 2);
    EXPECT_EQ(net.shapeAfter(2).elems(), 6u);
    EXPECT_EQ(net.shapeAfter(3).elems(), 4u);
}

TEST(Spec, TinyNetForwardMatchesManualPipeline)
{
    const auto net = testutil::tinyNet();
    Rng rng(1);
    tensor::FeatureMap in(1, 8, 8);
    for (auto &v : in.data)
        v = rng.uniform(-1.0, 1.0);

    // Manual: col, row, scale, relu, pool.
    const auto *f = std::get_if<FactoredConvLayer>(&net.layers[0].op);
    ASSERT_NE(f, nullptr);
    auto x = tensor::convCols(in, f->col);
    x = tensor::convRows(x, f->row);
    x = tensor::channelScale(x, f->scale);
    x = tensor::relu(x);
    x = tensor::maxPool2x2(x);

    const auto *s = std::get_if<SparseConvLayer>(&net.layers[1].op);
    x = tensor::relu(tensor::conv2dValid(x, s->filters));

    const auto *sf = std::get_if<SparseFcLayer>(&net.layers[2].op);
    auto v = tensor::relu(sf->weights.matvec(tensor::flatten(x)));
    const auto *df = std::get_if<DenseFcLayer>(&net.layers[3].op);
    const auto logits = df->weights.matvec(v);

    const auto got = net.forward(in);
    ASSERT_EQ(got.size(), logits.size());
    for (u32 i = 0; i < logits.size(); ++i)
        EXPECT_NEAR(got[i], logits[i], 1e-10);
}

TEST(Spec, MacAndParamCountsTiny)
{
    const auto net = testutil::tinyNet();
    // col: 3 taps x (6x8); row: 3 x (6x6); scale: 2 x 36;
    // conv2: nnz x 4 positions; sfc nnz; dfc 24.
    const auto *s = std::get_if<SparseConvLayer>(&net.layers[1].op);
    const auto *sf = std::get_if<SparseFcLayer>(&net.layers[2].op);
    const u64 expected_macs = 3 * 48 + 3 * 36 + 2 * 36
        + s->filters.nonZeroCount() * 4 + sf->weights.nonZeroCount()
        + 24;
    EXPECT_EQ(net.macCount(), expected_macs);
    EXPECT_EQ(net.paramCount(),
              3 + 3 + 2 + s->filters.nonZeroCount()
                  + sf->weights.nonZeroCount() + 24);
}

TEST(Networks, TeacherShapesMatchTable2)
{
    const auto &mnist = zooModel("MNIST").teacher();
    EXPECT_EQ(mnist.numClasses, 10u);
    EXPECT_EQ(mnist.shapeAfter(0).elems(), 20u * 12 * 12);
    EXPECT_EQ(mnist.shapeAfter(1).elems(), 100u * 4 * 4);
    EXPECT_EQ(mnist.paramCount(),
              u64{500} + 50000 + 200 * 1600 + 500 * 200 + 10 * 500);

    const auto &har = zooModel("HAR").teacher();
    EXPECT_EQ(har.numClasses, 6u);
    EXPECT_EQ(har.shapeAfter(0).elems(), 2450u);

    const auto &okg = zooModel("OkG").teacher();
    EXPECT_EQ(okg.numClasses, 12u);
    EXPECT_EQ(okg.shapeAfter(0).elems(), 1674u);
}

TEST(Networks, TeachersAreInfeasibleOnDevice)
{
    for (const auto &name : kPaperNets) {
        const auto &teacher = zooModel(name.c_str()).teacher();
        EXPECT_GT(teacher.framBytesNeeded(), u64{256} * 1024) << name;
    }
}

TEST(Networks, CompressedConfigsFitOnDevice)
{
    for (const auto &name : kPaperNets) {
        const auto &entry = zooModel(name.c_str());
        const auto &net = entry.compressed();
        EXPECT_LT(net.framBytesNeeded(), u64{224} * 1024) << name;
        EXPECT_LT(net.paramCount(),
                  entry.teacher().paramCount() / 10)
            << name;
    }
}

TEST(Networks, CompressedMnistMatchesTable2Budgets)
{
    const auto &net = zooModel("MNIST").compressed();
    const auto rows = accountLayers(net);
    // conv2 pruned to ~1253 (13 per output channel balanced).
    u64 conv2_params = 0;
    for (const auto &row : rows)
        if (row.name == "conv2")
            conv2_params += row.params;
    EXPECT_NEAR(static_cast<f64>(conv2_params), 1300.0, 64.0);
}

TEST(Networks, DeterministicConstruction)
{
    // withKnobs at default knobs is the compressed build at that seed.
    const auto a = zooModel("HAR").withKnobs(CompressionKnobs{}, 123);
    const auto b = zooModel("HAR").withKnobs(CompressionKnobs{}, 123);
    EXPECT_EQ(a.paramCount(), b.paramCount());
    EXPECT_EQ(a.macCount(), b.macCount());
}

TEST(Networks, KnobsChangeCost)
{
    CompressionKnobs lean;
    lean.fcKeep = 0.2;
    CompressionKnobs fat;
    fat.fcKeep = 1.0;
    const auto a = zooModel("HAR").withKnobs(lean, 0x5eed);
    const auto b = zooModel("HAR").withKnobs(fat, 0x5eed);
    EXPECT_LT(a.paramCount(), b.paramCount());
    EXPECT_LT(a.macCount(), b.macCount());
}

TEST(Dataset, DeterministicAndLabeledByTeacher)
{
    const auto &teacher = zooModel("HAR").teacher();
    const auto a = makeDataset(teacher, 16, 42);
    const auto b = makeDataset(teacher, 16, 42);
    ASSERT_EQ(a.size(), 16u);
    for (u32 i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].label, teacher.classify(a[i].input));
    }
}

TEST(Dataset, TeacherPerfectAgreement)
{
    const auto &entry = zooModel("HAR");
    const auto data = makeDataset(entry.teacher(), 24, 7);
    EXPECT_EQ(agreement(entry.teacher(), data), 1.0);
    EXPECT_EQ(entry.meta().scaledAccuracy(1.0),
              entry.meta().paperAccuracy);
}

TEST(Dataset, DetectionRatesOfTeacherArePerfect)
{
    const auto &teacher = zooModel("HAR").teacher();
    const auto data = makeDataset(teacher, 32, 7);
    const u32 cls = dominantClass(data, teacher.numClasses);
    const auto rates = detectionRates(teacher, data, cls);
    EXPECT_EQ(rates.truePositive, 1.0);
    EXPECT_EQ(rates.trueNegative, 1.0);
    EXPECT_GT(rates.baseRate, 0.0);
}

TEST(DeviceNet, LoweringPreservesWeights)
{
    auto dev = continuousDevice();
    const auto spec = testutil::tinyNet();
    DeviceNetwork net(dev, spec);

    // Sparse FC: CSC reconstruction must match the float weights
    // up to quantization.
    const auto *sf = std::get_if<SparseFcLayer>(&spec.layers[2].op);
    const auto *dsf = std::get_if<DevSparseFc>(&net.layers()[2].op);
    ASSERT_NE(dsf, nullptr);
    EXPECT_EQ(dsf->nnz, sf->weights.nonZeroCount());
    for (u32 c = 0; c < dsf->n; ++c) {
        for (i32 t = dsf->colPtr->peek(c); t < dsf->colPtr->peek(c + 1);
             ++t) {
            const u32 r = static_cast<u32>(
                dsf->rowIdx->peek(static_cast<u32>(t)));
            const f64 w = fixed::Q78::fromRaw(
                              dsf->val->peek(static_cast<u32>(t)))
                              .toFloat();
            EXPECT_NEAR(w, sf->weights.at(r, c), 0.5 / 256.0 + 1e-9);
        }
    }
}

TEST(DeviceNet, SparseConvOffsetsConsistent)
{
    auto dev = continuousDevice();
    const auto spec = testutil::tinyNet();
    DeviceNetwork net(dev, spec);
    const auto &layer = net.layers()[1];
    const auto *sc = std::get_if<DevSparseConv>(&layer.op);
    ASSERT_NE(sc, nullptr);
    const u32 in_plane = layer.in.h * layer.in.w;
    for (u32 t = 0; t < sc->nnz; ++t) {
        const u32 expected =
            static_cast<u32>(sc->tapIc->peek(t)) * in_plane
            + static_cast<u32>(sc->tapKy->peek(t)) * layer.in.w
            + static_cast<u32>(sc->tapKx->peek(t));
        EXPECT_EQ(static_cast<u32>(sc->tapOff->peek(t)), expected);
    }
}

TEST(DeviceNet, BufferScheduleAlternates)
{
    auto dev = continuousDevice();
    const auto spec = testutil::tinyNet();
    DeviceNetwork net(dev, spec);
    // Layer 0 pools: output returns to its input buffer.
    EXPECT_EQ(net.inputBufferOf(0), 0u);
    EXPECT_EQ(net.outputBufferOf(0), 0u);
    // Layer 1 does not pool: output swaps.
    EXPECT_EQ(net.inputBufferOf(1), 0u);
    EXPECT_EQ(net.outputBufferOf(1), 1u);
    EXPECT_EQ(net.inputBufferOf(2), 1u);
    EXPECT_EQ(net.outputBufferOf(2), 0u);
}

TEST(DeviceNet, InputLoadAndQuantize)
{
    auto dev = continuousDevice();
    const auto spec = testutil::tinyNet();
    DeviceNetwork net(dev, spec);
    tensor::FeatureMap in(1, 8, 8);
    in.data[5] = 0.5;
    const auto q = DeviceNetwork::quantizeInput(in);
    net.loadInput(q);
    EXPECT_EQ(net.act(0).peek(5), fixed::Q78::fromFloat(0.5).raw());
    EXPECT_EQ(dev.cycles(), 0u); // flashing is uncharged
}

/**
 * Byte-wise FNV-1a over what a flashed network registers in FRAM:
 * act.ping, act.pong, scratch0-2, then the image's arrays in order,
 * each as its size word followed by its sign-extended elements.
 */
u64
walkNetwork(DeviceNetwork &net, const FlashImage &image)
{
    u64 state = 0xcbf29ce484222325ull;
    const auto fold = [&state](u64 word) {
        for (u32 i = 0; i < 8; ++i) {
            state ^= (word >> (8 * i)) & 0xffu;
            state *= 0x00000100000001b3ull;
        }
    };
    const auto array = [&fold](u64 n, const auto &at) {
        fold(n);
        for (u64 i = 0; i < n; ++i)
            fold(static_cast<u64>(static_cast<i64>(at(i))));
    };
    for (u32 b = 0; b < 2; ++b)
        array(net.act(b).size(), [&](u64 i) { return net.act(b).peek(i); });
    for (u32 s = 0; s < 3; ++s)
        array(net.scratch(s).size(),
              [&](u64 i) { return net.scratch(s).peek(i); });
    for (const auto &region : image.regions())
        array(region.size(), [&](u64 i) { return region.data()[i]; });
    return state;
}

TEST(FlashImage, SharedImageFlashesLikeTheSpecOnEveryModel)
{
    auto &zoo = ModelZoo::instance();
    for (const auto &name : zoo.names()) {
        const auto &entry = zoo.get(name);
        const auto &image = entry.flashImage();
        const auto input =
            DeviceNetwork::quantizeInput(entry.dataset()[0].input);
        for (const auto impl : kernels::kAllImpls) {
            const std::string what =
                name + "/" + std::string(kernels::implName(impl));
            auto shared_dev = continuousDevice();
            auto own_dev = continuousDevice();
            DeviceNetwork shared(shared_dev, image);
            DeviceNetwork own(own_dev, entry.compressed());
            ASSERT_EQ(shared_dev.framBytesUsed(), own_dev.framBytesUsed())
                << what;
            const auto expectSameDigest = [&](const char *when) {
                const u64 digest = shared_dev.nvmDigest();
                EXPECT_EQ(digest, own_dev.nvmDigest()) << what << when;
                EXPECT_EQ(digest, walkNetwork(shared, image))
                    << what << when;
            };
            expectSameDigest(" at boot");
            shared.loadInput(input);
            own.loadInput(input);
            expectSameDigest(" after loadInput");
            const auto a = kernels::runInference(shared, impl);
            const auto b = kernels::runInference(own, impl);
            ASSERT_TRUE(a.completed && b.completed) << what;
            EXPECT_EQ(a.logits, b.logits) << what;
            expectSameDigest(" after the inference");
        }
    }
}

/** A 33,000-output sparse FC over 2 inputs, one nonzero at `row`. */
NetworkSpec
tallSparseFc(u32 row)
{
    NetworkSpec net;
    net.name = "Wrap";
    net.input = {1, 1, 2};
    net.numClasses = 33000;
    tensor::Matrix w(33000, 2);
    w.at(row, 1) = 0.5;
    net.layers.push_back({"fc", SparseFcLayer{std::move(w)}, false, false});
    return net;
}

TEST(FlashImage, IndexBeyondSixteenBitsIsFatalNotAWrap)
{
    // Row 32,800 would wrap to a negative i16 and the kernels would
    // write out of bounds; lowering refuses it.
    EXPECT_EXIT(
        {
            auto dev = continuousDevice();
            DeviceNetwork net(dev, tallSparseFc(32800));
        },
        ::testing::ExitedWithCode(1),
        "fatal: model 'Wrap' layer 0 'fc': sparse-FC row index 32800 "
        "exceeds the 16-bit device format's limit of 32767");

    // Row 32,000 fits and runs.
    auto dev = continuousDevice();
    DeviceNetwork net(dev, tallSparseFc(32000));
    net.loadInput({fixed::Q78::fromFloat(1.0).raw(),
                   fixed::Q78::fromFloat(2.0).raw()});
    const auto run = kernels::runInference(net, kernels::Impl::Sonic);
    ASSERT_TRUE(run.completed);
    ASSERT_EQ(run.logits.size(), 33000u);
    EXPECT_EQ(run.logits[32000], fixed::Q78::fromFloat(1.0).raw());
    EXPECT_EQ(run.logits[31999], 0);
}

TEST(DeviceNet, FramFootprintWithinBudget)
{
    auto dev = continuousDevice();
    const auto &spec = zooModel("HAR").compressed();
    DeviceNetwork net(dev, spec);
    EXPECT_LE(dev.framBytesUsed(), arch::kFramCapacityBytes);
    EXPECT_GT(dev.framBytesUsed(), 0u);
}

} // namespace
} // namespace sonic::dnn
