/**
 * @file
 * Kernel correctness on continuous power: every implementation (Base,
 * Tile-k, SONIC, TAILS) must compute the right answer. Base/Tiled/SONIC
 * share the same per-element tap accumulation order, so their logits
 * are bit-identical; TAILS computes through LEA's Q15 pipeline and is
 * checked against the float reference with a tolerance.
 */

#include <algorithm>
#include <cmath>
#include <iterator>

#include <gtest/gtest.h>

#include "dnn/dataset.hh"
#include "dnn/device_net.hh"
#include "dnn/zoo.hh"
#include "fixed/fixed.hh"
#include "kernels/runner.hh"
#include "tests/test_helpers.hh"

namespace sonic::kernels
{
namespace
{

arch::Device
continuousDevice()
{
    return arch::Device(arch::EnergyProfile::msp430fr5994(),
                        std::make_unique<arch::ContinuousPower>());
}

std::vector<i16>
runTiny(Impl impl)
{
    auto dev = continuousDevice();
    const auto spec = testutil::tinyNet();
    dnn::DeviceNetwork net(dev, spec);
    net.loadInput(testutil::tinyInput());
    const auto res = runInference(net, impl);
    EXPECT_TRUE(res.completed) << implName(impl);
    return res.logits;
}

std::vector<f64>
tinyFloatReference()
{
    const auto spec = testutil::tinyNet();
    tensor::FeatureMap in(1, 8, 8);
    const auto q = testutil::tinyInput();
    for (u32 i = 0; i < q.size(); ++i)
        in.data[i] = fixed::Q78::fromRaw(q[i]).toFloat();
    return spec.forward(in);
}

TEST(Kernels, BaseMatchesFloatReference)
{
    const auto logits = runTiny(Impl::Base);
    const auto ref = tinyFloatReference();
    ASSERT_EQ(logits.size(), ref.size());
    for (u32 i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(fixed::Q78::fromRaw(logits[i]).toFloat(), ref[i],
                    0.08)
            << "logit " << i;
    }
}

TEST(Kernels, SoftwareImplsBitIdentical)
{
    const auto base = runTiny(Impl::Base);
    EXPECT_EQ(runTiny(Impl::Tile8), base);
    EXPECT_EQ(runTiny(Impl::Tile32), base);
    EXPECT_EQ(runTiny(Impl::Tile128), base);
    EXPECT_EQ(runTiny(Impl::Sonic), base);

    // So is a software tiling the table has no row for.
    auto dev = continuousDevice();
    const auto spec = testutil::tinyNet();
    dnn::DeviceNetwork net(dev, spec);
    net.loadInput(testutil::tinyInput());
    const auto tile64 = runTiled(net, 64);
    EXPECT_TRUE(tile64.completed);
    EXPECT_EQ(tile64.logits, base);
}

TEST(Kernels, TailsCloseToReference)
{
    const auto logits = runTiny(Impl::Tails);
    const auto ref = tinyFloatReference();
    f64 worst = 0.0;
    for (u32 i = 0; i < ref.size(); ++i)
        worst = std::max(worst,
                         std::fabs(fixed::Q78::fromRaw(logits[i])
                                       .toFloat()
                                   - ref[i]));
    EXPECT_LT(worst, 0.25);
}

TEST(Kernels, AllImplsAgreeOnTinyArgmax)
{
    const auto ref = tinyFloatReference();
    const u32 want = tensor::argmax(ref);
    for (auto impl : kAllImpls) {
        const auto logits = runTiny(impl);
        u32 best = 0;
        for (u32 i = 1; i < logits.size(); ++i)
            if (logits[i] > logits[best])
                best = i;
        EXPECT_EQ(best, want) << implName(impl);
    }
}

TEST(Kernels, ImplNamesAndTiles)
{
    EXPECT_EQ(implName(Impl::Sonic), "SONIC");
    EXPECT_EQ(implTileSize(Impl::Tile32), 32u);
    EXPECT_EQ(implTileSize(Impl::Sonic), 0u);
}

TEST(Registry, RoundTripsEveryBuiltinByName)
{
    EXPECT_EQ(std::size(kAllImpls), 6u);
    for (auto impl : kAllImpls) {
        const ImplInfo &row = implInfo(impl);
        EXPECT_EQ(row.id, impl);
        EXPECT_EQ(row.name, implName(impl));
        EXPECT_EQ(row.tileSize, implTileSize(impl));
        // name -> row -> id round trip
        Impl by_name = Impl::Base;
        ASSERT_TRUE(implFromName(row.name, &by_name));
        EXPECT_EQ(by_name, impl);
        EXPECT_EQ(implByName(row.name), impl);
    }
}

TEST(Registry, UnknownLookupsReturnNull)
{
    Impl impl = Impl::Sonic;
    EXPECT_FALSE(implFromName("no-such-impl", &impl));
    EXPECT_EQ(impl, Impl::Sonic);
    EXPECT_EQ(implName(static_cast<Impl>(250)), "?");
    EXPECT_EQ(implTileSize(static_cast<Impl>(250)), 0u);
}

TEST(Registry, UnknownNameIsFatalListingTheSix)
{
    EXPECT_EXIT(implByName("Tile-64"), ::testing::ExitedWithCode(1),
                "fatal: unknown implementation 'Tile-64'; registered "
                "implementations: Base, Tile-8, Tile-32, Tile-128, SONIC, "
                "TAILS");
}

TEST(Kernels, SonicCheaperThanTiledOnDevice)
{
    auto run_cycles = [](Impl impl) {
        auto dev = continuousDevice();
        const auto spec = testutil::tinyNet();
        dnn::DeviceNetwork net(dev, spec);
        net.loadInput(testutil::tinyInput());
        EXPECT_TRUE(runInference(net, impl).completed);
        return dev.cycles();
    };
    const u64 base = run_cycles(Impl::Base);
    const u64 sonic = run_cycles(Impl::Sonic);
    const u64 tile8 = run_cycles(Impl::Tile8);
    EXPECT_GT(sonic, base);       // correctness is not free
    EXPECT_GT(tile8, 2 * sonic);  // but SONIC is far cheaper than tiling
}

TEST(Kernels, SonicReusableForSecondInference)
{
    // Loop state must reset so a second inference on the same device
    // network computes the same answer.
    auto dev = continuousDevice();
    const auto spec = testutil::tinyNet();
    dnn::DeviceNetwork net(dev, spec);
    net.loadInput(testutil::tinyInput());
    const auto first = runInference(net, Impl::Sonic);
    ASSERT_TRUE(first.completed);
    net.loadInput(testutil::tinyInput());
    const auto second = runInference(net, Impl::Sonic);
    ASSERT_TRUE(second.completed);
    EXPECT_EQ(first.logits, second.logits);
}

/** Each implementation computes the three real workloads correctly on
 * continuous power (argmax agreement with the float reference). */
class RealNetContinuous
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(RealNetContinuous, ArgmaxMatchesFloatReference)
{
    const dnn::NetRef net_name =
        dnn::kPaperNets[std::get<0>(GetParam())];
    const auto impl = static_cast<Impl>(std::get<1>(GetParam()));
    // MNIST on the tiled impls is slow; restrict tiled checks to the
    // smaller networks (MNIST tiled correctness is covered by the
    // bit-identity with Base on the tiny net plus Fig. 9 benches).
    if (net_name == "MNIST"
        && (impl == Impl::Tile8 || impl == Impl::Tile32
            || impl == Impl::Tile128)) {
        GTEST_SKIP();
    }

    const auto &entry = dnn::ModelZoo::instance().get(net_name);
    const auto &spec = entry.compressed();
    const auto data = dnn::makeDataset(entry.teacher(), 3, 0xabc);

    auto dev = continuousDevice();
    dnn::DeviceNetwork net(dev, spec);
    u32 agree = 0;
    for (const auto &sample : data) {
        net.loadInput(dnn::DeviceNetwork::quantizeInput(sample.input));
        const auto res = runInference(net, impl);
        ASSERT_TRUE(res.completed);
        u32 best = 0;
        for (u32 i = 1; i < res.logits.size(); ++i)
            if (res.logits[i] > res.logits[best])
                best = i;
        agree += best == spec.classify(sample.input);
    }
    // Quantization may flip a borderline sample; demand majority for
    // the Q7.8 software pipelines. TAILS additionally truncates at
    // LEA's >>15 renormalization (a 1/16 output step), so borderline
    // argmaxes flip more often — require only that it is not always
    // wrong (its intermittent-vs-continuous bit-exactness is covered
    // in test_intermittent.cc).
    EXPECT_GE(agree, impl == Impl::Tails ? 1u : 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RealNetContinuous,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1, 2, 3, 4, 5)));

} // namespace
} // namespace sonic::kernels
