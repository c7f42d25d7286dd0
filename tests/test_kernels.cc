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
#include <cstdlib>
#include <string>

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
    auto &registry = ImplRegistry::instance();
    EXPECT_GE(registry.size(), 6u);
    for (auto impl : kAllImpls) {
        const auto *by_id = registry.find(impl);
        ASSERT_NE(by_id, nullptr);
        EXPECT_EQ(by_id->id, impl);
        EXPECT_EQ(by_id->name, implName(impl));
        EXPECT_EQ(by_id->tileSize, implTileSize(impl));
        // name -> row -> id round trip
        const auto *by_name = registry.find(by_id->name);
        ASSERT_NE(by_name, nullptr);
        EXPECT_EQ(by_name->id, impl);
    }
}

TEST(Registry, UnknownLookupsReturnNull)
{
    auto &registry = ImplRegistry::instance();
    EXPECT_EQ(registry.find("no-such-impl"), nullptr);
    EXPECT_EQ(registry.find(static_cast<Impl>(250)), nullptr);
    EXPECT_EQ(implName(static_cast<Impl>(250)), "?");
    EXPECT_EQ(implTileSize(static_cast<Impl>(250)), 0u);
}

TEST(Registry, DynamicImplPlugsInWithoutRunnerChanges)
{
    // Register the paper's missing middle tiling: a Tile-64 variant
    // using the stock tiled entry point. No switch statement to edit —
    // the registry row is the whole integration. The registry is
    // process-global, so stay idempotent under --gtest_repeat.
    auto &registry = ImplRegistry::instance();
    const auto *existing = registry.find("Tile-64");
    const Impl tile64 = existing != nullptr
        ? existing->id
        : registry.add("Tile-64", 64,
                       [](dnn::DeviceNetwork &net, u32 tile) {
                           return runTiled(net, tile);
                       });

    EXPECT_EQ(implName(tile64), "Tile-64");
    EXPECT_EQ(implTileSize(tile64), 64u);
    const auto *info = registry.find("Tile-64");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->id, tile64);

    // Dispatch through the generic runner; software tilings are
    // bit-identical to Base.
    EXPECT_EQ(runTiny(tile64), runTiny(Impl::Base));

    // Registration order is stable and includes the newcomer.
    const auto all = registry.all();
    EXPECT_EQ(all.front(), Impl::Base);
    EXPECT_NE(std::find(all.begin(), all.end(), tile64), all.end());
}

TEST(Registry, DuplicateNameIsFatal)
{
    EXPECT_EXIT(ImplRegistry::instance().add(
                    "SONIC", 0,
                    [](dnn::DeviceNetwork &net, u32) {
                        return runSonic(net);
                    }),
                ::testing::ExitedWithCode(1),
                "fatal: duplicate implementation registration: SONIC");
}

TEST(Registry, KernelIdsDoNotAlias)
{
    // Ids are row indices: the 257th registration must not wrap onto
    // an earlier id (an 8-bit Impl turned it into Base). Runs in a
    // child process so the extra kernels stay out of other tests.
    EXPECT_EXIT(
        {
            auto &registry = ImplRegistry::instance();
            Impl last = Impl::Base;
            for (u32 i = 0; i < 251; ++i)
                last = registry.add("alias-" + std::to_string(i), 0,
                                    [](dnn::DeviceNetwork &net, u32) {
                                        return runBase(net);
                                    });
            const auto *by_name = registry.find("alias-250");
            const auto *by_id = registry.find(last);
            const bool round_trips = static_cast<u32>(last) >= 256
                && by_name != nullptr && by_name->id == last
                && implName(last) == "alias-250" && by_id == by_name;
            std::exit(round_trips ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
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
