/**
 * @file
 * Tests for the serialized model format: save/load round trips must be
 * bit-exact (f64 weights, device logits, FRAM digests across kernels),
 * and malformed documents — wrong format/version, corrupt hex,
 * dimension mismatches, truncation — must be rejected with a
 * diagnostic, never crash or load garbage.
 */

#include <gtest/gtest.h>

#include "dnn/builder.hh"
#include "dnn/model_io.hh"
#include "dnn/zoo.hh"
#include "verify/oracle.hh"

namespace sonic::dnn
{
namespace
{

/** A tiny fixed net for corruption tests (one dense FC 4 x 16). */
NetworkSpec
verifyGoldenTiny()
{
    return NetworkBuilder("io-tiny", {1, 4, 4}).fc("out", 4).build();
}

/** Continuous-power oracle observation of a network. */
verify::Observation
observe(const NetworkSpec &net, const std::vector<i16> &input,
        kernels::Impl impl, const verify::Schedule &schedule = {})
{
    return verify::localRunner(verify::LocalWorkload(net, input, impl))(
        schedule);
}

NetworkSpec
reparse(const NetworkSpec &net)
{
    std::string error;
    auto loaded = parseModel(modelJson(net), &error);
    EXPECT_TRUE(loaded.has_value()) << error;
    return *loaded;
}

TEST(ModelIo, JsonRoundTripIsByteIdentical)
{
    for (const auto &name : ModelZoo::instance().names()) {
        const auto &net = ModelZoo::instance().get(name).compressed();
        const std::string first = modelJson(net);
        std::string error;
        const auto loaded = parseModel(first, &error);
        ASSERT_TRUE(loaded.has_value()) << name << ": " << error;
        EXPECT_EQ(modelJson(*loaded), first) << name;
        EXPECT_EQ(loaded->name, net.name);
        EXPECT_EQ(loaded->numClasses, net.numClasses);
        EXPECT_EQ(loaded->layers.size(), net.layers.size());
    }
}

TEST(ModelIo, RoundTripBitIdenticalOnDeviceAcrossModelsAndKernels)
{
    const kernels::Impl impls[] = {
        kernels::Impl::Base, kernels::Impl::Tile8,
        kernels::Impl::Sonic, kernels::Impl::Tails};
    for (const auto &name : ModelZoo::instance().names()) {
        const auto &entry = ModelZoo::instance().get(name);
        const auto loaded = reparse(entry.compressed());
        const auto input = dnn::DeviceNetwork::quantizeInput(
            entry.dataset()[0].input);
        for (auto impl : impls) {
            const auto a = observe(entry.compressed(), input, impl);
            const auto b = observe(loaded, input, impl);
            ASSERT_TRUE(a.completed)
                << name << "/" << kernels::implName(impl);
            EXPECT_EQ(a.logits, b.logits)
                << name << "/" << kernels::implName(impl);
            EXPECT_EQ(a.cycles, b.cycles)
                << name << "/" << kernels::implName(impl);
            EXPECT_EQ(a.opInstances, b.opInstances)
                << name << "/" << kernels::implName(impl);
            EXPECT_EQ(a.finalNvmDigest, b.finalNvmDigest)
                << name << "/" << kernels::implName(impl);
        }
    }
}

TEST(ModelIo, RoundTripPreservesRebootDigestChainUnderFailures)
{
    const auto &entry = ModelZoo::instance().get("golden");
    const auto loaded = reparse(entry.compressed());
    const auto input = dnn::DeviceNetwork::quantizeInput(
        entry.dataset()[0].input);
    const verify::Schedule schedule = {500, 1500, 2500};
    const auto a =
        observe(entry.compressed(), input, kernels::Impl::Sonic,
                schedule);
    const auto b = observe(loaded, input, kernels::Impl::Sonic,
                           schedule);
    ASSERT_TRUE(a.completed);
    EXPECT_GT(a.reboots, 0u);
    EXPECT_EQ(a.reboots, b.reboots);
    EXPECT_EQ(a.logits, b.logits);
    EXPECT_EQ(a.rebootDigests, b.rebootDigests);
    EXPECT_EQ(a.finalNvmDigest, b.finalNvmDigest);
}

TEST(ModelIo, FileRoundTripAndZooRegistration)
{
    const auto net = deepFcNet("file-roundtrip-model", 16, 2, 8, 4);
    const std::string path =
        ::testing::TempDir() + "sonic_model_roundtrip.json";
    std::string error;
    ASSERT_TRUE(saveModelFile(net, path, &error)) << error;
    const auto loaded = loadModelFile(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(modelJson(*loaded), modelJson(net));

    auto &zoo = ModelZoo::instance();
    if (!zoo.contains("file-roundtrip-model")) {
        ASSERT_TRUE(loadModelIntoZoo(path, zoo, &error)) << error;
        EXPECT_EQ(zoo.get("file-roundtrip-model").meta().family,
                  "loaded");
    }
    // A second load of the same name is rejected, not overwritten.
    EXPECT_FALSE(loadModelIntoZoo(path, zoo, &error));
    EXPECT_NE(error.find("already registered"), std::string::npos);
}

TEST(ModelIo, MissingFileIsAnError)
{
    std::string error;
    EXPECT_FALSE(
        loadModelFile("/no/such/dir/model.json", &error).has_value());
    EXPECT_NE(error.find("cannot read"), std::string::npos);
}

TEST(ModelIo, RejectsNonJsonAndTrailingGarbage)
{
    std::string error;
    EXPECT_FALSE(parseModel("not json at all", &error).has_value());
    EXPECT_NE(error.find("JSON parse error"), std::string::npos);

    const auto good = modelJson(verifyGoldenTiny());
    EXPECT_FALSE(parseModel(good + "extra", &error).has_value());
    EXPECT_NE(error.find("trailing garbage"), std::string::npos);
}

TEST(ModelIo, RejectsWrongFormatAndUnknownVersions)
{
    auto good = modelJson(verifyGoldenTiny());
    std::string error;

    std::string wrong_format = good;
    wrong_format.replace(wrong_format.find("sonic-model"),
                         std::string("sonic-model").size(),
                         "other-format");
    EXPECT_FALSE(parseModel(wrong_format, &error).has_value());
    EXPECT_NE(error.find("not a sonic-model"), std::string::npos);

    const std::string tag =
        "\"version\": " + std::to_string(kModelFormatVersion);
    ASSERT_NE(good.find(tag), std::string::npos);

    std::string future = good;
    future.replace(future.find(tag), tag.size(), "\"version\": 3");
    EXPECT_FALSE(parseModel(future, &error).has_value());
    EXPECT_NE(error.find("unsupported model format version 3"),
              std::string::npos);

    std::string ancient = good;
    ancient.replace(ancient.find(tag), tag.size(), "\"version\": 0");
    EXPECT_FALSE(parseModel(ancient, &error).has_value());
    EXPECT_NE(error.find("unsupported model format version 0"),
              std::string::npos);
}

TEST(ModelIo, RejectsCorruptBlobsAndDimensionMismatches)
{
    auto good = modelJson(verifyGoldenTiny());
    std::string error;

    // Truncate one base64 character out of the first blob: no longer
    // a multiple of 4 characters.
    const auto data = good.find("\"data\": \"");
    ASSERT_NE(data, std::string::npos);
    std::string truncated = good;
    truncated.erase(data + 9, 1);
    EXPECT_FALSE(parseModel(truncated, &error).has_value());
    EXPECT_NE(error.find("multiple of 4"), std::string::npos);

    // Corrupt a character into a non-base64 one.
    std::string corrupt = good;
    corrupt[data + 10] = '~';
    EXPECT_FALSE(parseModel(corrupt, &error).has_value());
    EXPECT_NE(error.find("invalid base64 character"),
              std::string::npos);

    // A whole valid-looking group whose byte count is not a whole
    // number of f64s (4 chars -> 3 bytes).
    std::string short_blob = good;
    short_blob.replace(data + 9, short_blob.find('"', data + 9)
                                     - (data + 9),
                       "AAAA");
    EXPECT_FALSE(parseModel(short_blob, &error).has_value());
    EXPECT_NE(error.find("not a whole number of f64"),
              std::string::npos);

    // Misplaced padding inside the blob.
    std::string bad_pad = good;
    bad_pad[data + 9] = '=';
    EXPECT_FALSE(parseModel(bad_pad, &error).has_value());
    EXPECT_TRUE(error.find("padding") != std::string::npos
                || error.find("base64") != std::string::npos)
        << error;

    // Declare the wrong dimensions for the (intact) blob.
    const std::string rows_tag = "\"rows\": 4";
    std::string mismatched = good;
    ASSERT_NE(mismatched.find(rows_tag), std::string::npos);
    mismatched.replace(mismatched.find(rows_tag), rows_tag.size(),
                       "\"rows\": 5");
    EXPECT_FALSE(parseModel(mismatched, &error).has_value());
    EXPECT_TRUE(error.find("blob holds") != std::string::npos
                || error.find("FC expects") != std::string::npos)
        << error;
}

TEST(ModelIo, ReadsLegacyV1HexDocumentsBitExactly)
{
    // v1 (hex blobs) is still a supported read format: a v1 document
    // of any zoo model must load to the identical network — the same
    // v2 re-serialization, logits, cycles and FRAM digests.
    for (const auto &name : {std::string("golden"),
                             std::string("DeepFC-6")}) {
        const auto &entry = ModelZoo::instance().get(name);
        const std::string v1 =
            testhooks::modelJsonV1(entry.compressed());
        EXPECT_NE(v1.find("\"version\": 1"), std::string::npos);
        std::string error;
        const auto loaded = parseModel(v1, &error);
        ASSERT_TRUE(loaded.has_value()) << name << ": " << error;
        EXPECT_EQ(modelJson(*loaded), modelJson(entry.compressed()))
            << name;

        const auto input = dnn::DeviceNetwork::quantizeInput(
            entry.dataset()[0].input);
        const auto a =
            observe(entry.compressed(), input, kernels::Impl::Sonic);
        const auto b = observe(*loaded, input, kernels::Impl::Sonic);
        EXPECT_EQ(a.logits, b.logits) << name;
        EXPECT_EQ(a.cycles, b.cycles) << name;
        EXPECT_EQ(a.finalNvmDigest, b.finalNvmDigest) << name;
    }

    // v1 corruption diagnostics still work (hex-specific messages).
    const std::string v1 =
        testhooks::modelJsonV1(verifyGoldenTiny());
    const auto data = v1.find("\"data\": \"");
    ASSERT_NE(data, std::string::npos);
    std::string error;
    std::string truncated = v1;
    truncated.erase(data + 9, 1);
    EXPECT_FALSE(parseModel(truncated, &error).has_value());
    EXPECT_NE(error.find("multiple of 16"), std::string::npos);
    std::string corrupt = v1;
    corrupt[data + 10] = 'z';
    EXPECT_FALSE(parseModel(corrupt, &error).has_value());
    EXPECT_NE(error.find("invalid hex digit"), std::string::npos);
}

TEST(ModelIo, V2FilesAreSmallerThanV1)
{
    const auto &entry = ModelZoo::instance().get("golden");
    const std::string v1 = testhooks::modelJsonV1(entry.compressed());
    const std::string v2 = modelJson(entry.compressed());
    // base64 is 10.67 chars per weight vs hex's 16: ~1.5x on the raw
    // blob, approaching 2x once shared structure is amortized on
    // weight-heavy models. The tiny golden net still shrinks clearly.
    EXPECT_LT(v2.size(), v1.size() * 0.80) << v2.size() << " vs "
                                           << v1.size();
}

TEST(ModelIo, RejectsMissingFieldsAndBadShapes)
{
    std::string error;
    EXPECT_FALSE(
        parseModel("{\"format\": \"sonic-model\", \"version\": 1}",
                   &error)
            .has_value());
    EXPECT_NE(error.find("missing"), std::string::npos);

    // A dimensionally inconsistent but well-formed document: an FC
    // that expects more inputs than the input shape provides.
    tensor::Matrix w(2, 9);
    NetworkSpec bad;
    bad.name = "bad-shape";
    bad.input = {1, 2, 2};
    bad.numClasses = 2;
    bad.layers.push_back({"fc", DenseFcLayer{w}, false, false});
    EXPECT_FALSE(parseModel(modelJson(bad), &error).has_value());
    EXPECT_NE(error.find("FC expects"), std::string::npos);
}

} // namespace
} // namespace sonic::dnn
