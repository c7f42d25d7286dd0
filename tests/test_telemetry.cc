/**
 * @file
 * The .sonicz telemetry container: codec primitives (varints, zigzag,
 * the in-tree LZ), randomized lossless round trips for both schemas,
 * sonic_cat subset semantics, and corruption/truncation rejection.
 *
 * The headline property is byte-identity: re-emitting a .sonicz file
 * through telemetry::catSonicz must reproduce the direct
 * CsvSink/JsonSink/FleetCsvSink/FleetJsonSink output byte for byte,
 * including awkward strings (commas, quotes, newlines) and f64 bit
 * patterns a fixed decimal precision would destroy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <tuple>
#include <variant>

#include "telemetry/aggregate.hh"
#include "telemetry/cat.hh"
#include "telemetry/codec.hh"
#include "telemetry/sonicz.hh"
#include "util/json_parse.hh"

namespace sonic
{
namespace
{

using telemetry::Bytes;

// --- Corpus generators ----------------------------------------------

/** Awkward-but-legal telemetry strings: CSV quoting and JSON escaping
 * must survive the round trip. */
const char *const kAwkwardNames[] = {
    "MNIST",
    "HAR",
    "OkG",
    "net,with,commas",
    "net \"quoted\"",
    "net\nnewline",
    "  padded  ",
};

f64
randomF64(std::mt19937_64 &rng)
{
    switch (rng() % 8) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return 1e300 * (rng() % 2 ? 1.0 : -1.0);
      case 3: return 5e-324; // smallest denormal
      case 4: return 0.1;
      case 5: return 1.0 / 3.0;
      case 6: return static_cast<f64>(rng() % 100000);
      default: {
        // Random finite bit pattern.
        for (;;) {
            const f64 v = std::bit_cast<f64>(rng());
            if (std::isfinite(v))
                return v;
        }
      }
    }
}

app::SweepRecord
randomSweepRecord(std::mt19937_64 &rng, u32 index)
{
    app::SweepRecord record;
    record.planIndex = index;
    auto &spec = record.spec;
    spec.net = kAwkwardNames[rng() % std::size(kAwkwardNames)];
    spec.impl =
        kernels::kAllImpls[rng() % std::size(kernels::kAllImpls)];
    spec.profile =
        app::kAllProfiles[rng() % std::size(app::kAllProfiles)];
    spec.sampleIndex = static_cast<u32>(rng() % 16);
    spec.seed = rng();
    switch (rng() % 3) {
      case 0: // awkward names and f64 bit patterns
        spec.environment.env =
            kAwkwardNames[rng() % std::size(kAwkwardNames)];
        spec.environment.capacitanceFarads = randomF64(rng);
        break;
      case 1: { // the paper's capacitors
        const f64 farads[] = {50e-3, 1e-3, 100e-6};
        spec.environment = {"rf-paper", farads[rng() % 3]};
        break;
      }
      default: break; // continuous wall power
    }
    spec.captureNvmDigests = rng() % 2 == 0;

    auto &r = record.result;
    // The status triple has three legal states; the sinks and the
    // .sonicz status column encode exactly those.
    switch (rng() % 3) {
      case 0: r.completed = true; break;
      case 1: r.nonTerminating = true; break;
      default: break; // "fail"
    }
    r.reboots = rng() % 100000;
    r.tasksExecuted = rng();
    r.liveSeconds = randomF64(rng);
    r.deadSeconds = randomF64(rng);
    r.totalSeconds = randomF64(rng);
    r.energyJ = randomF64(rng);
    r.harvestedJ = randomF64(rng);
    r.predictedClass = static_cast<u32>(rng() % 10);
    r.tailsTileWords = static_cast<u32>(rng() % 4096);
    r.opInstances = rng() % 1000000;
    r.finalNvmDigest = rng();
    const u64 digests = rng() % 4;
    for (u64 i = 0; i < digests; ++i)
        r.rebootDigests.push_back(rng());
    const u64 layers = rng() % 4;
    for (u64 i = 0; i < layers; ++i)
        r.layers.push_back(
            {kAwkwardNames[rng() % std::size(kAwkwardNames)],
             randomF64(rng), randomF64(rng), randomF64(rng)});
    const u64 ops = rng() % 4;
    for (u64 i = 0; i < ops; ++i)
        r.energyByOp[kAwkwardNames[rng() % std::size(kAwkwardNames)]] =
            randomF64(rng);
    const u64 logits = rng() % 6;
    for (u64 i = 0; i < logits; ++i)
        r.logits.push_back(static_cast<i16>(rng()));
    return record;
}

fleet::DeviceTelemetry
randomFleetTelemetry(std::mt19937_64 &rng, u32 index)
{
    fleet::DeviceTelemetry t;
    auto &a = t.assignment;
    a.deviceIndex = index;
    a.net = kAwkwardNames[rng() % std::size(kAwkwardNames)];
    a.impl = kernels::kAllImpls[rng() % std::size(kernels::kAllImpls)];
    a.environment.env =
        kAwkwardNames[rng() % std::size(kAwkwardNames)];
    a.environment.capacitanceFarads =
        rng() % 2 ? randomF64(rng) : 0.0;
    a.pipeline = rng() % 2 ? "infer-only" : "wildlife";
    a.seed = rng();
    switch (rng() % 3) {
      case 0: t.diedNonTerminating = true; break;
      case 1: t.failedIncomplete = true; break;
      default: break; // "ok"
    }
    t.inferencesCompleted = static_cast<u32>(rng() % 100);
    t.reboots = rng() % 1000000;
    t.liveSeconds = randomF64(rng);
    t.deadSeconds = randomF64(rng);
    t.energyJ = randomF64(rng);
    t.harvestedJ = randomF64(rng);
    t.resultsDelivered = static_cast<u32>(rng() % 50);
    t.txGaveUpRounds = static_cast<u32>(rng() % 5);
    t.txAttempts = rng() % 500;
    t.txRetries = rng() % 100;
    t.radioEnergyJ = randomF64(rng);
    t.senseEnergyJ = randomF64(rng);
    t.txBackoffSeconds = randomF64(rng);
    t.inferenceSecondsSum = randomF64(rng);
    t.deliverySecondsSum = randomF64(rng);
    return t;
}

std::string
directSweepOutput(const std::vector<app::SweepRecord> &records,
                  bool json)
{
    std::ostringstream os;
    app::CsvSink csv(os);
    app::JsonSink js(os);
    app::ResultSink &sink =
        json ? static_cast<app::ResultSink &>(js) : csv;
    sink.begin(records.size());
    for (const auto &record : records)
        sink.add(record);
    sink.end();
    return os.str();
}

std::string
directFleetOutput(const std::vector<fleet::DeviceTelemetry> &rows,
                  bool json)
{
    std::ostringstream os;
    fleet::FleetCsvSink csv(os);
    fleet::FleetJsonSink js(os);
    fleet::FleetSink &sink =
        json ? static_cast<fleet::FleetSink &>(js) : csv;
    sink.begin(rows.size());
    for (const auto &row : rows)
        sink.add(row);
    sink.end();
    return os.str();
}

std::string
packSweep(const std::vector<app::SweepRecord> &records)
{
    std::ostringstream os;
    telemetry::SoniczSweepSink sink(os);
    sink.begin(records.size());
    for (const auto &record : records)
        sink.add(record);
    sink.end();
    return os.str();
}

std::string
packFleet(const std::vector<fleet::DeviceTelemetry> &rows,
          u32 encoder_threads = 0)
{
    std::ostringstream os;
    telemetry::SoniczFleetSink sink(os, encoder_threads);
    sink.begin(rows.size());
    for (const auto &row : rows)
        sink.add(row);
    sink.end();
    return os.str();
}

std::string
catToString(const std::string &packed,
            const telemetry::CatOptions &options)
{
    std::istringstream in(packed);
    std::ostringstream out;
    std::string error;
    EXPECT_TRUE(telemetry::catSonicz(in, out, options, &error))
        << error;
    return out.str();
}

// --- Parsed JSON sink output ----------------------------------------

/** The array `json` parses to (empty when it does not parse). */
jsonp::JsonArray
parsedArray(const std::string &json)
{
    jsonp::JsonValue root;
    std::string error;
    EXPECT_TRUE(jsonp::parseJson(json, &root, &error)) << error;
    const auto *array = root.array();
    return array != nullptr ? *array : jsonp::JsonArray{};
}

/** `obj[key]` is `expected` bit for bit, or null where `expected` is
 * not finite (JSON has no token for it). */
void
expectJsonF64(const jsonp::JsonObject &obj, const std::string &key,
              f64 expected)
{
    const auto it = obj.find(key);
    ASSERT_NE(it, obj.end()) << key;
    if (!std::isfinite(expected)) {
        EXPECT_TRUE(
            std::holds_alternative<std::nullptr_t>(it->second.v))
            << key;
        return;
    }
    const f64 *got = it->second.number();
    ASSERT_NE(got, nullptr) << key;
    EXPECT_EQ(std::bit_cast<u64>(*got), std::bit_cast<u64>(expected))
        << key << " = " << *got;
}

void
expectSweepJsonValues(const std::string &json,
                      const std::vector<app::SweepRecord> &records)
{
    const auto array = parsedArray(json);
    ASSERT_EQ(array.size(), records.size());
    for (u64 i = 0; i < records.size(); ++i) {
        const auto *obj = array[i].object();
        ASSERT_NE(obj, nullptr);
        const auto &r = records[i].result;
        expectJsonF64(*obj, "liveSeconds", r.liveSeconds);
        expectJsonF64(*obj, "deadSeconds", r.deadSeconds);
        expectJsonF64(*obj, "totalSeconds", r.totalSeconds);
        expectJsonF64(*obj, "energyJ", r.energyJ);
        expectJsonF64(*obj, "harvestedJ", r.harvestedJ);
        const auto *layers = obj->at("layers").array();
        ASSERT_NE(layers, nullptr);
        ASSERT_EQ(layers->size(), r.layers.size());
        for (u64 l = 0; l < r.layers.size(); ++l) {
            const auto *layer = (*layers)[l].object();
            ASSERT_NE(layer, nullptr);
            expectJsonF64(*layer, "kernelSeconds",
                          r.layers[l].kernelSeconds);
            expectJsonF64(*layer, "controlSeconds",
                          r.layers[l].controlSeconds);
            expectJsonF64(*layer, "energyJ", r.layers[l].energyJ);
        }
        const auto *ops = obj->at("energyByOp").object();
        ASSERT_NE(ops, nullptr);
        ASSERT_EQ(ops->size(), r.energyByOp.size());
        for (const auto &[op, joules] : r.energyByOp)
            expectJsonF64(*ops, op, joules);
    }
}

void
expectFleetJsonValues(const std::string &json,
                      const std::vector<fleet::DeviceTelemetry> &rows)
{
    const auto array = parsedArray(json);
    ASSERT_EQ(array.size(), rows.size());
    for (u64 i = 0; i < rows.size(); ++i) {
        const auto *obj = array[i].object();
        ASSERT_NE(obj, nullptr);
        const auto &t = rows[i];
        expectJsonF64(*obj, "liveSeconds", t.liveSeconds);
        expectJsonF64(*obj, "deadSeconds", t.deadSeconds);
        expectJsonF64(*obj, "totalSeconds", t.totalSeconds());
        expectJsonF64(*obj, "energyJ", t.energyJ);
        expectJsonF64(*obj, "harvestedJ", t.harvestedJ);
        expectJsonF64(*obj, "inferencesPerDay", t.inferencesPerDay());
        expectJsonF64(*obj, "rebootsPerInference",
                      t.rebootsPerInference());
        expectJsonF64(*obj, "deadFraction", t.deadFraction());
        expectJsonF64(*obj, "energyPerInferenceJ",
                      t.energyPerInferenceJ());
        expectJsonF64(*obj, "meanInferenceSeconds",
                      t.meanInferenceSeconds());
        expectJsonF64(*obj, "radioEnergyJ", t.radioEnergyJ);
        expectJsonF64(*obj, "senseEnergyJ", t.senseEnergyJ);
        expectJsonF64(*obj, "txBackoffSeconds", t.txBackoffSeconds);
        expectJsonF64(*obj, "meanDeliverySeconds",
                      t.meanDeliverySeconds());
    }
}

// --- Codec primitives -----------------------------------------------

TEST(TelemetryCodec, VarintRoundTrip)
{
    std::mt19937_64 rng(0x5eed);
    std::vector<u64> values = {0, 1, 127, 128, 16383, 16384,
                               ~0ull, ~0ull - 1, 1ull << 63};
    for (u32 i = 0; i < 200; ++i)
        values.push_back(rng() >> (rng() % 64));
    Bytes buffer;
    for (const u64 v : values)
        telemetry::putVarint(buffer, v);
    u64 pos = 0;
    for (const u64 expected : values) {
        u64 got = 0;
        ASSERT_TRUE(telemetry::getVarint(buffer, &pos, &got));
        EXPECT_EQ(got, expected);
    }
    EXPECT_EQ(pos, buffer.size());
}

TEST(TelemetryCodec, VarintRejectsTruncationAndOverflow)
{
    u64 pos = 0, value = 0;
    const Bytes truncated = {0x80, 0x80};
    EXPECT_FALSE(telemetry::getVarint(truncated, &pos, &value));

    // 10 bytes whose final byte carries bits beyond 2^64.
    Bytes overlong(9, 0x80);
    overlong.push_back(0x02);
    pos = 0;
    EXPECT_FALSE(telemetry::getVarint(overlong, &pos, &value));

    // ~0ull itself round-trips (final byte 0x01).
    Bytes max_ok;
    telemetry::putVarint(max_ok, ~0ull);
    pos = 0;
    ASSERT_TRUE(telemetry::getVarint(max_ok, &pos, &value));
    EXPECT_EQ(value, ~0ull);
}

TEST(TelemetryCodec, ZigzagRoundTrip)
{
    const i64 values[] = {0, 1, -1, 2, -2, i64{1} << 62,
                          -(i64{1} << 62), INT64_MAX, INT64_MIN};
    for (const i64 v : values)
        EXPECT_EQ(telemetry::unzigzag(telemetry::zigzag(v)), v);
    EXPECT_EQ(telemetry::zigzag(0), 0u);
    EXPECT_EQ(telemetry::zigzag(-1), 1u);
    EXPECT_EQ(telemetry::zigzag(1), 2u);
}

TEST(TelemetryCodec, LzRoundTrips)
{
    std::mt19937_64 rng(0xc0dec);
    std::vector<Bytes> inputs;
    inputs.push_back({});                    // empty
    inputs.push_back(Bytes(10000, 0x42));    // pure RLE
    Bytes random_bytes(10000);
    for (auto &b : random_bytes)
        b = static_cast<u8>(rng());          // incompressible
    inputs.push_back(random_bytes);
    Bytes structured;                        // repeating record shape
    for (u32 i = 0; i < 2000; ++i) {
        structured.push_back(static_cast<u8>(i % 7));
        structured.insert(structured.end(),
                          {'s', 'o', 'l', 'a', 'r', ','});
    }
    inputs.push_back(structured);
    Bytes short_input = {1, 2, 3};           // below min match
    inputs.push_back(short_input);

    for (const auto &input : inputs) {
        const Bytes packed = telemetry::lzCompress(input);
        Bytes restored;
        ASSERT_TRUE(
            telemetry::lzDecompress(packed, input.size(), &restored));
        EXPECT_EQ(restored, input);
    }

    // Repetitive input must actually compress.
    EXPECT_LT(telemetry::lzCompress(Bytes(10000, 0x42)).size(), 200u);
}

TEST(TelemetryCodec, LzRejectsMalformedStreams)
{
    Bytes input(4096);
    for (u64 i = 0; i < input.size(); ++i)
        input[i] = static_cast<u8>(i % 31);
    const Bytes packed = telemetry::lzCompress(input);
    Bytes out;

    // Wrong raw size (both directions).
    EXPECT_FALSE(
        telemetry::lzDecompress(packed, input.size() - 1, &out));
    EXPECT_FALSE(
        telemetry::lzDecompress(packed, input.size() + 1, &out));

    // Truncations must never crash and never yield wrong bytes. (One
    // prefix CAN succeed: cutting exactly before the redundant final
    // empty-literal token still decodes to the full input. Container-
    // level truncation is caught by the chunk checksums regardless —
    // see Sonicz.EveryTruncationIsRejected.)
    for (u64 cut = 0; cut < packed.size(); ++cut) {
        const Bytes prefix(packed.begin(),
                           packed.begin() + static_cast<i64>(cut));
        if (telemetry::lzDecompress(prefix, input.size(), &out)) {
            EXPECT_EQ(out, input) << "prefix " << cut;
        }
    }

    // A zero offset is never legal.
    const Bytes zero_offset = {0x14, 'a', 0x00, 0x00};
    EXPECT_FALSE(telemetry::lzDecompress(zero_offset, 100, &out));
    // An offset pointing before the start of the output is not either.
    const Bytes far_offset = {0x14, 'a', 0x09, 0x00};
    EXPECT_FALSE(telemetry::lzDecompress(far_offset, 100, &out));
}

// --- Lossless round trips -------------------------------------------

TEST(Sonicz, SweepRoundTripIsByteIdentical)
{
    std::mt19937_64 rng(0x51ee9);
    std::vector<app::SweepRecord> records;
    for (u32 i = 0; i < 300; ++i)
        records.push_back(randomSweepRecord(rng, i));

    const std::string packed = packSweep(records);
    telemetry::CatOptions options;
    EXPECT_EQ(catToString(packed, options),
              directSweepOutput(records, /*json=*/false));
    options.format = telemetry::CatOptions::Format::Json;
    const std::string json = directSweepOutput(records, /*json=*/true);
    EXPECT_EQ(catToString(packed, options), json);
    expectSweepJsonValues(json, records);
}

TEST(Sonicz, FleetRoundTripIsByteIdenticalAcrossBlocks)
{
    std::mt19937_64 rng(0xf1ee7);
    std::vector<fleet::DeviceTelemetry> rows;
    // > kRowsPerBlock so the round trip crosses a block boundary.
    const u32 count = telemetry::SoniczWriter::kRowsPerBlock + 1000;
    for (u32 i = 0; i < count; ++i)
        rows.push_back(randomFleetTelemetry(rng, i));

    const std::string packed = packFleet(rows);
    telemetry::CatOptions options;
    EXPECT_EQ(catToString(packed, options),
              directFleetOutput(rows, /*json=*/false));
    options.format = telemetry::CatOptions::Format::Json;
    const std::string json = directFleetOutput(rows, /*json=*/true);
    EXPECT_EQ(catToString(packed, options), json);
    expectFleetJsonValues(json, rows);

    std::istringstream in(packed);
    telemetry::SoniczInfo info;
    std::string error;
    ASSERT_TRUE(
        telemetry::readSonicz(in, nullptr, nullptr, &info, &error))
        << error;
    EXPECT_EQ(info.kind, telemetry::SchemaKind::Fleet);
    EXPECT_EQ(info.rows, count);
    EXPECT_EQ(info.blocks, 2u);
}

TEST(Sonicz, ParallelBlockEncodingIsByteIdenticalToSerial)
{
    // The background encoder compresses blocks out of order but the
    // writer emits them in sequence, so the worker count must never
    // show in the bytes — the same promise the fleet's traced and
    // sweep sinks rely on when they default to the run's thread count.
    std::mt19937_64 rng(0xecc0de);
    std::vector<fleet::DeviceTelemetry> rows;
    const u32 count = telemetry::SoniczWriter::kRowsPerBlock * 3 + 17;
    for (u32 i = 0; i < count; ++i)
        rows.push_back(randomFleetTelemetry(rng, i));

    const std::string serial = packFleet(rows, 0);
    for (const u32 threads : {1u, 2u, 4u}) {
        EXPECT_EQ(packFleet(rows, threads), serial)
            << threads << " encoder threads";
    }
}

TEST(Sonicz, FieldsSurviveBitExactly)
{
    std::mt19937_64 rng(0xb17);
    std::vector<app::SweepRecord> records;
    for (u32 i = 0; i < 50; ++i)
        records.push_back(randomSweepRecord(rng, i));
    const std::string packed = packSweep(records);

    std::vector<app::SweepRecord> restored;
    std::istringstream in(packed);
    std::string error;
    ASSERT_TRUE(telemetry::readSonicz(
        in,
        [&](const app::SweepRecord &r) { restored.push_back(r); },
        nullptr, nullptr, &error))
        << error;
    ASSERT_EQ(restored.size(), records.size());
    for (u64 i = 0; i < records.size(); ++i) {
        const auto &a = records[i];
        const auto &b = restored[i];
        EXPECT_EQ(a.planIndex, b.planIndex);
        EXPECT_EQ(a.spec.net, b.spec.net);
        EXPECT_EQ(a.spec.impl, b.spec.impl);
        EXPECT_EQ(a.spec.profile, b.spec.profile);
        EXPECT_EQ(a.spec.environment.env, b.spec.environment.env);
        // f64 equality must be on the bit pattern: -0.0 == 0.0 would
        // wave a lossy encoder through.
        EXPECT_EQ(
            std::bit_cast<u64>(a.spec.environment.capacitanceFarads),
            std::bit_cast<u64>(b.spec.environment.capacitanceFarads));
        EXPECT_EQ(a.spec.seed, b.spec.seed);
        EXPECT_EQ(a.spec.captureNvmDigests, b.spec.captureNvmDigests);
        EXPECT_EQ(a.result.completed, b.result.completed);
        EXPECT_EQ(a.result.nonTerminating, b.result.nonTerminating);
        EXPECT_EQ(std::bit_cast<u64>(a.result.liveSeconds),
                  std::bit_cast<u64>(b.result.liveSeconds));
        EXPECT_EQ(std::bit_cast<u64>(a.result.energyJ),
                  std::bit_cast<u64>(b.result.energyJ));
        EXPECT_EQ(a.result.rebootDigests, b.result.rebootDigests);
        EXPECT_EQ(a.result.energyByOp, b.result.energyByOp);
        EXPECT_EQ(a.result.logits, b.result.logits);
        ASSERT_EQ(a.result.layers.size(), b.result.layers.size());
        for (u64 l = 0; l < a.result.layers.size(); ++l) {
            EXPECT_EQ(a.result.layers[l].name,
                      b.result.layers[l].name);
            EXPECT_EQ(
                std::bit_cast<u64>(a.result.layers[l].kernelSeconds),
                std::bit_cast<u64>(b.result.layers[l].kernelSeconds));
        }
    }
}

// --- Subset flags ---------------------------------------------------

TEST(SonicCat, SubsetFlagsMatchPostHocFiltering)
{
    std::mt19937_64 rng(0xf117e4);
    std::vector<fleet::DeviceTelemetry> rows;
    for (u32 i = 0; i < 400; ++i)
        rows.push_back(randomFleetTelemetry(rng, i));
    const std::string packed = packFleet(rows);

    const auto expect_filtered =
        [&](const telemetry::CatOptions &options,
            const std::function<bool(const fleet::DeviceTelemetry &)>
                &keep) {
            std::vector<fleet::DeviceTelemetry> kept;
            for (const auto &row : rows)
                if (keep(row))
                    kept.push_back(row);
            EXPECT_EQ(
                catToString(packed, options),
                directFleetOutput(
                    kept,
                    options.format
                        == telemetry::CatOptions::Format::Json));
        };

    telemetry::CatOptions by_impl;
    by_impl.impl = "SONIC";
    expect_filtered(by_impl, [](const fleet::DeviceTelemetry &t) {
        return kernels::implName(t.assignment.impl) == "SONIC";
    });

    // --env matches the bare environment name even when the row's
    // label carries a capacitor suffix.
    telemetry::CatOptions by_env;
    by_env.env = "MNIST"; // corpus reuses awkward names as env names
    expect_filtered(by_env, [](const fleet::DeviceTelemetry &t) {
        return t.assignment.environment.env == "MNIST";
    });

    telemetry::CatOptions by_status;
    by_status.status = "dnf";
    by_status.format = telemetry::CatOptions::Format::Json;
    expect_filtered(by_status, [](const fleet::DeviceTelemetry &t) {
        return t.diedNonTerminating;
    });

    telemetry::CatOptions by_range;
    by_range.hasRange = true;
    by_range.rangeLo = 100;
    by_range.rangeHi = 199;
    expect_filtered(by_range, [](const fleet::DeviceTelemetry &t) {
        return t.assignment.deviceIndex >= 100
            && t.assignment.deviceIndex <= 199;
    });

    // Conjunction of filters.
    telemetry::CatOptions both;
    both.impl = "SONIC";
    both.status = "ok";
    both.hasRange = true;
    both.rangeLo = 0;
    both.rangeHi = 250;
    expect_filtered(both, [](const fleet::DeviceTelemetry &t) {
        return kernels::implName(t.assignment.impl) == "SONIC"
            && !t.diedNonTerminating && !t.failedIncomplete
            && t.assignment.deviceIndex <= 250;
    });

    // A filter that matches nothing still yields the schema-correct
    // empty artifact.
    telemetry::CatOptions none;
    none.net = "no-such-net";
    expect_filtered(none,
                    [](const fleet::DeviceTelemetry &) { return false; });
}

TEST(SonicCat, ParseIndexRange)
{
    u64 lo = 99, hi = 99;
    EXPECT_TRUE(telemetry::parseIndexRange("3..7", &lo, &hi));
    EXPECT_EQ(lo, 3u);
    EXPECT_EQ(hi, 7u);
    EXPECT_TRUE(telemetry::parseIndexRange("12", &lo, &hi));
    EXPECT_EQ(lo, 12u);
    EXPECT_EQ(hi, 12u);
    EXPECT_FALSE(telemetry::parseIndexRange("7..3", &lo, &hi));
    EXPECT_FALSE(telemetry::parseIndexRange("", &lo, &hi));
    EXPECT_FALSE(telemetry::parseIndexRange("a..b", &lo, &hi));
    EXPECT_FALSE(telemetry::parseIndexRange("3..", &lo, &hi));
    EXPECT_FALSE(
        telemetry::parseIndexRange("99999999999999999999", &lo, &hi));
}

TEST(SonicCat, PipelineFilterOnSweepFileIsAnError)
{
    std::mt19937_64 rng(0x9e);
    std::vector<app::SweepRecord> records;
    for (u32 i = 0; i < 5; ++i)
        records.push_back(randomSweepRecord(rng, i));
    const std::string packed = packSweep(records);

    telemetry::CatOptions options;
    options.pipeline = "wildlife";
    std::istringstream in(packed);
    std::ostringstream out;
    std::string error;
    EXPECT_FALSE(telemetry::catSonicz(in, out, options, &error));
    EXPECT_NE(error.find("sweep file"), std::string::npos);
}

// --- Corruption and truncation --------------------------------------

TEST(Sonicz, EveryTruncationIsRejected)
{
    std::mt19937_64 rng(0x7e4c);
    std::vector<fleet::DeviceTelemetry> rows;
    for (u32 i = 0; i < 6; ++i)
        rows.push_back(randomFleetTelemetry(rng, i));
    const std::string packed = packFleet(rows);

    for (u64 cut = 0; cut < packed.size(); ++cut) {
        std::istringstream in(packed.substr(0, cut));
        std::string error;
        EXPECT_FALSE(
            telemetry::readSonicz(in, nullptr, nullptr, nullptr,
                                  &error))
            << "prefix of " << cut << " bytes was accepted";
        EXPECT_FALSE(error.empty());
    }
}

TEST(Sonicz, EverySingleByteCorruptionIsRejected)
{
    // FNV-1a chunk checksums, the schema header check, the chained
    // footer digest, and strict row/column accounting must between
    // them catch a flip of ANY byte in the file. (XOR-then-multiply
    // steps are bijections of the hash state, so a byte change with
    // unchanged length always changes a chunk checksum; structural
    // bytes are caught by the header/footer validation instead.)
    std::mt19937_64 rng(0xbadb17);
    std::vector<fleet::DeviceTelemetry> rows;
    for (u32 i = 0; i < 4; ++i)
        rows.push_back(randomFleetTelemetry(rng, i));
    const std::string packed = packFleet(rows);

    for (u64 i = 0; i < packed.size(); ++i) {
        std::string mutated = packed;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
        std::istringstream in(mutated);
        std::string error;
        EXPECT_FALSE(
            telemetry::readSonicz(in, nullptr, nullptr, nullptr,
                                  &error))
            << "flip at byte " << i << " was accepted";
    }

    // Trailing garbage after the footer is also corruption: appended
    // bytes shift the index-offset trailer off its position.
    std::istringstream in(packed + "x");
    std::string error;
    EXPECT_FALSE(
        telemetry::readSonicz(in, nullptr, nullptr, nullptr, &error));
    EXPECT_FALSE(error.empty());
}

// --- Schema evolution and the block index ---------------------------

#ifdef SONIC_GOLDEN_DIR
/** The checked-in version-1 file (no block index, written before the
 * format grew one) must keep reading byte-for-byte — the oldest
 * telemetry a deployment archived is the telemetry the planner will
 * one day be asked to ingest. */
TEST(Sonicz, NonFiniteCellsAreRejectedNamingTheColumn)
{
    // No writer stores NaN or an infinity in these schemas; a file
    // that does must fail every reader, not sum into a summary or
    // print as `inf` (the trace schema's one exception is in
    // test_trace).
    std::mt19937_64 rng(0x7a7);
    std::vector<fleet::DeviceTelemetry> rows;
    for (u32 i = 0; i < 8; ++i)
        rows.push_back(randomFleetTelemetry(rng, i));
    rows[5].liveSeconds = std::nan("");
    const std::string fleet_packed = packFleet(rows);

    std::vector<app::SweepRecord> records;
    for (u32 i = 0; i < 8; ++i)
        records.push_back(randomSweepRecord(rng, i));
    records[2].result.energyJ = -std::numeric_limits<f64>::infinity();
    const std::string sweep_packed = packSweep(records);

    const auto expect_rejected = [](bool ok, const std::string &error,
                                    const char *column) {
        EXPECT_FALSE(ok);
        EXPECT_NE(error.find("block 0"), std::string::npos) << error;
        EXPECT_NE(error.find(std::string("column '") + column + "'"),
                  std::string::npos)
            << error;
    };
    for (const auto &[packed, column] :
         {std::pair{fleet_packed, "liveSeconds"},
          std::pair{sweep_packed, "energyJ"}}) {
        std::istringstream in(packed);
        std::string error;
        expect_rejected(telemetry::readSonicz(in, nullptr, nullptr,
                                              nullptr, &error),
                        error, column);
        // sonic_cat exits 1 when these fail.
        for (const auto format : {telemetry::CatOptions::Format::Csv,
                                  telemetry::CatOptions::Format::Json}) {
            telemetry::CatOptions options;
            options.format = format;
            std::istringstream cat_in(packed);
            std::ostringstream out;
            error.clear();
            expect_rejected(
                telemetry::catSonicz(cat_in, out, options, &error),
                error, column);
        }
    }

    std::istringstream in(fleet_packed);
    fleet::FleetSummary summary;
    std::string error;
    expect_rejected(telemetry::aggregate(in, &summary, &error), error,
                    "liveSeconds");
    std::istringstream summary_in(fleet_packed);
    std::ostringstream out;
    error.clear();
    expect_rejected(telemetry::soniczSummary(summary_in, out,
                                             telemetry::CatOptions{},
                                             &error),
                    error, "liveSeconds");
}

/**
 * A one-row file of `kind` written cell by cell: valid names, zeros and
 * empty lists, except that `column` holds `value` (a list value column
 * becomes a one-element list).
 */
std::string
packCraftedRow(telemetry::SchemaKind kind, const std::string &column,
               u64 value)
{
    const std::vector<std::string> list_values = {
        "rebootDigest", "layerName", "layerKernelSeconds",
        "layerControlSeconds", "layerEnergyJ", "opName", "opEnergyJ",
        "logit"};
    const auto is_list_value = [&](const std::string &name) {
        return std::find(list_values.begin(), list_values.end(), name)
            != list_values.end();
    };
    const auto &cols = telemetry::schemaColumns(kind);
    std::ostringstream os;
    telemetry::SoniczWriter w(os, kind);
    for (u32 c = 0; c < cols.size(); ++c) {
        const std::string name = cols[c].name;
        if (is_list_value(name) && name != column)
            continue;
        const bool length_of_target = c + 1 < cols.size()
            && cols[c + 1].name == column && is_list_value(column);
        switch (cols[c].type) {
          case telemetry::ColType::Str:
            w.putStr(c, name == "impl"      ? "SONIC"
                        : name == "status"  ? "ok"
                        : name == "profile" ? "standard"
                                            : "x");
            break;
          case telemetry::ColType::Int:
            w.putInt(c, name == column ? value : length_of_target);
            break;
          case telemetry::ColType::F64: w.putF64(c, 0.0); break;
        }
    }
    w.endRow();
    w.finish();
    return os.str();
}

TEST(Sonicz, OutOfRangeIntegerCellsAreRejectedNamingTheColumn)
{
    // Int cells decode as u64; a reader must not narrow one into a
    // smaller member (2^32 + 5 inferences read back as 5).
    const u64 past_u32 = (u64{1} << 32) + 5;
    const auto expect_rejected = [](bool ok, const std::string &error,
                                    const std::string &column) {
        EXPECT_FALSE(ok);
        EXPECT_NE(error.find("column '" + column + "'"),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find("block 0, row 0"), std::string::npos)
            << error;
    };
    using telemetry::SchemaKind;
    const std::tuple<SchemaKind, const char *, u64> cases[] = {
        {SchemaKind::Fleet, "device", past_u32},
        {SchemaKind::Fleet, "inferences", past_u32},
        {SchemaKind::Fleet, "resultsDelivered", past_u32},
        {SchemaKind::Fleet, "txGaveUpRounds", past_u32},
        {SchemaKind::Sweep, "planIndex", past_u32},
        {SchemaKind::Sweep, "sample", past_u32},
        {SchemaKind::Sweep, "predictedClass", past_u32},
        {SchemaKind::Sweep, "tailsTileWords", past_u32},
        {SchemaKind::Sweep, "captureNvmDigests", 2},
        {SchemaKind::Sweep, "logit", 40000},
        {SchemaKind::Sweep, "logit", static_cast<u64>(i64{-40000})},
        {SchemaKind::Trace, "kind", past_u32},
        {SchemaKind::Trace, "arg", past_u32},
        // A list length past the cells its value column holds must not
        // size a vector (2^40 u64s).
        {SchemaKind::Sweep, "rebootDigestLen", u64{1} << 40},
    };
    for (const auto &[kind, column, value] : cases) {
        SCOPED_TRACE(column);
        const std::string packed = packCraftedRow(kind, column, value);
        std::string error;
        std::istringstream in(packed);
        if (kind == SchemaKind::Trace) {
            expect_rejected(telemetry::readTraceRows(in, nullptr,
                                                     nullptr, &error),
                            error, column);
            continue;
        }
        expect_rejected(telemetry::readSonicz(in, nullptr, nullptr,
                                              nullptr, &error),
                        error, column);
        for (const auto format : {telemetry::CatOptions::Format::Csv,
                                  telemetry::CatOptions::Format::Json}) {
            telemetry::CatOptions options;
            options.format = format;
            std::istringstream cat_in(packed);
            std::ostringstream out;
            error.clear();
            expect_rejected(
                telemetry::catSonicz(cat_in, out, options, &error),
                error, column);
        }
        if (kind != SchemaKind::Fleet)
            continue;
        std::istringstream agg_in(packed);
        fleet::FleetSummary summary;
        error.clear();
        expect_rejected(telemetry::aggregate(agg_in, &summary, &error),
                        error, column);
        std::istringstream summary_in(packed);
        std::ostringstream out;
        error.clear();
        expect_rejected(telemetry::soniczSummary(summary_in, out,
                                                 telemetry::CatOptions{},
                                                 &error),
                        error, column);
    }

    // The crafted rows themselves are valid once the cell fits.
    for (const auto kind :
         {SchemaKind::Fleet, SchemaKind::Sweep, SchemaKind::Trace}) {
        std::istringstream in(packCraftedRow(kind, "logit", 7));
        std::string error;
        telemetry::SoniczInfo info;
        EXPECT_TRUE(telemetry::readSonicz(in, nullptr, nullptr, &info,
                                          &error))
            << error;
        EXPECT_EQ(info.rows, 1u);
    }
}

TEST(FleetJson, NonFiniteRatesAreWrittenAsNull)
{
    // A finite row whose derived rate overflows: 3 inferences in the
    // smallest positive time is +inf inferences per day.
    fleet::DeviceTelemetry t;
    t.assignment.net = "HAR";
    t.assignment.pipeline = "infer-only";
    t.inferencesCompleted = 3;
    t.liveSeconds = 5e-324;
    ASSERT_TRUE(std::isinf(t.inferencesPerDay()));
    const std::string json = directFleetOutput({t}, /*json=*/true);
    expectFleetJsonValues(json, {t});
    EXPECT_NE(json.find("\"inferencesPerDay\": null"), std::string::npos)
        << json;

    fleet::FleetSummary summary;
    summary.total.accumulate(t);
    summary.byNet["HAR"].accumulate(t);
    jsonp::JsonValue root;
    std::string error;
    ASSERT_TRUE(jsonp::parseJson(summary.toJson(), &root, &error))
        << error;
    for (const auto *group :
         {&root.object()->at("total"),
          &root.object()->at("byNet").object()->at("HAR")})
        expectJsonF64(*group->object(), "inferencesPerDeviceDay",
                      summary.total.inferencesPerDeviceDay());
}

TEST(Sonicz, ReadsVersion1GoldenFixtureByteForByte)
{
    std::ifstream sonicz(SONIC_GOLDEN_DIR "/fleet_v1.sonicz",
                         std::ios::binary);
    ASSERT_TRUE(sonicz) << "missing golden fixture";
    std::ostringstream packed_os;
    packed_os << sonicz.rdbuf();
    const std::string packed = packed_os.str();

    std::ifstream csv(SONIC_GOLDEN_DIR "/fleet_v1.csv",
                      std::ios::binary);
    ASSERT_TRUE(csv) << "missing golden CSV";
    std::ostringstream golden_os;
    golden_os << csv.rdbuf();
    const std::string golden = golden_os.str();

    telemetry::CatOptions options;
    EXPECT_EQ(catToString(packed, options), golden);

    std::istringstream in(packed);
    telemetry::SoniczInfo info;
    std::string error;
    ASSERT_TRUE(
        telemetry::readSonicz(in, nullptr, nullptr, &info, &error))
        << error;
    EXPECT_EQ(info.version, 1u);
    EXPECT_FALSE(info.hasIndex);
    EXPECT_EQ(info.blocksSkipped, 0u);

    // A device range on a version-1 file falls back to the full scan
    // but still filters: compare against filtering the golden CSV by
    // its leading device-index field.
    telemetry::CatOptions ranged;
    ranged.hasRange = true;
    ranged.rangeLo = 10;
    ranged.rangeHi = 25;
    std::string expected;
    std::istringstream lines(golden);
    std::string line;
    bool header = true;
    while (std::getline(lines, line)) {
        if (header) {
            expected += line + "\n";
            header = false;
            continue;
        }
        const u64 device = std::stoull(line);
        if (device >= ranged.rangeLo && device <= ranged.rangeHi)
            expected += line + "\n";
    }
    EXPECT_EQ(catToString(packed, ranged), expected);
}
#endif

#ifdef SONIC_GOLDEN_DIR
/**
 * A sweep file written while sweeps still had a power axis beside the
 * environment (sonic_sweep --nets=golden --impls=SONIC
 * --power=Continuous,100uF): its retired `power` column must come back
 * on the environment axis, every other field unchanged.
 */
TEST(Sonicz, ReadsLegacyPowerColumnAsRfPaperEnvironments)
{
    std::ifstream sonicz(SONIC_GOLDEN_DIR "/sweep_legacy_power.sonicz",
                         std::ios::binary);
    ASSERT_TRUE(sonicz) << "missing golden fixture";
    std::ostringstream packed_os;
    packed_os << sonicz.rdbuf();
    const std::string packed = packed_os.str();

    std::vector<app::SweepRecord> records;
    std::istringstream in(packed);
    std::string error;
    ASSERT_TRUE(telemetry::readSonicz(
        in, [&](const app::SweepRecord &r) { records.push_back(r); },
        nullptr, nullptr, &error))
        << error;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0].spec.environment.empty());
    EXPECT_EQ(records[1].spec.environment,
              (env::EnvRef{"rf-paper", 100e-6}));

    // The same rows the writing build's CSV sink printed, with the
    // power column folded into the environment column.
    const std::string expected =
        directSweepOutput({}, /*json=*/false)
        + "0,golden,SONIC,,standard,0,6322557469518132022,ok,0,74,"
          "0.001768375,0,0.001768375,5.6816000000000006e-05,"
          "5.6816000000000006e-05,1,0\n"
          "1,golden,SONIC,rf-paper@100uF,standard,0,"
          "17164434913896211336,ok,3,74,0.001779625,"
          "0.09030929999999976,0.09208892499999977,"
          "5.7146000000000005e-05,6.0206199999999844e-05,1,0\n";
    EXPECT_EQ(catToString(packed, telemetry::CatOptions{}), expected);
}
#endif

TEST(Sonicz, RetiredPowerColumnKeepsTheOldPrecedence)
{
    // The environment outranked the power kind when both were set, and
    // a label the old axis never had is corruption, not continuous.
    const auto pack = [](const std::string &power, env::EnvRef ref) {
        app::SweepRecord record;
        record.spec.environment = std::move(ref);
        std::ostringstream os;
        telemetry::SoniczWriter writer(os, telemetry::SchemaKind::Sweep,
                                       {{"power", telemetry::ColType::Str}});
        writer.putStr(telemetry::schemaColumns(
                          telemetry::SchemaKind::Sweep).size(),
                      power);
        telemetry::appendSweepRow(writer, record);
        writer.finish();
        return os.str();
    };
    const auto read = [](const std::string &packed,
                         std::vector<app::SweepRecord> *out,
                         std::string *error) {
        std::istringstream in(packed);
        return telemetry::readSonicz(
            in, [&](const app::SweepRecord &r) { out->push_back(r); },
            nullptr, nullptr, error);
    };

    std::vector<app::SweepRecord> rows;
    std::string error;
    ASSERT_TRUE(read(pack("1mF", {"solar", 5e-3}), &rows, &error))
        << error;
    ASSERT_TRUE(read(pack("50mF", {}), &rows, &error)) << error;
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].spec.environment, (env::EnvRef{"solar", 5e-3}));
    EXPECT_EQ(rows[1].spec.environment,
              (env::EnvRef{"rf-paper", 50e-3}));

    EXPECT_FALSE(read(pack("33uF", {}), &rows, &error));
    EXPECT_NE(error.find("unknown power kind '33uF'"), std::string::npos)
        << error;
}

TEST(Sonicz, UnknownTrailingColumnsAreTolerated)
{
    // Write the file a FUTURE build with a wider fleet schema would
    // write; today's reader must deliver the columns it knows and skip
    // the rest (resolution is by name, not position).
    std::mt19937_64 rng(0xfadd);
    std::vector<fleet::DeviceTelemetry> rows;
    for (u32 i = 0; i < 300; ++i)
        rows.push_back(randomFleetTelemetry(rng, i));

    const std::vector<telemetry::ColumnSpec> extra = {
        {"future_metric", telemetry::ColType::F64},
        {"future_tag", telemetry::ColType::Str},
    };
    std::ostringstream os;
    telemetry::SoniczWriter writer(os, telemetry::SchemaKind::Fleet,
                                   extra);
    const auto base = static_cast<u32>(
        telemetry::schemaColumns(telemetry::SchemaKind::Fleet).size());
    for (const auto &row : rows) {
        writer.putF64(base, randomF64(rng));
        writer.putStr(base + 1, "vNext");
        telemetry::appendFleetRow(writer, row);
    }
    writer.finish();
    const std::string packed = os.str();

    telemetry::CatOptions options;
    EXPECT_EQ(catToString(packed, options),
              directFleetOutput(rows, /*json=*/false));

    // The skipped columns stay under the integrity umbrella: flipping
    // any byte of the file — unknown-column payloads included — is
    // still rejected.
    std::ostringstream small_os;
    telemetry::SoniczWriter small(small_os,
                                  telemetry::SchemaKind::Fleet, extra);
    for (u32 i = 0; i < 4; ++i) {
        small.putF64(base, randomF64(rng));
        small.putStr(base + 1, "vNext");
        telemetry::appendFleetRow(small, rows[i]);
    }
    small.finish();
    const std::string small_packed = small_os.str();
    for (u64 i = 0; i < small_packed.size(); ++i) {
        std::string mutated = small_packed;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
        std::istringstream in(mutated);
        std::string error;
        EXPECT_FALSE(telemetry::readSonicz(in, nullptr, nullptr,
                                           nullptr, &error))
            << "flip at byte " << i << " was accepted";
    }
}

TEST(Sonicz, RetiredScheduleColumnsAreSkipped)
{
    // A sweep file written while sweeps had a failure-schedule axis:
    // beside today's columns it carries scheduleLen, the flattened
    // scheduleIndex list and scheduleFired. The reader skips all three
    // and delivers every other field unchanged.
    std::mt19937_64 rng(0x5c4ed);
    std::vector<app::SweepRecord> records;
    for (u32 i = 0; i < 40; ++i)
        records.push_back(randomSweepRecord(rng, i));

    using telemetry::ColType;
    std::ostringstream os;
    telemetry::SoniczWriter writer(os, telemetry::SchemaKind::Sweep,
                                   {{"scheduleLen", ColType::Int},
                                    {"scheduleIndex", ColType::Int},
                                    {"scheduleFired", ColType::Int}});
    const auto base = static_cast<u32>(
        telemetry::schemaColumns(telemetry::SchemaKind::Sweep).size());
    for (const auto &record : records) {
        const u64 len = record.planIndex % 4;
        writer.putInt(base, len);
        for (u64 k = 0; k < len; ++k)
            writer.putInt(base + 1, 1000 * (k + 1) + record.planIndex);
        writer.putInt(base + 2, len / 2);
        telemetry::appendSweepRow(writer, record);
    }
    writer.finish();
    const std::string packed = os.str();

    std::vector<app::SweepRecord> restored;
    std::istringstream in(packed);
    std::string error;
    ASSERT_TRUE(telemetry::readSonicz(
        in, [&](const app::SweepRecord &r) { restored.push_back(r); },
        nullptr, nullptr, &error))
        << error;
    // Every stored field comes back: the restored rows pack to the
    // bytes the records pack to without the retired columns.
    EXPECT_EQ(packSweep(restored), packSweep(records));

    EXPECT_EQ(catToString(packed, telemetry::CatOptions{}),
              directSweepOutput(records, /*json=*/false));
    telemetry::CatOptions json;
    json.format = telemetry::CatOptions::Format::Json;
    EXPECT_EQ(catToString(packed, json),
              directSweepOutput(records, /*json=*/true));
}

TEST(Sonicz, IndexPruningMatchesFullScanAndSkipsBlocks)
{
    std::mt19937_64 rng(0x1d5);
    std::vector<fleet::DeviceTelemetry> rows;
    const u32 per_block = telemetry::SoniczWriter::kRowsPerBlock;
    const u32 count = per_block * 2 + 500; // three blocks
    for (u32 i = 0; i < count; ++i)
        rows.push_back(randomFleetTelemetry(rng, i));
    const std::string packed = packFleet(rows);

    // A range inside the last block must skip the first two blocks
    // undecoded yet deliver exactly the rows a full scan filters to.
    telemetry::CatOptions ranged;
    ranged.hasRange = true;
    ranged.rangeLo = per_block * 2 + 100;
    ranged.rangeHi = per_block * 2 + 200;
    std::vector<fleet::DeviceTelemetry> kept;
    for (const auto &row : rows)
        if (row.assignment.deviceIndex >= ranged.rangeLo
            && row.assignment.deviceIndex <= ranged.rangeHi)
            kept.push_back(row);
    EXPECT_EQ(catToString(packed, ranged),
              directFleetOutput(kept, /*json=*/false));

    std::istringstream in(packed);
    telemetry::SoniczInfo info;
    std::string error;
    const telemetry::RowRange range{ranged.rangeLo, ranged.rangeHi};
    ASSERT_TRUE(telemetry::readSonicz(in, nullptr, nullptr, &info,
                                      &error, &range))
        << error;
    EXPECT_TRUE(info.hasIndex);
    EXPECT_EQ(info.blocksSkipped, 2u);
    EXPECT_EQ(info.rows, count); // skipped rows still counted

    // Without a range every block is decoded (and checksum-verified).
    std::istringstream full(packed);
    ASSERT_TRUE(telemetry::readSonicz(full, nullptr, nullptr, &info,
                                      &error))
        << error;
    EXPECT_EQ(info.blocksSkipped, 0u);
    EXPECT_EQ(info.blocks, 3u);
}

// --- Streaming aggregation ------------------------------------------

void
expectGroupStatsEqual(const fleet::GroupStats &a,
                      const fleet::GroupStats &b)
{
    EXPECT_EQ(a.devices, b.devices);
    EXPECT_EQ(a.dnfDevices, b.dnfDevices);
    EXPECT_EQ(a.failedDevices, b.failedDevices);
    EXPECT_EQ(a.inferences, b.inferences);
    EXPECT_EQ(a.reboots, b.reboots);
    // Bit-exact: the fold visits rows in the same device order the
    // summary reduction did, so the f64 sums must be identical.
    EXPECT_EQ(std::bit_cast<u64>(a.liveSeconds),
              std::bit_cast<u64>(b.liveSeconds));
    EXPECT_EQ(std::bit_cast<u64>(a.deadSeconds),
              std::bit_cast<u64>(b.deadSeconds));
    EXPECT_EQ(std::bit_cast<u64>(a.energyJ),
              std::bit_cast<u64>(b.energyJ));
    EXPECT_EQ(std::bit_cast<u64>(a.harvestedJ),
              std::bit_cast<u64>(b.harvestedJ));
    EXPECT_EQ(a.resultsDelivered, b.resultsDelivered);
    EXPECT_EQ(a.txGaveUpDevices, b.txGaveUpDevices);
    EXPECT_EQ(a.txAttempts, b.txAttempts);
    EXPECT_EQ(a.txRetries, b.txRetries);
    EXPECT_EQ(std::bit_cast<u64>(a.radioEnergyJ),
              std::bit_cast<u64>(b.radioEnergyJ));
    EXPECT_EQ(std::bit_cast<u64>(a.senseEnergyJ),
              std::bit_cast<u64>(b.senseEnergyJ));
    EXPECT_EQ(std::bit_cast<u64>(a.txBackoffSeconds),
              std::bit_cast<u64>(b.txBackoffSeconds));
}

TEST(TelemetryAggregate, MatchesRunFleetGroupStats)
{
    fleet::FleetPlan plan;
    plan.devices = 30;
    plan.nets = {"MNIST", "HAR"};
    plan.impls = {kernels::Impl::Sonic, kernels::Impl::Tails};
    plan.environments = {{"solar", 1e-3}, {"rf-paper", 100e-6}};
    plan.pipelines = {"wildlife", "infer-only"};
    plan.maxInferencesPerDevice = 1;

    std::ostringstream os;
    telemetry::SoniczFleetSink sink(os);
    const auto summary = fleet::runFleet(plan, {}, {&sink});

    std::istringstream in(os.str());
    fleet::FleetSummary folded;
    std::string error;
    ASSERT_TRUE(telemetry::aggregate(in, &folded, &error)) << error;

    EXPECT_EQ(folded.devices, summary.devices);
    expectGroupStatsEqual(folded.total, summary.total);
    const auto expect_groups =
        [](const std::map<std::string, fleet::GroupStats> &got,
           const std::map<std::string, fleet::GroupStats> &want) {
            ASSERT_EQ(got.size(), want.size());
            for (const auto &[name, stats] : want) {
                const auto it = got.find(name);
                ASSERT_NE(it, got.end()) << "missing group " << name;
                expectGroupStatsEqual(it->second, stats);
            }
        };
    expect_groups(folded.byEnvironment, summary.byEnvironment);
    expect_groups(folded.byImpl, summary.byImpl);
    expect_groups(folded.byNet, summary.byNet);
    expect_groups(folded.byPipeline, summary.byPipeline);

    // Telemetry does not carry the horizon, the seed, or per-round
    // latencies; the fold leaves them zero rather than guessing.
    EXPECT_EQ(folded.horizonSeconds, 0.0);
    EXPECT_EQ(folded.baseSeed, 0u);
    EXPECT_EQ(folded.latencyP50Seconds, 0.0);

    // soniczSummary is the same fold behind the --summary flag.
    std::istringstream again(os.str());
    std::ostringstream text;
    telemetry::CatOptions options;
    ASSERT_TRUE(
        telemetry::soniczSummary(again, text, options, &error))
        << error;
    EXPECT_EQ(text.str(), folded.toJson());
}

TEST(SonicCat, SummaryRejectsStringFiltersAndSweepFiles)
{
    std::mt19937_64 rng(0x5f);
    const std::string fleet_packed =
        packFleet({randomFleetTelemetry(rng, 0)});

    telemetry::CatOptions with_filter;
    with_filter.impl = "SONIC";
    std::istringstream in(fleet_packed);
    std::ostringstream out;
    std::string error;
    EXPECT_FALSE(
        telemetry::soniczSummary(in, out, with_filter, &error));
    EXPECT_FALSE(error.empty());

    const std::string sweep_packed =
        packSweep({randomSweepRecord(rng, 0)});
    std::istringstream sweep_in(sweep_packed);
    error.clear();
    EXPECT_FALSE(
        telemetry::soniczSummary(sweep_in, out, {}, &error));
    EXPECT_FALSE(error.empty());
}

TEST(Sonicz, RejectsForeignMagicAndVersions)
{
    std::string error;
    std::istringstream not_sonicz("planIndex,net,impl\n0,MNIST,SONIC");
    EXPECT_FALSE(telemetry::readSonicz(not_sonicz, nullptr, nullptr,
                                       nullptr, &error));
    EXPECT_NE(error.find("bad magic"), std::string::npos);

    std::mt19937_64 rng(0x11);
    const std::string packed =
        packFleet({randomFleetTelemetry(rng, 0)});
    std::string future = packed;
    future[4] = 99; // version byte
    std::istringstream in(future);
    EXPECT_FALSE(
        telemetry::readSonicz(in, nullptr, nullptr, nullptr, &error));
    EXPECT_NE(error.find("version"), std::string::npos);
}

} // namespace
} // namespace sonic
