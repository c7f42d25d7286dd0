/**
 * @file
 * Unit tests for util: deterministic RNG, table formatting, the
 * shortest-round-trip f64 formatter, the JSON writer, the command-line
 * flag table, the name-keyed Registry behind the model and environment
 * tables, and the parallelFor worker pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <charconv>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.hh"
#include "util/fmt.hh"
#include "util/json.hh"
#include "util/json_parse.hh"
#include "util/parallel.hh"
#include "util/registry.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace sonic
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const f64 u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const f64 u = rng.uniform(-2.5, 3.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 3.5);
    }
}

TEST(Rng, BelowStaysBelow)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const i64 v = rng.between(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsRoughlyStandard)
{
    Rng rng(11);
    f64 sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const f64 g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(13);
    int hits = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<f64>(hits) / n, 0.3, 0.03);
}

TEST(Rng, ForkIndependentStreams)
{
    Rng base(5);
    Rng a = base.fork(1);
    Rng b = base.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkDeterministic)
{
    Rng a = Rng(5).fork(9);
    Rng b = Rng(5).fork(9);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Table, AlignsColumns)
{
    Table t({"a", "bb"});
    t.row().cell(std::string("x")).cell(u64{12});
    t.row().cell(std::string("longer")).cell(u64{3});
    const std::string s = t.str();
    EXPECT_NE(s.find("| a "), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CsvRoundTrip)
{
    Table t({"x", "y"});
    t.row().cell(u64{1}).cell(2.5, 1);
    EXPECT_EQ(t.csv(), "x,y\n1,2.5\n");
}

TEST(Table, FormatEnergyPicksUnit)
{
    EXPECT_EQ(formatEnergy(1.5), "1.500 J");
    EXPECT_EQ(formatEnergy(2e-3), "2.000 mJ");
    EXPECT_EQ(formatEnergy(3e-6), "3.000 uJ");
    EXPECT_EQ(formatEnergy(4e-9), "4.000 nJ");
}

TEST(Table, FormatSeconds)
{
    EXPECT_EQ(formatSeconds(2.0), "2.000 s");
    EXPECT_EQ(formatSeconds(0.5), "500.000 ms");
}

TEST(Table, AsciiBarClamps)
{
    EXPECT_EQ(asciiBar(0.0, 4), "....");
    EXPECT_EQ(asciiBar(1.0, 4), "####");
    EXPECT_EQ(asciiBar(2.0, 4), "####");
    EXPECT_EQ(asciiBar(0.5, 4), "##..");
}

TEST(FmtF64, ProducesShortestForms)
{
    EXPECT_EQ(fmtF64(0.0), "0");
    EXPECT_EQ(fmtF64(-0.0), "-0"); // the sign bit survives
    EXPECT_EQ(fmtF64(0.1), "0.1");
    EXPECT_EQ(fmtF64(86400.0), "86400");
    EXPECT_EQ(fmtF64(1e300), "1e+300");
    EXPECT_EQ(fmtF64(-2.5), "-2.5");
}

TEST(FmtF64, RoundTripsRandomBitPatterns)
{
    // The whole point of replacing precision(12): parsing the printed
    // digits must recover the exact bits. std::from_chars is a
    // correctly-rounded inverse (and, unlike std::stod, accepts
    // subnormals without raising range errors), so this closes the
    // loop.
    std::mt19937_64 rng(0xf64);
    for (u32 i = 0; i < 20000; ++i) {
        const f64 value = std::bit_cast<f64>(rng());
        if (!std::isfinite(value))
            continue;
        const std::string text = fmtF64(value);
        f64 reparsed = 0.0;
        const auto result = std::from_chars(
            text.data(), text.data() + text.size(), reparsed);
        ASSERT_EQ(result.ptr, text.data() + text.size()) << text;
        EXPECT_EQ(std::bit_cast<u64>(reparsed),
                  std::bit_cast<u64>(value))
            << text;
    }
    // The old formatter's concrete casualty class: close f64s that
    // agree in their first 12 significant digits stay distinct.
    const f64 a = 0.1234567890123456;
    const f64 b = std::nextafter(a, 1.0);
    EXPECT_NE(fmtF64(a), fmtF64(b));
}

// --- JSON writer ----------------------------------------------------

/** What `write` makes on a fresh writer. */
std::string
jsonText(const std::function<void(json::Writer &)> &write,
         bool compact = false)
{
    std::ostringstream os;
    json::Writer w(os, compact);
    write(w);
    return os.str();
}

jsonp::JsonValue
parsed(const std::string &text)
{
    jsonp::JsonValue root;
    std::string error;
    EXPECT_TRUE(jsonp::parseJson(text, &root, &error))
        << error << "\n" << text;
    return root;
}

TEST(JsonWriter, EveryAwkwardNameRoundTrips)
{
    std::vector<std::string> names;
    for (int c = 0; c < 0x20; ++c)
        names.push_back("a" + std::string(1, static_cast<char>(c)) + "b");
    names.push_back("say \"hi\"");
    names.push_back("back\\slash\\");
    names.push_back("del\x7f");
    names.push_back("caf\xc3\xa9 \xe2\x9a\xa1 \xf0\x9f\x94\x8b"); // UTF-8
    for (const auto &name : names) {
        const std::string text = jsonText([&](json::Writer &w) {
            w.beginObject().field(name, name).end();
        });
        // No control byte is left raw: only the document's newline.
        for (u64 i = 0; i + 1 < text.size(); ++i)
            EXPECT_GE(static_cast<unsigned char>(text[i]), 0x20) << text;
        const auto root = parsed(text);
        const auto *obj = root.object();
        ASSERT_NE(obj, nullptr) << text;
        ASSERT_EQ(obj->size(), 1u);
        EXPECT_EQ(obj->begin()->first, name);
        const std::string *value = obj->begin()->second.string();
        ASSERT_NE(value, nullptr) << text;
        EXPECT_EQ(*value, name);
    }
    EXPECT_EQ(jsonText([](json::Writer &w) {
                  w.array(std::vector<std::string>{"\n\t\r", "\x01"});
              }),
              "[\"\\n\\t\\r\", \"\\u0001\"]\n");
}

TEST(JsonWriter, LayoutSeparatorsBreaksAndEmptyContainers)
{
    const auto doc = [](json::Writer &w) {
        w.beginObject()
            .br(2).field("n", 1)
            .br(2).key("list").array(std::vector<int>{1, 2})
            .field("flag", true)
            .br(2).key("empty").beginArray().br(2).end()
            .br(2).key("none").beginObject().br(2).end()
            .br(2).key("rows").beginArray();
        for (int i = 0; i < 2; ++i)
            w.br(4).beginObject().field("a", i).field("s", "x").end();
        w.br(2).end()
            .br(2).key("kept").beginArray().br(2, /*evenEmpty=*/true).end()
            .br(2).key("stamp").number("12.500")
            .br(0).end();
    };
    EXPECT_EQ(jsonText(doc), "{\n"
                             "  \"n\": 1,\n"
                             "  \"list\": [1, 2], \"flag\": true,\n"
                             "  \"empty\": [],\n"
                             "  \"none\": {},\n"
                             "  \"rows\": [\n"
                             "    {\"a\": 0, \"s\": \"x\"},\n"
                             "    {\"a\": 1, \"s\": \"x\"}\n"
                             "  ],\n"
                             "  \"kept\": [\n"
                             "  ],\n"
                             "  \"stamp\": 12.500\n"
                             "}\n");
    EXPECT_EQ(jsonText(doc, /*compact=*/true),
              "{\n"
              "  \"n\":1,\n"
              "  \"list\":[1,2],\"flag\":true,\n"
              "  \"empty\":[],\n"
              "  \"none\":{},\n"
              "  \"rows\":[\n"
              "    {\"a\":0,\"s\":\"x\"},\n"
              "    {\"a\":1,\"s\":\"x\"}\n"
              "  ],\n"
              "  \"kept\":[\n"
              "  ],\n"
              "  \"stamp\":12.500\n"
              "}\n");
    parsed(jsonText(doc));
    parsed(jsonText(doc, true));
    // Without breaks, everything stays on one line; empty closes in
    // place; each outermost close ends its line.
    EXPECT_EQ(jsonText([](json::Writer &w) {
                  w.beginArray().end();
                  w.beginObject().key("a").beginArray().end().end();
              }),
              "[]\n{\"a\": []}\n");
}

TEST(JsonWriter, NumbersAreExactAndNonFiniteIsNull)
{
    EXPECT_EQ(jsonText([](json::Writer &w) {
                  w.beginArray()
                      .value(i16{-32768})
                      .value(std::numeric_limits<u64>::max())
                      .value(0.1)
                      .value(-0.0)
                      .value(5e-324)
                      .end();
              }),
              "[-32768, 18446744073709551615, 0.1, -0, 5e-324]\n");
    constexpr f64 inf = std::numeric_limits<f64>::infinity();
    EXPECT_EQ(jsonText([&](json::Writer &w) {
                  w.array(std::vector<f64>{std::nan(""), inf, -inf});
              }),
              "[null, null, null]\n");

    std::mt19937_64 rng(0x75011);
    std::vector<f64> values;
    while (values.size() < 10000) {
        const f64 v = std::bit_cast<f64>(rng());
        if (std::isfinite(v))
            values.push_back(v);
    }
    const auto root = parsed(
        jsonText([&](json::Writer &w) { w.array(values); }));
    const auto *array = root.array();
    ASSERT_NE(array, nullptr);
    ASSERT_EQ(array->size(), values.size());
    for (u64 i = 0; i < values.size(); ++i) {
        const f64 *n = (*array)[i].number();
        ASSERT_NE(n, nullptr) << i;
        EXPECT_EQ(std::bit_cast<u64>(*n), std::bit_cast<u64>(values[i]))
            << fmtF64(values[i]);
    }
}

/** Run `flags` over "prog ARGS..."; stderr goes to *err. */
bool
parseArgs(const cli::Flags &flags, std::initializer_list<const char *> args,
          std::string *err = nullptr)
{
    std::vector<const char *> argv{"prog"};
    argv.insert(argv.end(), args);
    std::ostringstream stream;
    const bool ok =
        flags.parse(static_cast<int>(argv.size()), argv.data(), stream);
    if (err != nullptr)
        *err = stream.str();
    return ok;
}

/** A bad value: one diagnostic line naming the whole argument, then
 * the usage. */
void
expectRejected(const cli::Flags &flags, const std::string &arg)
{
    std::string err;
    EXPECT_FALSE(parseArgs(flags, {arg.c_str()}, &err));
    EXPECT_EQ(err.rfind("prog: " + arg + ": ", 0), 0u) << err;
    EXPECT_NE(err.find("\nusage: prog "), std::string::npos) << err;
}

class CliRejectsU32 : public ::testing::TestWithParam<const char *>
{};

TEST_P(CliRejectsU32, ValueIsNotAWholeDecimalThatFits)
{
    u32 count = 7;
    cli::Flags flags("prog");
    flags.add("--count", &count, "N");
    expectRejected(flags, std::string("--count=") + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cli, CliRejectsU32,
                         ::testing::Values("-1", "12abc", "+4", " 4",
                                           "0x10", "4294967297", ""));

class CliRejectsF64 : public ::testing::TestWithParam<const char *>
{};

TEST_P(CliRejectsF64, ValueIsNotAFiniteNumber)
{
    f64 seconds = 1.0;
    cli::Flags flags("prog");
    flags.add("--horizon", &seconds, "SECONDS");
    expectRejected(flags, std::string("--horizon=") + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cli, CliRejectsF64,
                         ::testing::Values("inf", "nan", "1e400", "1.5s",
                                           "0x1p3"));

TEST(Cli, ConvertsByStorageType)
{
    u32 count = 0;
    u64 seed = 0;
    f64 horizon = 0.0;
    std::string name;
    std::vector<std::string> list;
    bool toggle = false;
    cli::Flags flags("prog");
    flags.add("--count", &count, "N")
        .add("--seed", &seed, "S")
        .add("--horizon", &horizon, "SECONDS")
        .add("--name", &name, "NAME")
        .add("--list", &list, "A,B")
        .add("--toggle", &toggle);
    ASSERT_TRUE(parseArgs(flags, {"--count=4294967295",
                                  "--seed=18446744073709551615",
                                  "--horizon=-2.5e3", "--name=a=b",
                                  "--list=x,,y,", "--toggle"}));
    EXPECT_EQ(count, 4294967295u);
    EXPECT_EQ(seed, 18446744073709551615ull);
    EXPECT_EQ(horizon, -2500.0);
    EXPECT_EQ(name, "a=b");
    EXPECT_EQ(list, (std::vector<std::string>{"x", "y"}));
    EXPECT_TRUE(toggle);
}

TEST(Cli, UnknownFlagIsNamed)
{
    cli::Flags flags("prog");
    std::string err;
    EXPECT_FALSE(parseArgs(flags, {"--bogus=3"}, &err));
    EXPECT_EQ(err.rfind("prog: unknown flag '--bogus'\n", 0), 0u) << err;
}

TEST(Cli, ToggleTakesNoValue)
{
    bool toggle = false;
    cli::Flags flags("prog");
    flags.add("--toggle", &toggle);
    expectRejected(flags, "--toggle=1");
}

TEST(Cli, ValueFlagNeedsAValue)
{
    u32 count = 0;
    cli::Flags flags("prog");
    flags.add("--count", &count, "N");
    std::string err;
    EXPECT_FALSE(parseArgs(flags, {"--count"}, &err));
    EXPECT_EQ(err.rfind("prog: --count needs a value (--count=N)\n", 0), 0u)
        << err;
}

TEST(Cli, OneOfAcceptsOnlyItsChoices)
{
    std::string status;
    cli::Flags flags("prog");
    flags.oneOf("--status", &status, {"ok", "dnf", "fail"});
    ASSERT_TRUE(parseArgs(flags, {"--status=dnf"}));
    EXPECT_EQ(status, "dnf");
    expectRejected(flags, "--status=bogus");
}

TEST(Cli, RepeatedFlagKeepsTheLastValue)
{
    u32 count = 0;
    cli::Flags flags("prog");
    flags.add("--count", &count, "N");
    ASSERT_TRUE(parseArgs(flags, {"--count=1", "--count=2"}));
    EXPECT_EQ(count, 2u);
}

TEST(Cli, RepeatableFlagAppendsWholeValues)
{
    std::vector<std::string> traces;
    cli::Flags flags("prog");
    flags.repeatable("--trace", &traces, "NAME=FILE");
    ASSERT_TRUE(parseArgs(flags, {"--trace=a=x.csv", "--trace=b=y,z.csv"}));
    EXPECT_EQ(traces, (std::vector<std::string>{"a=x.csv", "b=y,z.csv"}));
}

TEST(Cli, MissingPositionalIsAnError)
{
    std::string input;
    cli::Flags flags("prog");
    flags.positional("FILE", &input);
    std::string err;
    EXPECT_FALSE(parseArgs(flags, {}, &err));
    EXPECT_EQ(err.rfind("prog: missing FILE\n", 0), 0u) << err;
}

TEST(Cli, ExtraPositionalIsAnError)
{
    std::string input;
    cli::Flags flags("prog");
    flags.positional("FILE", &input);
    std::string err;
    EXPECT_FALSE(parseArgs(flags, {"a.sonicz", "b.sonicz"}, &err));
    EXPECT_EQ(err.rfind("prog: unexpected argument 'b.sonicz'\n", 0), 0u)
        << err;
}

TEST(Cli, OptionalRecordsAnEmptyOverride)
{
    // --nets= must reach the empty-axis fatal, not read as "not given".
    std::optional<std::vector<std::string>> nets;
    std::optional<u32> devices;
    cli::Flags flags("prog");
    flags.add("--nets", &nets, "A,B").add("--devices", &devices, "N");
    ASSERT_TRUE(parseArgs(flags, {"--nets="}));
    ASSERT_TRUE(nets.has_value());
    EXPECT_TRUE(nets->empty());
    EXPECT_FALSE(devices.has_value());
}

TEST(Cli, UsageListsEveryDeclaredFlag)
{
    bool toggle = false;
    u32 count = 0;
    std::string format, input;
    std::vector<std::string> traces;
    cli::Flags flags("prog");
    flags.positional("FILE", &input)
        .add("--toggle", &toggle)
        .add("--count", &count, "N")
        .oneOf("--format", &format, {"csv", "json"})
        .repeatable("--trace", &traces, "NAME=FILE");
    const std::string usage = flags.usage();
    EXPECT_EQ(usage.rfind("usage: prog FILE ", 0), 0u) << usage;
    for (const char *item : {"[--toggle]", "[--count=N]",
                             "[--format=csv|json]", "[--trace=NAME=FILE]..."})
        EXPECT_NE(usage.find(item), std::string::npos) << item;
}

TEST(Cli, ParseU64IsStrict)
{
    u64 v = 0;
    EXPECT_TRUE(cli::parseU64("0", &v));
    EXPECT_EQ(v, 0u);
    for (const char *bad : {"", "-0", "+1", "1 ", "0x1", "18446744073709551616"})
        EXPECT_FALSE(cli::parseU64(bad, &v)) << bad;
}

// --- Registry -------------------------------------------------------

struct Widget
{
    std::string name;
    int value = 0;
};

TEST(UtilRegistry, NamesFollowRegistrationOrder)
{
    util::Registry<Widget> reg("widget");
    EXPECT_TRUE(reg.names().empty());
    const Widget &a = reg.add("a", 1);
    const Widget *b = reg.tryAdd(Widget{"b", 2});
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(reg.names(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(reg.find("a"), &a);
    EXPECT_EQ(reg.find("b"), b);
    EXPECT_EQ(&reg.get("a"), &a);
    EXPECT_EQ(reg.find("c"), nullptr);
    EXPECT_TRUE(reg.contains("a"));
    EXPECT_FALSE(reg.contains("c"));
    EXPECT_EQ(reg.availableList(), "a, b");
}

TEST(UtilRegistry, PointersSurviveLaterRegistrations)
{
    util::Registry<Widget> reg("widget");
    const Widget *first = &reg.add("first", 7);
    for (int i = 0; i < 1000; ++i)
        reg.add("w" + std::to_string(i), i);
    const auto names = reg.names();
    ASSERT_EQ(names.size(), 1001u);
    EXPECT_EQ(names.back(), "w999");
    EXPECT_EQ(reg.find("first"), first);
    EXPECT_EQ(first->name, "first");
    EXPECT_EQ(first->value, 7);
}

TEST(UtilRegistry, TryAddOfATakenNameChangesNothing)
{
    util::Registry<Widget> reg("widget");
    const Widget *original = &reg.add("a", 1);
    EXPECT_EQ(reg.tryAdd("a", 2), nullptr);
    EXPECT_EQ(reg.names(), std::vector<std::string>{"a"});
    EXPECT_EQ(reg.find("a"), original);
    EXPECT_EQ(original->value, 1);
    // The rejected candidate left no row behind: the next one follows
    // "a" directly.
    const Widget &b = reg.add("b", 3);
    EXPECT_EQ(reg.names(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(reg.find("b"), &b);
}

TEST(UtilRegistry, DuplicateAddIsFatal)
{
    util::Registry<Widget> reg("widget");
    reg.add("a");
    EXPECT_EXIT(reg.add("a"), ::testing::ExitedWithCode(1),
                "fatal: duplicate widget registration: a");
}

TEST(UtilRegistry, UnknownNameDiagnosticListsTheRegisteredOnes)
{
    util::Registry<Widget> reg("widget");
    reg.add("a");
    reg.add("b");
    EXPECT_EXIT(reg.get("zz"), ::testing::ExitedWithCode(1),
                "fatal: unknown widget 'zz'; registered widgets: a, b");
}

TEST(UtilRegistry, ConcurrentTryAddAndFindAgree)
{
    // Every thread races to register the same 64 names (and a private
    // one each) while looking names up: each name is won exactly once,
    // and a winner's row is the one every later lookup returns.
    constexpr int kThreads = 8;
    constexpr int kNames = 64;
    util::Registry<Widget> reg("widget");
    std::vector<std::vector<const Widget *>> won(kThreads);
    std::vector<int> lookups_missed(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            reg.add("own-" + std::to_string(t), t);
            for (int i = 0; i < kNames; ++i) {
                const std::string name = "shared-" + std::to_string(i);
                if (const Widget *row = reg.tryAdd(name, t))
                    won[t].push_back(row);
                const Widget *seen = reg.find(name);
                if (seen == nullptr || seen->name != name)
                    ++lookups_missed[t];
            }
        });
    }
    for (auto &thread : pool)
        thread.join();

    EXPECT_EQ(reg.names().size(), std::size_t{kThreads + kNames});
    int wins = 0;
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(lookups_missed[t], 0) << t;
        for (const Widget *row : won[t]) {
            ++wins;
            EXPECT_EQ(reg.find(row->name), row);
            EXPECT_EQ(row->value, t);
        }
    }
    EXPECT_EQ(wins, kNames);
}

// --- util::parallelFor ------------------------------------------------

/** Uneven task costs: task 0 is the slowest, so the whole batch tends
 * to finish before it and emission bursts once it does. */
void
unevenWork(u64 i)
{
    const u64 micros = i == 0 ? 3000 : (i * 37 % 7) * 60;
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

constexpr u32 kPoolThreads[] = {1, 2, 8};

TEST(Parallel, EmitSeesEveryIndexOnceInOrderNeverConcurrently)
{
    constexpr u64 kTasks = 48;
    for (const u32 threads : kPoolThreads) {
        std::vector<u64> slots(kTasks, 0);
        std::vector<std::atomic<bool>> done(kTasks);
        std::vector<u64> emitted;
        std::atomic<int> inside{0};
        bool overlapped = false, early = false, wrong_slot = false;
        util::parallelFor(
            kTasks, threads,
            [&](u64 i, u32) {
                unevenWork(i);
                slots[i] = i * i + 1;
                done[i] = true;
            },
            [&](u64 i) {
                if (inside.fetch_add(1) != 0)
                    overlapped = true;
                for (u64 j = 0; j <= i; ++j)
                    if (!done[j])
                        early = true;
                if (slots[i] != i * i + 1)
                    wrong_slot = true;
                emitted.push_back(i);
                std::this_thread::sleep_for(std::chrono::microseconds(20));
                inside.fetch_sub(1);
            });
        std::vector<u64> want(kTasks);
        for (u64 i = 0; i < kTasks; ++i)
            want[i] = i;
        EXPECT_EQ(emitted, want) << threads;
        EXPECT_FALSE(overlapped) << threads;
        EXPECT_FALSE(early) << threads;
        EXPECT_FALSE(wrong_slot) << threads;
    }
}

TEST(Parallel, WorkerIndicesStayBelowThePoolAndTheCallerIsWorkerZero)
{
    const auto caller = std::this_thread::get_id();
    for (const u64 tasks : {u64{3}, u64{40}}) {
        for (const u32 threads : kPoolThreads) {
            const u32 pool = util::poolSize(tasks, threads);
            EXPECT_EQ(pool, std::min<u64>(tasks, threads));
            std::vector<u32> worker(tasks);
            std::vector<std::thread::id> thread(tasks);
            util::parallelFor(tasks, threads, [&](u64 i, u32 w) {
                unevenWork(i);
                worker[i] = w;
                thread[i] = std::this_thread::get_id();
            });
            for (u64 i = 0; i < tasks; ++i) {
                EXPECT_LT(worker[i], pool) << tasks << "/" << threads;
                // One thread per worker index, worker 0 the caller.
                for (u64 j = 0; j < tasks; ++j)
                    EXPECT_EQ(worker[i] == worker[j],
                              thread[i] == thread[j]);
                EXPECT_EQ(worker[i] == 0, thread[i] == caller);
            }
        }
    }
}

TEST(Parallel, ZeroTasksCallsNeitherCallback)
{
    for (const u32 threads : kPoolThreads) {
        bool called = false;
        util::parallelFor(
            0, threads, [&](u64, u32) { called = true; },
            [&](u64) { called = true; });
        EXPECT_FALSE(called) << threads;
    }
}

TEST(Parallel, ThrowIsRethrownAfterTheJoinAndEndsEmissionBeforeIt)
{
    // Tasks 9 and 20 throw, 9 after the longer wait: the lowest index
    // is the one rethrown, every task below it is still emitted, and
    // none at or after it.
    constexpr u64 kTasks = 32;
    for (const u32 threads : kPoolThreads) {
        std::atomic<int> running{0};
        std::vector<u64> emitted;
        std::string what;
        try {
            util::parallelFor(
                kTasks, threads,
                [&](u64 i, u32) {
                    running.fetch_add(1);
                    unevenWork(i);
                    if (i == 9)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(2));
                    running.fetch_sub(1);
                    if (i == 9 || i == 20)
                        throw std::runtime_error("task " + std::to_string(i));
                },
                [&](u64 i) { emitted.push_back(i); });
        } catch (const std::runtime_error &e) {
            what = e.what();
            EXPECT_EQ(running.load(), 0) << threads;
        }
        EXPECT_EQ(what, "task 9") << threads;
        std::vector<u64> want(9);
        for (u64 i = 0; i < want.size(); ++i)
            want[i] = i;
        EXPECT_EQ(emitted, want) << threads;
    }
}

} // namespace
} // namespace sonic
