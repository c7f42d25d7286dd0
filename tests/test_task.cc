/**
 * @file
 * Tests for the task runtime: scheduling, redo-log semantics
 * (read-own-writes, commit atomicity, replay), non-termination
 * detection, and — crucially — crash consistency at *every* operation
 * via exhaustive fail-at-N sweeps.
 */

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arch/memory.hh"
#include "task/runtime.hh"
#include "tests/test_helpers.hh"
#include "util/rng.hh"

namespace sonic::task
{
namespace
{

using arch::ContinuousPower;
using arch::Device;
using arch::EnergyProfile;
using arch::NvArray;
using arch::NvVar;
using arch::Op;

Device
continuousDevice()
{
    return Device(EnergyProfile::msp430fr5994(),
                  std::make_unique<ContinuousPower>());
}

TEST(Scheduler, RunsAChainOfTasks)
{
    auto dev = continuousDevice();
    Program prog;
    NvVar<i16> counter(dev, "c", 0);
    const TaskId t2 = prog.addTask([&](Runtime &rt) {
        rt.logWrite(counter, static_cast<i16>(counter.peek() + 10));
        return kDone;
    });
    const TaskId t1 = prog.addTask([&](Runtime &rt) {
        rt.logWrite(counter, static_cast<i16>(counter.peek() + 1));
        return t2;
    });
    Scheduler sched(dev, prog);
    const auto res = sched.run(t1);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.tasksExecuted, 2u);
    EXPECT_EQ(counter.peek(), 11);
}

TEST(Scheduler, TaskRestartsAfterFailure)
{
    Device dev(EnergyProfile::msp430fr5994(), testutil::failOnceAt(20));
    Program prog;
    NvVar<i16> attempts(dev, "attempts", 0);
    const TaskId t = prog.addTask([&](Runtime &rt) {
        attempts.poke(static_cast<i16>(attempts.peek() + 1));
        for (int k = 0; k < 50; ++k)
            rt.dev().consume(Op::Nop); // 50 draws: hits the injector
        return kDone;
    });
    Scheduler sched(dev, prog);
    const auto res = sched.run(t);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.reboots, 1u);
    EXPECT_EQ(attempts.peek(), 2); // executed twice
}

TEST(Runtime, LogReadSeesOwnWrites)
{
    auto dev = continuousDevice();
    Program prog;
    NvArray<i16> arr(dev, 4, "a");
    arr.poke(2, 5);
    bool saw_own = false, saw_home = false;
    const TaskId t = prog.addTask([&](Runtime &rt) {
        saw_home = rt.logRead(arr, 2) == 5;
        rt.logWrite(arr, 2, 9);
        saw_own = rt.logRead(arr, 2) == 9;
        return kDone;
    });
    Scheduler sched(dev, prog);
    EXPECT_TRUE(sched.run(t).completed);
    EXPECT_TRUE(saw_home);
    EXPECT_TRUE(saw_own);
    EXPECT_EQ(arr.peek(2), 9); // committed
}

TEST(Runtime, UncommittedWritesDiscardedOnFailure)
{
    // Fail after the log write but before the transition commit: the
    // home location must keep its old value on restart.
    Device dev(EnergyProfile::msp430fr5994(), testutil::failOnceAt(8));
    Program prog;
    NvArray<i16> arr(dev, 1, "a");
    arr.poke(0, 1);
    int attempt = 0;
    std::vector<i16> seen;
    const TaskId t = prog.addTask([&](Runtime &rt) {
        seen.push_back(arr.peek(0));
        ++attempt;
        rt.logWrite(arr, 0, static_cast<i16>(100 + attempt));
        rt.dev().consume(Op::Nop, 20);
        return kDone;
    });
    Scheduler sched(dev, prog);
    const auto res = sched.run(t);
    EXPECT_TRUE(res.completed);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], 1);
    EXPECT_EQ(seen[1], 1);       // first attempt's write discarded
    EXPECT_EQ(arr.peek(0), 102); // second attempt committed
}

TEST(Runtime, LogIndexResolvesLargeLogsLatestWins)
{
    // The O(1) read index must agree with what the old reverse scan
    // computed: the latest uncommitted write to each location wins,
    // unlogged locations fall through to home, and the log itself
    // still records every entry (commit order is unchanged).
    auto dev = continuousDevice();
    Program prog;
    NvArray<i16> arr(dev, 256, "a");
    NvVar<i32> big(dev, "big", -7);
    for (u32 k = 0; k < 256; ++k)
        arr.poke(k, static_cast<i16>(k));
    bool ok = true;
    u64 entries = 0;
    const TaskId t = prog.addTask([&](Runtime &rt) {
        // Three overwrite rounds across half the array.
        for (int round = 0; round < 3; ++round)
            for (u32 k = 0; k < 256; k += 2)
                rt.logWrite(arr, k,
                            static_cast<i16>(1000 * round + k));
        rt.logWrite(big, 41);
        rt.logWrite(big, 42);
        for (u32 k = 0; k < 256; ++k) {
            const i16 expect = (k % 2 == 0)
                ? static_cast<i16>(2000 + k)
                : static_cast<i16>(k); // unlogged -> home value
            ok = ok && rt.logRead(arr, k) == expect;
        }
        ok = ok && rt.logRead(big) == 42;
        entries = rt.logSize();
        return kDone;
    });
    Scheduler sched(dev, prog);
    EXPECT_TRUE(sched.run(t).completed);
    EXPECT_TRUE(ok);
    EXPECT_EQ(entries, 3u * 128u + 2u); // entries, not locations
    EXPECT_EQ(arr.peek(2), 2002);       // committed latest value
    EXPECT_EQ(big.peek(), 42);
}

TEST(Runtime, LastLoggedWriteWins)
{
    auto dev = continuousDevice();
    Program prog;
    NvArray<i16> arr(dev, 1, "a");
    const TaskId t = prog.addTask([&](Runtime &rt) {
        rt.logWrite(arr, 0, 1);
        rt.logWrite(arr, 0, 2);
        rt.logWrite(arr, 0, 3);
        return kDone;
    });
    Scheduler sched(dev, prog);
    EXPECT_TRUE(sched.run(t).completed);
    EXPECT_EQ(arr.peek(0), 3);
}

TEST(Runtime, ScalarVarsLogged)
{
    auto dev = continuousDevice();
    Program prog;
    NvVar<i32> big(dev, "big", 7);
    NvVar<i16> small(dev, "small", -2);
    const TaskId t = prog.addTask([&](Runtime &rt) {
        EXPECT_EQ(rt.logRead(big), 7);
        EXPECT_EQ(rt.logRead(small), -2);
        rt.logWrite(big, 100000);
        rt.logWrite(small, static_cast<i16>(123));
        EXPECT_EQ(rt.logRead(big), 100000);
        EXPECT_EQ(rt.logRead(small), 123);
        return kDone;
    });
    Scheduler sched(dev, prog);
    EXPECT_TRUE(sched.run(t).completed);
    EXPECT_EQ(big.peek(), 100000);
    EXPECT_EQ(small.peek(), 123);
}

/**
 * A discarded write is never read back. Both tasks of a two-task
 * program read every shared location before and after logging writes
 * to it, under one power failure at every draw. Each attempt first
 * logs a value unique to the attempt and then the task's real value,
 * so a write leaking out of a failed attempt would show in the next
 * attempt's first reads. Every read must equal the committed home
 * state plus this attempt's own earlier writes.
 */
TEST(Runtime, DiscardedWritesAreNeverReadBack)
{
    constexpr u32 kLen = 4;
    // Home state of arr[0..kLen), big and small, in that order.
    using State = std::array<i32, kLen + 2>;
    struct Outcome
    {
        bool completed = false;
        u64 reboots = 0;
        u64 draws = 0;
        // Home at each task entry, by step (0 = t1, 1 = t2).
        std::vector<std::pair<u32, State>> entries;
        State final{};
        std::string mismatch; // the first read that broke the property
    };

    auto run = [](std::unique_ptr<arch::PowerSupply> psu) {
        Outcome out;
        Device dev(EnergyProfile::msp430fr5994(), std::move(psu));
        NvArray<i16> arr(dev, kLen, "a");
        NvVar<i32> big(dev, "big", 70'000);
        NvVar<i16> small(dev, "small", -3);
        for (u32 k = 0; k < kLen; ++k)
            arr.poke(k, static_cast<i16>(10 * k + 1));
        auto home = [&] {
            State st{};
            for (u32 k = 0; k < kLen; ++k)
                st[k] = arr.peek(k);
            st[kLen] = big.peek();
            st[kLen + 1] = small.peek();
            return st;
        };
        // Location l < kLen is arr[l]; then big, then small.
        auto read = [&](Runtime &rt, u32 l) -> i32 {
            if (l < kLen)
                return rt.logRead(arr, l);
            return l == kLen ? rt.logRead(big) : rt.logRead(small);
        };
        auto write = [&](Runtime &rt, u32 l, i32 v) {
            if (l < kLen)
                rt.logWrite(arr, l, static_cast<i16>(v));
            else if (l == kLen)
                rt.logWrite(big, v);
            else
                rt.logWrite(small, static_cast<i16>(v));
        };

        i32 attempt = 0;
        auto body = [&](Runtime &rt, u32 step, TaskId next) {
            ++attempt;
            const State entry = home();
            out.entries.emplace_back(step, entry);
            State model = entry;
            auto check = [&](u32 l) {
                const i32 got = read(rt, l);
                if (got != model[l] && out.mismatch.empty())
                    out.mismatch = "step " + std::to_string(step)
                        + " attempt " + std::to_string(attempt)
                        + " location " + std::to_string(l) + ": read "
                        + std::to_string(got) + ", expected "
                        + std::to_string(model[l]);
            };
            for (u32 l = 0; l < kLen + 2; ++l) {
                check(l);
                model[l] = -100 * attempt - static_cast<i32>(l) - 1;
                write(rt, l, model[l]);
                check(l);
            }
            // The real values depend only on committed state.
            for (u32 l = 0; l < kLen + 2; ++l) {
                const u32 other = (l + 1) % (kLen + 2);
                check(other);
                model[l] = 2 * entry[l] + entry[other] % 97
                    + static_cast<i32>(step);
                write(rt, l, model[l]);
                check(l);
            }
            return next;
        };
        Program prog;
        const TaskId t2 = prog.addTask([&](Runtime &rt) {
            return body(rt, 1, kDone);
        });
        const TaskId t1 = prog.addTask([&](Runtime &rt) {
            return body(rt, 0, t2);
        });
        Scheduler sched(dev, prog);
        const auto res = sched.run(t1);
        out.completed = res.completed;
        out.reboots = res.reboots;
        out.final = home();
        if (auto *schedule =
                dynamic_cast<arch::SchedulePower *>(&dev.power()))
            out.draws = schedule->drawsSoFar();
        return out;
    };

    const Outcome golden = run(std::make_unique<ContinuousPower>());
    ASSERT_TRUE(golden.completed);
    ASSERT_EQ(golden.entries.size(), 2u);
    ASSERT_TRUE(golden.mismatch.empty()) << golden.mismatch;
    const u64 draws =
        run(std::make_unique<arch::SchedulePower>()).draws;
    ASSERT_GT(draws, 50u);

    for (u64 n = 0; n < draws + 5; ++n) {
        const Outcome out = run(testutil::failOnceAt(n));
        ASSERT_TRUE(out.completed) << "failed at draw " << n;
        EXPECT_EQ(out.reboots, n < draws ? 1u : 0u) << n;
        EXPECT_TRUE(out.mismatch.empty())
            << out.mismatch << " (failure at draw " << n << ")";
        // Home at every entry is exactly the committed golden state.
        for (const auto &[step, entry] : out.entries)
            EXPECT_EQ(entry, golden.entries[step].second)
                << "step " << step << ", failure at draw " << n;
        EXPECT_EQ(out.final, golden.final) << "failure at draw " << n;
    }
}

/**
 * The read index against a reference model. One Scheduler runs
 * kTasks seeded random tasks, so one Runtime reuses its index across
 * that many discards, and the first task grows it from empty past 256
 * live locations. Each task mixes logged writes and reads over arrays
 * of 1, 64 and 4096 elements (low indices collide across arrays) and
 * both scalar kinds. A task's operations are a function of its number,
 * which the task itself commits, so a retried attempt repeats them.
 *
 * Every read must match a std::map of this attempt's writes over the
 * committed home state, logSize() must count the writes, and at each
 * task entry home must equal the model of every commit so far. The
 * GetParam() != 0 variant fails every GetParam() draws, so discards
 * interleave with commits and replays.
 */
class LogIndexModel : public ::testing::TestWithParam<u64>
{
};

TEST_P(LogIndexModel, ReadsMatchAReferenceModel)
{
    constexpr i32 kTasks = 10'000;
    const u64 period = GetParam();
    std::unique_ptr<arch::PowerSupply> psu;
    if (period == 0)
        psu = std::make_unique<ContinuousPower>();
    else
        psu = testutil::failEvery(period);
    Device dev(EnergyProfile::msp430fr5994(), std::move(psu));
    NvArray<i16> a1(dev, 1, "a1");
    NvArray<i16> a64(dev, 64, "a64");
    NvArray<i16> a4k(dev, 4096, "a4k");
    NvVar<i32> v32(dev, "v32", 0);
    NvVar<i16> v16(dev, "v16", 0);
    NvVar<i32> taskNo(dev, "taskNo", 0);
    NvArray<i16> *const arrays[] = {&a1, &a64, &a4k};

    // A location is (which, idx): which 0-2 are the arrays, 3 is v32
    // and 4 is v16 (idx 0).
    using Loc = std::pair<u32, u32>;
    std::vector<std::vector<i32>> home = {
        std::vector<i32>(1), std::vector<i32>(64),
        std::vector<i32>(4096), std::vector<i32>(1),
        std::vector<i32>(1)};
    auto homeMatches = [&] {
        for (u32 w = 0; w < 3; ++w)
            for (u32 i = 0; i < home[w].size(); ++i)
                if (arrays[w]->peek(i) != home[w][i])
                    return false;
        return v32.peek() == home[3][0] && v16.peek() == home[4][0];
    };
    auto read = [&](Runtime &rt, Loc loc) -> i32 {
        if (loc.first < 3)
            return rt.logRead(*arrays[loc.first], loc.second);
        return loc.first == 3 ? rt.logRead(v32) : rt.logRead(v16);
    };
    auto pick = [](Rng &rng, bool big) -> Loc {
        if (big && rng.below(8) != 0)
            return {2, static_cast<u32>(rng.below(4096))};
        const auto which = static_cast<u32>(rng.below(5));
        const u64 size = which == 1 ? 64 : which == 2 ? 4096 : 1;
        const u64 span = which == 2 && rng.below(2) == 0 ? 64 : size;
        return {which, static_cast<u32>(rng.below(span))};
    };

    std::map<Loc, i32> returned; // the last attempt that reached commit
    i32 entered = 0;
    u64 committedEntries = 0, returnedEntries = 0;
    std::size_t maxLive = 0;
    std::string error;
    auto fail = [&](const std::string &what) {
        if (error.empty())
            error = what;
    };

    Program prog;
    TaskId self = kDone;
    self = prog.addTask([&](Runtime &rt) -> TaskId {
        const i32 k = taskNo.peek();
        if (k != entered) {
            // Task k - 1 committed: fold its writes into the model.
            for (const auto &[loc, v] : returned)
                home[loc.first][loc.second] = v;
            committedEntries += returnedEntries;
            entered = k;
            if (!homeMatches())
                fail("home diverged after commit " + std::to_string(k));
        }
        Rng rng(0x10c1'da7aull + static_cast<u64>(k));
        const bool big = k == 0 || rng.below(100) == 0;
        const u64 ops = big ? 640 : rng.below(40);
        std::map<Loc, i32> pending;
        std::vector<Loc> written;
        u64 writes = 0;
        for (u64 op = 0; op < ops; ++op) {
            if (rng.below(2) == 0) {
                const Loc loc = pick(rng, big);
                const auto value = static_cast<i32>(rng.next());
                if (loc.first < 3) {
                    const auto v16v = static_cast<i16>(value);
                    rt.logWrite(*arrays[loc.first], loc.second, v16v);
                    pending[loc] = v16v;
                } else if (loc.first == 3) {
                    rt.logWrite(v32, value);
                    pending[loc] = value;
                } else {
                    rt.logWrite(v16, static_cast<i16>(value));
                    pending[loc] = static_cast<i16>(value);
                }
                written.push_back(loc);
                if (rt.logSize() != ++writes)
                    fail("logSize " + std::to_string(rt.logSize())
                         + " after " + std::to_string(writes)
                         + " writes in task " + std::to_string(k));
            } else {
                // Half the reads aim at a location this attempt wrote.
                const Loc loc = !written.empty() && rng.below(2) == 0
                    ? written[rng.below(written.size())]
                    : pick(rng, big);
                const auto it = pending.find(loc);
                const i32 want = it != pending.end()
                    ? it->second
                    : home[loc.first][loc.second];
                const i32 got = read(rt, loc);
                if (got != want)
                    fail("task " + std::to_string(k) + " read ("
                         + std::to_string(loc.first) + ", "
                         + std::to_string(loc.second) + ") = "
                         + std::to_string(got) + ", expected "
                         + std::to_string(want));
            }
        }
        maxLive = std::max(maxLive, pending.size());
        rt.logWrite(taskNo, k + 1);
        returned = std::move(pending);
        returnedEntries = rt.logSize();
        return k + 1 == kTasks ? kDone : self;
    });

    Scheduler sched(dev, prog);
    const auto res = sched.run(self);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(error.empty()) << error;
    for (const auto &[loc, v] : returned)
        home[loc.first][loc.second] = v;
    committedEntries += returnedEntries;
    EXPECT_TRUE(homeMatches());
    EXPECT_EQ(taskNo.peek(), kTasks);
    EXPECT_GT(maxLive, 256u);
    // A commit finished by a replay at reboot is not counted as
    // executed, and the replay applies the entries a second time.
    const u64 applied = dev.stats().opCount(Op::LogCommit);
    if (period == 0) {
        EXPECT_EQ(res.reboots, 0u);
        EXPECT_EQ(res.tasksExecuted, static_cast<u64>(kTasks));
        EXPECT_EQ(applied, committedEntries);
    } else {
        EXPECT_GT(res.reboots, 100u);
        EXPECT_LT(res.tasksExecuted, static_cast<u64>(kTasks));
        EXPECT_GT(applied, committedEntries);
    }
}

INSTANTIATE_TEST_SUITE_P(Supplies, LogIndexModel,
                         ::testing::Values(0u, 2003u));

TEST(Scheduler, DetectsNonTermination)
{
    // A task that always needs more energy than one charge cycle and
    // makes no non-volatile progress. maxFailuresWithoutProgress = N
    // tolerates N consecutive failures; the verdict comes on failure
    // N + 1.
    for (const u64 n : {0u, 1u, 4u, 16u, 48u}) {
        Device dev(EnergyProfile::msp430fr5994(), testutil::failEvery(10));
        Program prog;
        const TaskId t = prog.addTask([&](Runtime &rt) {
            for (int k = 0; k < 1000; ++k)
                rt.dev().consume(Op::Nop);
            return kDone;
        });
        SchedulerConfig config;
        config.maxFailuresWithoutProgress = n;
        Scheduler sched(dev, prog, config);
        const auto res = sched.run(t);
        EXPECT_FALSE(res.completed) << "N = " << n;
        EXPECT_TRUE(res.nonTerminating) << "N = " << n;
        EXPECT_EQ(res.reboots, n + 1) << "N = " << n;
    }
}

TEST(Scheduler, ProgressBeaconPreventsDnfVerdict)
{
    // Same energy starvation, but the task advances a loop-continuation
    // index each attempt — it must finish eventually.
    Device dev(EnergyProfile::msp430fr5994(), testutil::failEvery(40));
    Program prog;
    NvVar<i16> i(dev, "i", 0);
    const TaskId t = prog.addTask([&](Runtime &rt) {
        i16 cur = i.read();
        while (cur < 200) {
            rt.dev().consume(Op::FixedMul);
            i.write(static_cast<i16>(cur + 1));
            rt.progress(static_cast<u64>(cur));
            ++cur;
        }
        return kDone;
    });
    SchedulerConfig config;
    config.maxFailuresWithoutProgress = 4;
    Scheduler sched(dev, prog, config);
    const auto res = sched.run(t);
    EXPECT_TRUE(res.completed);
    EXPECT_GT(res.reboots, 10u);
    EXPECT_EQ(i.peek(), 200);
}

/**
 * The central crash-consistency property: a multi-task program with
 * logged writes, interrupted by exactly one power failure at operation
 * N, must produce the same final state as an uninterrupted run — for
 * every N up to the program's length. This covers failures inside
 * tasks, during commit phase 1, during entry application, and during
 * the commit-flag clear.
 */
TEST(Scheduler, CommitAtomicityAtEveryOperation)
{
    // First measure the uninterrupted op count and golden state.
    auto golden_run = [](arch::PowerSupply *psu_raw,
                         std::vector<i16> &out, u64 &ops) {
        std::unique_ptr<arch::PowerSupply> psu(psu_raw);
        Device dev(EnergyProfile::msp430fr5994(), std::move(psu));
        Program prog;
        NvArray<i16> arr(dev, 8, "a");
        NvVar<i16> sum(dev, "sum", 0);
        const TaskId t2 = prog.addTask([&](Runtime &rt) {
            i16 s = rt.logRead(sum);
            for (u32 k = 0; k < 8; ++k)
                s = static_cast<i16>(s + rt.logRead(arr, k));
            rt.logWrite(sum, s);
            return kDone;
        });
        const TaskId t1 = prog.addTask([&](Runtime &rt) {
            for (u32 k = 0; k < 8; ++k)
                rt.logWrite(arr, k, static_cast<i16>(k * k + 1));
            return t2;
        });
        Scheduler sched(dev, prog);
        const auto res = sched.run(t1);
        ASSERT_TRUE(res.completed);
        out.clear();
        for (u32 k = 0; k < 8; ++k)
            out.push_back(arr.peek(k));
        out.push_back(sum.peek());
        ops = dev.stats().totalCycles(); // proxy; we sweep ops below
    };

    std::vector<i16> golden;
    u64 unused = 0;
    golden_run(new arch::ContinuousPower(), golden, unused);

    // Count draws with a huge injector (never fires).
    u64 total_draws = 0;
    {
        Device dev(EnergyProfile::msp430fr5994(),
                   testutil::failOnceAt(1u << 30));
        Program prog;
        NvArray<i16> arr(dev, 8, "a");
        NvVar<i16> sum(dev, "sum", 0);
        const TaskId t2 = prog.addTask([&](Runtime &rt) {
            i16 s = rt.logRead(sum);
            for (u32 k = 0; k < 8; ++k)
                s = static_cast<i16>(s + rt.logRead(arr, k));
            rt.logWrite(sum, s);
            return kDone;
        });
        const TaskId t1 = prog.addTask([&](Runtime &rt) {
            for (u32 k = 0; k < 8; ++k)
                rt.logWrite(arr, k, static_cast<i16>(k * k + 1));
            return t2;
        });
        Scheduler sched(dev, prog);
        ASSERT_TRUE(sched.run(t1).completed);
        // Op instances bound the consume calls, so they bound the draws.
        u64 count = 0;
        const auto &stats = dev.stats();
        for (u32 o = 0; o < arch::kNumOps; ++o)
            count += stats.opCount(static_cast<arch::Op>(o));
        total_draws = count;
    }
    ASSERT_GT(total_draws, 50u);

    for (u64 n = 0; n < total_draws + 5; ++n) {
        Device dev(EnergyProfile::msp430fr5994(), testutil::failOnceAt(n));
        Program prog;
        NvArray<i16> arr(dev, 8, "a");
        NvVar<i16> sum(dev, "sum", 0);
        const TaskId t2 = prog.addTask([&](Runtime &rt) {
            i16 s = rt.logRead(sum);
            for (u32 k = 0; k < 8; ++k)
                s = static_cast<i16>(s + rt.logRead(arr, k));
            rt.logWrite(sum, s);
            return kDone;
        });
        const TaskId t1 = prog.addTask([&](Runtime &rt) {
            for (u32 k = 0; k < 8; ++k)
                rt.logWrite(arr, k, static_cast<i16>(k * k + 1));
            return t2;
        });
        Scheduler sched(dev, prog);
        const auto res = sched.run(t1);
        ASSERT_TRUE(res.completed) << "failed at op " << n;
        std::vector<i16> state;
        for (u32 k = 0; k < 8; ++k)
            state.push_back(arr.peek(k));
        state.push_back(sum.peek());
        EXPECT_EQ(state, golden) << "divergence with failure at op "
                                 << n;
    }
}

/** Repeated periodic failures must also preserve the final state. */
class PeriodicFailureSweep : public ::testing::TestWithParam<u64>
{
};

TEST_P(PeriodicFailureSweep, StateMatchesGolden)
{
    const u64 period = GetParam();
    auto build_and_run = [&](std::unique_ptr<arch::PowerSupply> psu,
                             std::vector<i16> &out, bool &completed) {
        Device dev(EnergyProfile::msp430fr5994(), std::move(psu));
        Program prog;
        NvArray<i16> arr(dev, 6, "a");
        const TaskId t = prog.addTask([&](Runtime &rt) {
            for (u32 k = 0; k < 6; ++k)
                rt.logWrite(arr, k,
                            static_cast<i16>(3 * k + 7));
            return kDone;
        });
        Scheduler sched(dev, prog);
        completed = sched.run(t).completed;
        out.clear();
        for (u32 k = 0; k < 6; ++k)
            out.push_back(arr.peek(k));
    };

    std::vector<i16> golden, state;
    bool ok = false;
    build_and_run(std::make_unique<ContinuousPower>(), golden, ok);
    ASSERT_TRUE(ok);
    build_and_run(testutil::failEvery(period), state, ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(state, golden);
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodicFailureSweep,
                         ::testing::Values(29u, 37u, 53u, 71u, 97u,
                                           131u, 211u));

} // namespace
} // namespace sonic::task
