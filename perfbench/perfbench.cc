/**
 * @file
 * The benchmark harness: drives the simulator library from outside,
 * through each module's public API, on three batch workloads, and
 * reports host-time metrics end to end and per layer. perfbench/run.py
 * builds this binary and runs it; see perfbench/README.md for the
 * workloads, the metrics and which layer metric should move which
 * end-to-end metric.
 *
 * Two modes:
 *
 *     perfbench setup --workload W
 *         Cold model-zoo construction for the workload's models in a
 *         fresh process, timed per model. One JSON line.
 *
 *     perfbench run --workload W --seed N --seconds S --trace 0|1
 *                   [--trace-out FILE]
 *         Set up (cold, timed), warm up untimed, repeat the workload's
 *         batch job for S seconds, then check the outputs. With
 *         --trace 1 the repetitions alternate untraced and traced, the
 *         traced ones record spans and counters around every library
 *         call (written to FILE when the run ends), and short layer
 *         probes follow. Human-readable lines, then one JSON line.
 *
 * Tracing lives in this file only: spans wrap the calls the benchmark
 * makes into the library, high-rate calls (sink adds) are counted and
 * sampled, and nothing inside src/ is instrumented.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/engine.hh"
#include "arch/memory.hh"
#include "dnn/device_net.hh"
#include "dnn/zoo.hh"
#include "fleet/fleet.hh"
#include "telemetry/aggregate.hh"
#include "telemetry/sonicz.hh"
#include "verify/oracle.hh"

using namespace sonic;

namespace
{

using Clock = std::chrono::steady_clock;

f64
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<f64>(Clock::now() - t0).count();
}

f64
median(std::vector<f64> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const u64 n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median of one timing over a run's jobs. */
template <typename Job>
f64
medianOf(const std::vector<Job> &jobs, f64 Job::*field)
{
    std::vector<f64> v;
    for (const auto &job : jobs)
        v.push_back(job.*field);
    return median(v);
}

/** Nearest-rank percentile of an unsorted sample. */
f64
percentile(std::vector<f64> v, f64 p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<u64>(
        std::ceil(p / 100.0 * static_cast<f64>(v.size())));
    return v[std::min<u64>(rank > 0 ? rank - 1 : 0, v.size() - 1)];
}

u64
fnv1a64(const std::string &s)
{
    u64 h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<u64>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(u64 v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonNumber(f64 v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** splitmix64: the benchmark's own input generator (seeded by --seed). */
u64
splitmix(u64 &state)
{
    u64 z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

f64
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<f64>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

u32
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

// --- Metrics and tracing --------------------------------------------

/** Named values in insertion order, printed as the metrics object. */
class Metrics
{
  public:
    void
    set(const std::string &name, f64 value, const std::string &unit)
    {
        for (auto &m : rows_)
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        rows_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (u64 i = 0; i < rows_.size(); ++i) {
            out += (i > 0 ? ", " : "") + jsonString(rows_[i].name)
                 + ": {\"value\": " + jsonNumber(rows_[i].value)
                 + ", \"unit\": " + jsonString(rows_[i].unit) + "}";
        }
        return out + "}";
    }

    void
    print(const char *title) const
    {
        std::printf("%s\n", title);
        for (const auto &m : rows_)
            std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }

  private:
    struct Row
    {
        std::string name;
        f64 value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

/**
 * In-memory span recorder around the benchmark's calls into the
 * library. Spans carry their parent; nothing is written until the run
 * ends (writeChrome). When disabled, open() returns 0 and records
 * nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled)
        : enabled_(enabled), origin_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    u32
    open(const std::string &name, u32 parent = 0)
    {
        if (!enabled_)
            return 0;
        spans_.push_back({name, parent, nowUs(), -1.0});
        return static_cast<u32>(spans_.size());
    }

    void
    close(u32 id)
    {
        if (id != 0)
            spans_[id - 1].endUs = nowUs();
    }

    /** A finished span whose interval was measured by the caller. */
    void
    record(const std::string &name, u32 parent, Clock::time_point t0,
           Clock::time_point t1)
    {
        if (enabled_)
            spans_.push_back({name, parent, us(t0), us(t1)});
    }

    bool
    writeChrome(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"traceEvents\": [";
        for (u64 i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i > 0 ? ",\n" : "\n") << "{\"name\": "
                << jsonString(s.name)
                << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
                << jsonNumber(s.startUs)
                << ", \"dur\": " << jsonNumber(s.endUs - s.startUs)
                << ", \"args\": {\"id\": " << i + 1
                << ", \"parent\": " << s.parent << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        u32 parent;
        f64 startUs;
        f64 endUs;
    };

    f64
    us(Clock::time_point t) const
    {
        return std::chrono::duration<f64, std::micro>(t - origin_)
            .count();
    }

    f64 nowUs() const { return us(Clock::now()); }

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name, u32 parent = 0)
        : tracer_(tracer), id_(tracer.open(name, parent))
    {
    }
    ~Span() { tracer_.close(id_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    u32 id() const { return id_; }

  private:
    Tracer &tracer_;
    u32 id_;
};

// --- Workloads --------------------------------------------------------

/** Devices per fleet-replay job: large enough that hit replay, the
 * reduction and the encoder dominate, small enough for several jobs
 * per run. */
constexpr u32 kReplayDevices = 400000;
/** Devices per fleet-miss job (every round executes). */
constexpr u32 kMissDevices = 1200;
/** Seeded fleets a fleet-miss run cycles through. */
constexpr u32 kMissVariants = 4;
/** Schedules per kernel per oracle-fuzz job. */
constexpr u32 kOracleSchedules = 120;
/** Devices re-simulated unmemoized for the telemetry check. */
constexpr u32 kCheckDevices = 200;

const kernels::Impl kOracleImpls[] = {
    kernels::Impl::Base, kernels::Impl::Tile8, kernels::Impl::Tile32,
    kernels::Impl::Sonic, kernels::Impl::Tails};

enum class Kind
{
    FleetReplay,
    FleetMiss,
    OracleFuzz
};

struct Workload
{
    const char *name;
    Kind kind;
    std::vector<dnn::NetRef> nets;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"fleet-replay", Kind::FleetReplay, {"MNIST", "HAR", "OkG"}},
        {"fleet-miss", Kind::FleetMiss, {"MNIST", "HAR", "OkG"}},
        {"oracle-fuzz", Kind::OracleFuzz, {"HAR"}},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

fleet::FleetPlan
mixedPlan()
{
    for (const auto &scenario : fleet::namedScenarios())
        if (scenario.name == "mixed-1k")
            return scenario.plan;
    std::fprintf(stderr, "perfbench: mixed-1k scenario missing\n");
    std::exit(2);
}

fleet::FleetPlan
fleetPlan(Kind kind, u64 seed)
{
    fleet::FleetPlan plan = mixedPlan();
    plan.baseSeed = seed;
    if (kind == Kind::FleetReplay) {
        plan.devices = kReplayDevices;
    } else {
        // ACK-variant rounds are never memoized, so every round of the
        // lossy-uplink pipeline executes: kernels, task runtime, lease,
        // reboots, radio and recharge, plus the DNF paths of Base and
        // Tile-128 under the small capacitors.
        plan.devices = kMissDevices;
        plan.impls.assign(std::begin(kernels::kAllImpls),
                          std::end(kernels::kAllImpls));
        plan.pipelines = {"lossy-uplink"};
    }
    return plan;
}

// --- Setup --------------------------------------------------------------

/** Cold zoo construction of the workload's models, timed per model. */
f64
timedSetup(const Workload &w, Metrics &layers, Tracer &tracer)
{
    Span all(tracer, "setup");
    const auto t0 = Clock::now();
    for (const auto &net : w.nets) {
        const auto a = Clock::now();
        const auto &entry = dnn::ModelZoo::instance().get(net);
        (void)entry.compressed();
        const auto b = Clock::now();
        (void)entry.dataset();
        const auto c = Clock::now();
        tracer.record("dnn.zoo_get." + net, all.id(), a, b);
        tracer.record("dnn.dataset." + net, all.id(), b, c);
        layers.set("dnn.zoo_get_s." + net,
                   std::chrono::duration<f64>(b - a).count(), "s");
        layers.set("dnn.dataset_s." + net,
                   std::chrono::duration<f64>(c - b).count(), "s");
    }
    return secondsSince(t0);
}

// --- Fleet jobs ---------------------------------------------------------

/**
 * Forwards device rows to an optional inner sink (the .sonicz encoder),
 * keeps the rows of the sampled devices for the telemetry check, and
 * timestamps begin/end so the job splits into simulate and reduce. In
 * traced jobs the time inside the inner add() is counted, and one add
 * in kAddSampleEvery is recorded as a span.
 */
class BenchSink : public fleet::FleetSink
{
  public:
    static constexpr u64 kAddSampleEvery = 4096;

    BenchSink(fleet::FleetSink *inner, const std::vector<u32> &sample,
              Tracer &tracer, u32 parent)
        : inner_(inner), sample_(sample), tracer_(tracer),
          parent_(parent)
    {
    }

    void
    begin(u64 total) override
    {
        begin_ = Clock::now();
        if (inner_ != nullptr)
            inner_->begin(total);
    }

    void
    add(const fleet::DeviceTelemetry &device) override
    {
        if (next_ < sample_.size()
            && sample_[next_] == device.assignment.deviceIndex) {
            captured.push_back(device);
            ++next_;
        }
        if (inner_ == nullptr)
            return;
        if (!tracer_.enabled()) {
            inner_->add(device);
            return;
        }
        const auto a = Clock::now();
        inner_->add(device);
        const auto b = Clock::now();
        addSeconds += std::chrono::duration<f64>(b - a).count();
        if (adds_++ % kAddSampleEvery == 0)
            tracer_.record("telemetry.add", parent_, a, b);
    }

    void
    end() override
    {
        const auto a = Clock::now();
        if (inner_ != nullptr)
            inner_->end();
        end_ = Clock::now();
        tracer_.record("fleet.simulate", parent_, begin_, a);
        if (inner_ == nullptr)
            return;
        finishSeconds = std::chrono::duration<f64>(end_ - a).count();
        tracer_.record("telemetry.finish", parent_, a, end_);
    }

    Clock::time_point beginTime() const { return begin_; }
    Clock::time_point endTime() const { return end_; }

    std::vector<fleet::DeviceTelemetry> captured;
    f64 addSeconds = 0.0;
    f64 finishSeconds = 0.0;

  private:
    fleet::FleetSink *inner_;
    const std::vector<u32> &sample_;
    Tracer &tracer_;
    u32 parent_;
    u64 next_ = 0;
    u64 adds_ = 0;
    Clock::time_point begin_{};
    Clock::time_point end_{};
};

/** What one fleet job measured and produced. */
struct FleetJob
{
    f64 runFleetSeconds = 0.0;
    f64 simulateSeconds = 0.0;
    f64 reduceSeconds = 0.0;
    f64 addSeconds = 0.0;
    f64 finishSeconds = 0.0;
    f64 aggregateSeconds = 0.0;
    u64 soniczBytes = 0;
    fleet::FleetSummary summary;
    std::string summaryJson;
    bool readbackMatches = true;
    std::string readbackError;
    std::vector<fleet::DeviceTelemetry> captured;
};

struct FleetThreads
{
    u32 workers = 1;
    u32 encoders = 0;
};

/** Worker plus encoder threads stay within the host's thread count. */
FleetThreads
fleetThreads(Kind kind)
{
    const u32 n = hostThreads();
    if (kind == Kind::FleetReplay && n >= 2)
        return {n - 1, 1};
    return {n, 0};
}

FleetJob
runFleetJob(Kind kind, const fleet::FleetPlan &plan,
            const std::vector<u32> &sample, Tracer &tracer)
{
    const FleetThreads threads = fleetThreads(kind);
    FleetJob job;
    Span span(tracer, "fleet.job");

    std::ostringstream sonicz(std::ios::binary);
    std::unique_ptr<telemetry::SoniczFleetSink> encoder;
    if (kind == Kind::FleetReplay)
        encoder = std::make_unique<telemetry::SoniczFleetSink>(
            sonicz, threads.encoders);
    BenchSink sink(encoder.get(), sample, tracer, span.id());

    fleet::FleetOptions options;
    options.threads = threads.workers;
    options.verifyCache = false; // the production path

    const auto t0 = Clock::now();
    job.summary = fleet::runFleet(plan, options, {&sink});
    const auto t1 = Clock::now();
    tracer.record("fleet.reduce", span.id(), sink.endTime(), t1);
    job.runFleetSeconds = std::chrono::duration<f64>(t1 - t0).count();
    job.simulateSeconds =
        std::chrono::duration<f64>(sink.endTime() - sink.beginTime())
            .count()
        - sink.finishSeconds;
    job.reduceSeconds =
        std::chrono::duration<f64>(t1 - sink.endTime()).count();
    job.addSeconds = sink.addSeconds;
    job.finishSeconds = sink.finishSeconds;
    job.captured = std::move(sink.captured);
    job.summaryJson = job.summary.toJson();

    if (kind != Kind::FleetReplay)
        return job;

    // The read beside the write: fold the file just written back into
    // group stats. The plan-only fields the rows do not carry come
    // from the live summary, so the two JSON renderings must match
    // byte for byte.
    const std::string bytes = sonicz.str();
    job.soniczBytes = bytes.size();
    std::istringstream in(bytes, std::ios::binary);
    fleet::FleetSummary folded;
    {
        Span read(tracer, "telemetry.aggregate", span.id());
        const auto a = Clock::now();
        const bool ok = telemetry::aggregate(in, &folded,
                                             &job.readbackError);
        job.aggregateSeconds = secondsSince(a);
        if (!ok) {
            job.readbackMatches = false;
            return job;
        }
    }
    folded.devices = job.summary.devices;
    folded.horizonSeconds = job.summary.horizonSeconds;
    folded.baseSeed = job.summary.baseSeed;
    folded.latencyP50Seconds = job.summary.latencyP50Seconds;
    folded.latencyP95Seconds = job.summary.latencyP95Seconds;
    folded.latencyP99Seconds = job.summary.latencyP99Seconds;
    folded.deliveryP50Seconds = job.summary.deliveryP50Seconds;
    folded.deliveryP95Seconds = job.summary.deliveryP95Seconds;
    folded.deliveryP99Seconds = job.summary.deliveryP99Seconds;
    job.readbackMatches = folded.toJson() == job.summaryJson;
    if (!job.readbackMatches)
        job.readbackError = "aggregate read-back differs from summary";
    return job;
}

template <typename T>
bool
sameBits(T a, T b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/** Bit-identical scalar telemetry (the fields a streamed row carries). */
bool
sameScalars(const fleet::DeviceTelemetry &a,
            const fleet::DeviceTelemetry &b)
{
    const auto &x = a.assignment;
    const auto &y = b.assignment;
    return x.deviceIndex == y.deviceIndex && x.net == y.net
        && x.impl == y.impl && x.environment.label() == y.environment.label()
        && x.pipeline == y.pipeline && x.seed == y.seed
        && a.inferencesCompleted == b.inferencesCompleted
        && a.diedNonTerminating == b.diedNonTerminating
        && a.failedIncomplete == b.failedIncomplete
        && a.reboots == b.reboots
        && sameBits(a.liveSeconds, b.liveSeconds)
        && sameBits(a.deadSeconds, b.deadSeconds)
        && sameBits(a.energyJ, b.energyJ)
        && sameBits(a.harvestedJ, b.harvestedJ)
        && a.resultsDelivered == b.resultsDelivered
        && a.txGaveUpRounds == b.txGaveUpRounds
        && a.txAttempts == b.txAttempts && a.txRetries == b.txRetries
        && sameBits(a.radioEnergyJ, b.radioEnergyJ)
        && sameBits(a.senseEnergyJ, b.senseEnergyJ)
        && sameBits(a.txBackoffSeconds, b.txBackoffSeconds)
        && sameBits(a.inferenceSecondsSum, b.inferenceSecondsSum)
        && sameBits(a.deliverySecondsSum, b.deliverySecondsSum);
}

/** Seeded, sorted, distinct device indices in [0, devices). */
std::vector<u32>
sampleDevices(u64 seed, u32 devices)
{
    const u32 want = std::min(kCheckDevices, devices);
    std::vector<u32> out;
    u64 state = seed ^ 0x5a3b1e0f7d2c4a69ull;
    while (out.size() < want) {
        const auto i = static_cast<u32>(splitmix(state) % devices);
        if (std::find(out.begin(), out.end(), i) == out.end())
            out.push_back(i);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Re-simulate the sampled devices unmemoized, fanned over the host's
 * threads; returns each device's host milliseconds (index-aligned with
 * `sample`) and fills `fresh`.
 */
std::vector<f64>
resimulate(const fleet::FleetPlan &plan, const std::vector<u32> &sample,
           std::vector<fleet::DeviceTelemetry> *fresh)
{
    fresh->assign(sample.size(), {});
    std::vector<f64> ms(sample.size(), 0.0);
    std::atomic<u64> next{0};
    auto worker = [&] {
        for (;;) {
            const u64 k = next.fetch_add(1);
            if (k >= sample.size())
                return;
            const auto t0 = Clock::now();
            (*fresh)[k] = fleet::simulateDevice(plan, sample[k]);
            ms[k] = secondsSince(t0) * 1e3;
        }
    };
    std::vector<std::thread> pool;
    const u32 n = std::min<u32>(hostThreads(),
                                static_cast<u32>(sample.size()));
    for (u32 t = 0; t < n; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return ms;
}

// --- Oracle jobs --------------------------------------------------------

struct OracleJob
{
    f64 seconds = 0.0;
    std::vector<f64> implSeconds; ///< aligned with kOracleImpls
    std::vector<verify::OracleReport> reports;
    u64 schedules = 0;
    u64 divergences = 0;
    u64 fired = 0;
    u64 reboots = 0;
    std::string digestInput; ///< the totals the digest covers
};

OracleJob
runOracleJob(app::Engine &engine, u64 seed, u32 schedules,
             Tracer &tracer)
{
    OracleJob job;
    Span span(tracer, "verify.job");
    const auto t0 = Clock::now();
    for (const auto impl : kOracleImpls) {
        verify::EngineOracleConfig config;
        config.net = "HAR";
        config.impl = impl;
        config.schedules = schedules;
        config.seed = seed;
        Span one(tracer,
                 "verify.battery." + std::string(kernels::implName(impl)),
                 span.id());
        const auto a = Clock::now();
        job.reports.push_back(verify::verifyWithEngine(engine, config));
        job.implSeconds.push_back(secondsSince(a));
    }
    job.seconds = secondsSince(t0);
    for (const auto &r : job.reports) {
        job.schedules += r.schedulesRun;
        job.divergences += r.divergences.size();
        job.fired += r.totalFired;
        job.reboots += r.totalReboots;
        job.digestInput += r.impl + " " + r.workload + " "
                         + std::to_string(r.schedulesRun) + " "
                         + std::to_string(r.totalFired) + " "
                         + std::to_string(r.totalReboots) + " "
                         + std::to_string(r.divergences.size()) + "\n";
    }
    return job;
}

// --- Layer probes (traced runs only) -----------------------------------

/** Repeat body until it has run min_seconds; returns seconds per call
 * and the number of calls through *calls. */
template <typename F>
f64
timeRepeated(F &&body, f64 min_seconds, u64 *calls = nullptr)
{
    u64 n = 0;
    const auto t0 = Clock::now();
    f64 s = 0.0;
    do {
        body();
        ++n;
        s = secondsSince(t0);
    } while (s < min_seconds);
    if (calls != nullptr)
        *calls = n;
    return s / static_cast<f64>(n);
}

arch::Device
continuousDevice()
{
    return arch::Device(arch::EnergyProfile::msp430fr5994(),
                        std::make_unique<arch::ContinuousPower>());
}

void
probeArch(Metrics &layers, Tracer &tracer)
{
    Span span(tracer, "arch.probe");
    {
        auto dev = continuousDevice();
        constexpr u64 kOps = 1 << 20;
        const f64 s = timeRepeated(
            [&] {
                for (u64 i = 0; i < kOps; ++i)
                    dev.consume(arch::Op::FixedMul);
            },
            0.2);
        layers.set("arch.consume_ns_per_op",
                   s * 1e9 / static_cast<f64>(kOps), "ns/op");
    }
    {
        auto dev = continuousDevice();
        arch::NvArray<i16> arr(dev, 1024, "perfbench.span");
        i16 buf[64] = {};
        constexpr u64 kRounds = 1 << 14;
        const f64 s = timeRepeated(
            [&] {
                for (u64 k = 0; k < kRounds; ++k) {
                    const u64 base = (k & 15) * 64;
                    arr.writeRange(base, 64, buf);
                    arr.readRange(base, 64, buf);
                    buf[k & 63] = static_cast<i16>(buf[(k + 1) & 63] + 1);
                }
            },
            0.2);
        layers.set("arch.span_ns_per_word",
                   s * 1e9 / static_cast<f64>(kRounds * 128), "ns/word");
    }
    {
        // The digest the oracle snapshots at every reboot, over the
        // FRAM image of a device holding HAR.
        auto dev = continuousDevice();
        dnn::DeviceNetwork net(
            dev, dnn::ModelZoo::instance().get("HAR").compressed());
        volatile u64 digest = 0; // keeps the calls observable
        const f64 s =
            timeRepeated([&] { digest = digest ^ dev.nvmDigest(); }, 0.2);
        layers.set("arch.nvm_digest_us", s * 1e6, "us");
    }
}

/** Host ns per charged op instance for each kernel over the nets. */
void
probeKernels(const Workload &w, Metrics &layers, Tracer &tracer)
{
    Span span(tracer, "kernels.probe");
    app::Engine engine(app::EngineOptions{1});
    for (const auto impl : kernels::kAllImpls) {
        const std::string name(kernels::implName(impl));
        Span one(tracer, "kernels." + name, span.id());
        f64 seconds = 0.0;
        f64 ops = 0.0;
        for (const auto &net : w.nets) {
            app::RunSpec spec;
            spec.net = net;
            spec.impl = impl;
            u64 opInstances = 0;
            u64 calls = 0;
            const f64 s = timeRepeated(
                [&] { opInstances = engine.runOne(spec).opInstances; },
                0.1, &calls);
            seconds += s * static_cast<f64>(calls);
            ops += static_cast<f64>(opInstances)
                 * static_cast<f64>(calls);
        }
        layers.set("kernels.ns_per_sim_op." + name,
                   ops > 0.0 ? seconds * 1e9 / ops : 0.0, "ns/op");
    }
}

// --- The run --------------------------------------------------------------

struct Args
{
    std::string mode;
    std::string workload;
    u64 seed = 1;
    f64 seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args *args)
{
    if (argc < 2)
        return false;
    args->mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (flag == "--workload")
                args->workload = value;
            else if (flag == "--seed")
                args->seed = std::stoull(value);
            else if (flag == "--seconds")
                args->seconds = std::stod(value);
            else if (flag == "--trace")
                args->trace = value == "1";
            else if (flag == "--trace-out")
                args->traceOut = value;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return (args->mode == "setup" || args->mode == "run")
        && (argc % 2 == 0);
}

/** Correctness accounting: every check is one attempt. */
struct Checks
{
    u64 attempted = 0;
    u64 failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("CHECK FAILED: %s\n", what.c_str());
        }
    }
};

struct Facts
{
    std::string digest;
    std::vector<std::pair<std::string, std::string>> values;

    void
    add(const std::string &k, f64 v)
    {
        values.emplace_back(k, jsonNumber(v));
    }

    std::string
    json() const
    {
        std::string out = "{\"digest\": " + jsonString(digest);
        for (const auto &[k, v] : values)
            out += ", " + jsonString(k) + ": " + v;
        return out
             + ", \"validation\": \"unvalidated: the repository holds "
               "no MSP430 hardware measurements\"}";
    }
};

/** Repeat job() until `seconds` have passed (at least `min_jobs`). */
template <typename F>
void
repeatFor(f64 seconds, u32 min_jobs, F &&job)
{
    const auto t0 = Clock::now();
    u32 n = 0;
    while (n < min_jobs || secondsSince(t0) < seconds) {
        job(n);
        ++n;
    }
}

void
runFleetWorkload(const Workload &w, const Args &args, Metrics &e2e,
                 Metrics &layers, Tracer &tracer, Checks &checks,
                 Facts &facts)
{
    // fleet-miss jobs are small, so one fleet's mix of kernels and
    // environments would decide the run's rate; its jobs cycle through
    // kMissVariants seeded fleets instead. Traced runs pair each
    // untraced job with a traced job of the same fleet.
    const u32 variants = w.kind == Kind::FleetMiss ? kMissVariants : 1;
    std::vector<fleet::FleetPlan> plans;
    u64 variant_seed = args.seed;
    for (u32 v = 0; v < variants; ++v)
        plans.push_back(
            fleetPlan(w.kind, v == 0 ? args.seed : splitmix(variant_seed)));
    const fleet::FleetPlan &plan = plans.front();
    const std::vector<u32> sample = sampleDevices(args.seed, plan.devices);
    Tracer off(false);

    // Warm-up, untimed: registries, trace tables and lazy environment
    // state, on a small fleet of the same population.
    {
        fleet::FleetPlan warm = plan;
        warm.devices = std::min<u32>(plan.devices / 4, 2000);
        warm.baseSeed = args.seed + 1;
        (void)runFleetJob(w.kind, warm, {}, off);
    }

    std::vector<FleetJob> plain;
    std::vector<FleetJob> traced;
    std::vector<std::string> expected(variants); // summary per fleet
    std::vector<fleet::DeviceTelemetry> streamed;
    repeatFor(args.seconds, args.trace ? 4 : 2, [&](u32 n) {
        const bool trace_this = args.trace && n % 2 == 1;
        const u32 v = (args.trace ? n / 2 : n) % variants;
        FleetJob job = runFleetJob(w.kind, plans[v],
                                   n == 0 ? sample : std::vector<u32>{},
                                   trace_this ? tracer : off);
        if (n == 0)
            streamed = std::move(job.captured);
        job.captured.clear();
        // Each fleet's summary, and the read-back of its telemetry,
        // must be identical every time it runs, traced or not.
        if (expected[v].empty())
            expected[v] = job.summaryJson;
        checks.check(job.summaryJson == expected[v],
                     std::string(trace_this ? "traced" : "untraced")
                         + " fleet summary differs between repetitions");
        if (w.kind == Kind::FleetReplay)
            checks.check(job.readbackMatches,
                         "read-back: " + job.readbackError);
        (trace_this ? traced : plain).push_back(std::move(job));
    });
    const FleetJob &first = plain.front();

    std::vector<fleet::DeviceTelemetry> fresh;
    const std::vector<f64> device_ms = resimulate(plan, sample, &fresh);
    checks.check(streamed.size() == sample.size(),
                 "sampled devices missing from the telemetry stream");
    for (u64 k = 0; k < fresh.size() && k < streamed.size(); ++k)
        checks.check(sameScalars(fresh[k], streamed[k]),
                     "device " + std::to_string(sample[k])
                         + " streamed telemetry differs from an "
                           "unmemoized re-simulation");

    const f64 devices = static_cast<f64>(plan.devices);
    const f64 run_s = medianOf(plain, &FleetJob::runFleetSeconds);
    e2e.set("items_per_s", devices / run_s, "items/s");

    const auto &g = first.summary.total;
    facts.digest = hex64(fnv1a64(first.summaryJson));
    facts.add("devices", devices);
    facts.add("energy_per_inference_j", g.energyPerInferenceJ());
    facts.add("inferences_per_device_day", g.inferencesPerDeviceDay());
    facts.add("reboots_per_inference", g.rebootsPerInference());
    facts.add("jobs_timed", static_cast<f64>(plain.size()));

    std::printf("workload %s: %u devices/job, %zu untraced jobs, "
                "%zu traced jobs\n",
                w.name, plan.devices, plain.size(), traced.size());
    std::printf("  devices_per_s %.6g devices/s (median of %zu jobs)\n"
                "  job seconds:",
                devices / run_s, plain.size());
    for (const auto &job : plain)
        std::printf(" %.4f", job.runFleetSeconds);
    std::printf("\n");
    if (w.kind == Kind::FleetReplay) {
        const f64 agg_s = medianOf(plain, &FleetJob::aggregateSeconds);
        std::printf("  readback_rows_per_s %.6g rows/s\n"
                    "  sonicz_bytes_per_device %.6g B\n",
                    devices / agg_s,
                    static_cast<f64>(first.soniczBytes) / devices);
        facts.add("sonicz_bytes", static_cast<f64>(first.soniczBytes));
    }

    if (!args.trace)
        return;

    layers.set("fleet.simulate_s",
               medianOf(traced, &FleetJob::simulateSeconds), "s");
    layers.set("fleet.reduce_s", medianOf(traced, &FleetJob::reduceSeconds),
               "s");
    layers.set("fleet.device_ms_p50", percentile(device_ms, 50.0), "ms");
    layers.set("fleet.device_ms_p95", percentile(device_ms, 95.0), "ms");
    const auto &cache = first.summary.cache;
    layers.set("round_cache.hits",
               static_cast<f64>(cache.roundHits + cache.lifetimeHits),
               "count");
    layers.set("round_cache.misses",
               static_cast<f64>(cache.roundMisses + cache.lifetimeMisses),
               "count");
    layers.set("round_cache.uncached_rounds",
               static_cast<f64>(cache.uncachedRounds), "count");
    layers.set("round_cache.hit_rate", cache.hitRate(), "ratio");
    layers.set("telemetry.sink_add_s",
               medianOf(traced, &FleetJob::addSeconds), "s");
    layers.set("telemetry.finish_s",
               medianOf(traced, &FleetJob::finishSeconds), "s");
    const f64 agg_s = medianOf(traced, &FleetJob::aggregateSeconds);
    layers.set("telemetry.aggregate_s", agg_s, "s");
    layers.set("telemetry.readback_rows_per_s",
               agg_s > 0.0 ? devices / agg_s : 0.0, "rows/s");
    layers.set("telemetry.sonicz_bytes_per_device",
               static_cast<f64>(first.soniczBytes) / devices, "B");
    layers.set("bench.trace_overhead_ratio",
               medianOf(traced, &FleetJob::runFleetSeconds) / run_s,
               "ratio");
}

void
runOracleWorkload(const Args &args, Metrics &e2e, Metrics &layers,
                  Tracer &tracer, Checks &checks, Facts &facts)
{
    app::Engine engine(app::EngineOptions{hostThreads()});
    Tracer off(false);
    (void)runOracleJob(engine, args.seed + 1, 8, off); // warm-up

    std::vector<OracleJob> plain;
    std::vector<OracleJob> traced;
    repeatFor(args.seconds, args.trace ? 4 : 2, [&](u32 n) {
        const bool trace_this = args.trace && n % 2 == 1;
        OracleJob job = runOracleJob(engine, args.seed, kOracleSchedules,
                                     trace_this ? tracer : off);
        (trace_this ? traced : plain).push_back(std::move(job));
    });

    const OracleJob &first = plain.front();
    for (const auto *jobs : {&plain, &traced})
        for (const auto &job : *jobs) {
            for (const auto &r : job.reports) {
                checks.attempted += r.schedulesRun;
                checks.failed += r.divergences.size();
                for (const auto &d : r.divergences)
                    std::printf("CHECK FAILED: %s divergence: %s\n",
                                r.impl.c_str(), d.reason.c_str());
            }
            checks.check(job.digestInput == first.digestInput,
                         "oracle totals differ between repetitions");
        }

    const f64 job_s = medianOf(plain, &OracleJob::seconds);
    const f64 schedules = static_cast<f64>(first.schedules);
    e2e.set("items_per_s", schedules / job_s, "items/s");

    facts.digest = hex64(fnv1a64(first.digestInput));
    facts.add("schedules", schedules);
    facts.add("injected_failures", static_cast<f64>(first.fired));
    facts.add("reboots_per_inference",
              static_cast<f64>(first.reboots) / schedules);
    facts.add("divergences", static_cast<f64>(first.divergences));
    facts.add("jobs_timed", static_cast<f64>(plain.size()));
    std::printf("workload oracle-fuzz: %.0f schedules/job, %zu untraced "
                "jobs, %zu traced jobs\n"
                "  schedules_per_s %.6g schedules/s (median of %zu jobs)\n",
                schedules, plain.size(), traced.size(), schedules / job_s,
                plain.size());
    std::printf("  job seconds:");
    for (const auto &job : plain)
        std::printf(" %.4f", job.seconds);
    std::printf("\n");

    if (!args.trace)
        return;

    for (u64 i = 0; i < std::size(kOracleImpls); ++i) {
        std::vector<f64> rate;
        for (const auto &job : traced)
            rate.push_back(static_cast<f64>(job.reports[i].schedulesRun)
                           / job.implSeconds[i]);
        layers.set("verify.schedules_per_s."
                       + std::string(kernels::implName(kOracleImpls[i])),
                   median(rate), "schedules/s");
    }
    layers.set("verify.injected_failures", static_cast<f64>(first.fired),
               "count");
    layers.set("bench.trace_overhead_ratio",
               medianOf(traced, &OracleJob::seconds) / job_s, "ratio");
}

/** Every per-layer metric, zero until the workload measures it (a
 * layer a workload never calls reads 0). */
void
declareLayers(Metrics &layers)
{
    for (const auto &net : dnn::kPaperNets) {
        layers.set("dnn.zoo_get_s." + net, 0.0, "s");
        layers.set("dnn.dataset_s." + net, 0.0, "s");
    }
    for (const char *name :
         {"fleet.simulate_s", "fleet.reduce_s", "telemetry.sink_add_s",
          "telemetry.finish_s", "telemetry.aggregate_s"})
        layers.set(name, 0.0, "s");
    layers.set("fleet.device_ms_p50", 0.0, "ms");
    layers.set("fleet.device_ms_p95", 0.0, "ms");
    for (const char *name : {"round_cache.hits", "round_cache.misses",
                             "round_cache.uncached_rounds"})
        layers.set(name, 0.0, "count");
    layers.set("round_cache.hit_rate", 0.0, "ratio");
    layers.set("telemetry.readback_rows_per_s", 0.0, "rows/s");
    layers.set("telemetry.sonicz_bytes_per_device", 0.0, "B");
    for (const auto impl : kernels::kAllImpls)
        layers.set("kernels.ns_per_sim_op."
                       + std::string(kernels::implName(impl)),
                   0.0, "ns/op");
    layers.set("arch.consume_ns_per_op", 0.0, "ns/op");
    layers.set("arch.span_ns_per_word", 0.0, "ns/word");
    layers.set("arch.nvm_digest_us", 0.0, "us");
    for (const auto impl : kOracleImpls)
        layers.set("verify.schedules_per_s."
                       + std::string(kernels::implName(impl)),
                   0.0, "schedules/s");
    layers.set("verify.injected_failures", 0.0, "count");
    layers.set("bench.trace_overhead_ratio", 0.0, "ratio");
}

std::string
hostJson(const Workload &w, const Args &args)
{
    std::string compiler;
#if defined(__clang__)
    compiler = "clang " __VERSION__;
#elif defined(__GNUC__)
    compiler = "g++ " __VERSION__;
#else
    compiler = "unknown";
#endif
    const u32 n = hostThreads();
    std::string threads;
    if (w.kind == Kind::OracleFuzz) {
        threads = "{\"engine_workers\": " + std::to_string(n) + "}";
    } else {
        const FleetThreads t = fleetThreads(w.kind);
        threads = "{\"fleet_workers\": " + std::to_string(t.workers)
                + ", \"sonicz_encoders\": " + std::to_string(t.encoders)
                + ", \"resimulation_workers\": " + std::to_string(n) + "}";
    }
    return "{\"nproc\": " + std::to_string(n)
         + ", \"compiler\": " + jsonString(compiler)
         + ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE)
         + ", \"cxx_flags\": " + jsonString(PERFBENCH_CXX_FLAGS)
         + ", \"threads\": " + threads
         + ", \"seed\": " + std::to_string(args.seed)
         + ", \"state\": \"setup timed cold in a fresh process; jobs "
           "timed warm after an untimed warm-up job\"}";
}

int
run(const Workload &w, const Args &args)
{
    Tracer tracer(args.trace);
    Metrics e2e;
    Metrics layers;
    declareLayers(layers);
    Checks checks;
    Facts facts;

    const f64 setup_s = timedSetup(w, layers, tracer);
    e2e.set("setup_s", setup_s, "s");

    if (w.kind == Kind::OracleFuzz)
        runOracleWorkload(args, e2e, layers, tracer, checks, facts);
    else
        runFleetWorkload(w, args, e2e, layers, tracer, checks, facts);
    e2e.set("peak_rss_mb", peakRssMb(), "MB");

    if (args.trace) {
        probeArch(layers, tracer);
        probeKernels(w, layers, tracer);
        if (!args.traceOut.empty() && !tracer.writeChrome(args.traceOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.traceOut.c_str());
    }

    e2e.print("end-to-end (untraced jobs):");
    if (args.trace)
        layers.print("per-layer (traced jobs and probes):");
    std::printf("simulated digest %s\n", facts.digest.c_str());
    std::printf("checks: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s, \"facts\": %s, \"host\": %s}\n",
                checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed),
                (args.trace ? layers : e2e).json().c_str(),
                facts.json().c_str(), hostJson(w, args).c_str());
    std::fflush(stdout);
    return checks.failed == 0 ? 0 : 1;
}

int
setup(const Workload &w)
{
    Tracer off(false);
    Metrics layers;
    const f64 s = timedSetup(w, layers, off);
    std::printf("{\"setup_s\": %s, \"layers\": %s}\n",
                jsonNumber(s).c_str(), layers.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: perfbench setup --workload W\n"
                     "       perfbench run --workload W --seed N "
                     "--seconds S --trace 0|1 [--trace-out FILE]\n");
        return 2;
    }
    const Workload *w = findWorkload(args.workload);
    if (w == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    return args.mode == "setup" ? setup(*w) : run(*w, args);
}
