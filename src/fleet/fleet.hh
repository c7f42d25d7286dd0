/**
 * @file
 * The fleet simulator: thousands of concurrent intermittently-powered
 * devices, each living out a seeded deployment — a model, a kernel, a
 * harvested-energy environment (src/env) with its own capacitor size
 * and deployment phase — and streaming per-device plus aggregate
 * telemetry.
 *
 * A FleetPlan is declarative, like a SweepPlan: it names the
 * model/kernel/environment/pipeline distributions and the fleet size,
 * and every
 * device's assignment and seed derive deterministically from the base
 * seed and the device index alone. Execution fans device lifetimes
 * across util::parallelFor's worker pool (a shared cursor: whichever
 * worker frees up first takes the next device), and the aggregate
 * FleetSummary is bit-identical regardless of thread count because
 * per-device telemetry is placed by device index and reduced
 * sequentially.
 *
 * A device lifetime: boot fully charged, run an inference, sleep until
 * the harvester refills the buffer, repeat — until the simulated
 * horizon or the per-device inference cap is reached, or the kernel is
 * declared non-terminating under that environment (a DNF device, e.g.
 * a large tiling on a tiny capacitor). Telemetry per device:
 * inferences/day, reboots/inference, dead-time fraction,
 * energy/inference, per-inference latency; the summary aggregates
 * fleet-wide and per environment/kernel/model, with p50/p95/p99
 * latency over every completed inference.
 */

#ifndef SONIC_FLEET_FLEET_HH
#define SONIC_FLEET_FLEET_HH

#include <map>
#include <string>
#include <vector>

#include "app/experiment.hh"
#include "env/environment.hh"
#include "pipeline/pipeline.hh"
#include "telemetry/fields.hh"
#include "util/json.hh"

namespace sonic::trace
{
class TraceCollector; // src/trace/trace.hh; fleet.cc sees the full type
}

namespace sonic::fleet
{

/** What one device in the fleet was assigned (derived, not chosen). */
struct DeviceAssignment
{
    u32 deviceIndex = 0;
    dnn::NetRef net;
    kernels::Impl impl = kernels::Impl::Sonic;
    env::EnvRef environment;
    /** Registered pipeline the device runs each round. */
    std::string pipeline = "infer-only";
    /** Per-device seed: environment phase + stochastic models (ACK loss). */
    u64 seed = 0;

    /** @name Positions in the plan's distribution lists (the compact
     * coordinates the round cache keys on). */
    /// @{
    u32 netIndex = 0;
    u32 implIndex = 0;
    u32 envIndex = 0;
    u32 pipelineIndex = 0;
    /// @}
};

/** Declarative fleet description. */
struct FleetPlan
{
    /** Number of devices in the deployment. */
    u32 devices = 100;

    /** @name Assignment distributions (uniform over each list,
     * seeded per device). */
    /// @{
    std::vector<dnn::NetRef> nets{"MNIST"};
    std::vector<kernels::Impl> impls{kernels::Impl::Sonic};
    std::vector<env::EnvRef> environments{{"rf-paper", 0.0}};
    std::vector<std::string> pipelines{"infer-only"};
    /// @}

    /** Simulated deployment length per device. */
    f64 horizonSeconds = 86400.0;

    /**
     * Inference cap per device (0 = horizon-bound only). Fleet-scale
     * runs simulate a few inferences per device and report rates;
     * the horizon still bounds devices whose environment is so poor
     * that even one inference exceeds it.
     */
    u32 maxInferencesPerDevice = 4;

    app::ProfileVariant profile = app::ProfileVariant::Standard;
    u64 baseSeed = 0x5eed;

    /**
     * Trace 1-in-N devices (0 = tracing off). Device i is sampled iff
     * `traceEvery > 0 && i % traceEvery == 0`, a pure function of the
     * index — independent of thread count, like assignmentFor. Sampled
     * devices run fully unmemoized (they neither read nor write the
     * round/lifetime caches) so cache contents and the telemetry of
     * every other device are untouched by sampling; their own
     * telemetry is bit-identical too, by the cache soundness
     * invariant. Takes effect only when FleetOptions::traces is set.
     */
    u32 traceEvery = 0;

    /**
     * Planned kernel assignment (sonic_plan output): maps a coordinate
     * key — coordinateKey(envLabel, net, pipeline) — to the kernel
     * every device landing on that coordinate runs. Empty = the
     * default hash-dealt uniform draw over `impls` (byte-identical to
     * pre-planner fleets). When non-empty it must cover the FULL
     * environments x nets x pipelines cross product (validate()
     * enforces this) and only name kernels present in `impls`, so the
     * round-cache coordinates stay dense.
     *
     * The env/net/pipeline/seed deals are untouched: a plan only
     * overrides WHICH kernel a device runs, so planned and hash-dealt
     * fleets are device-for-device comparable.
     */
    std::map<std::string, kernels::Impl> implByCoordinate;

    /** The implByCoordinate key of one coordinate. */
    static std::string coordinateKey(const std::string &envLabel,
                                     const std::string &net,
                                     const std::string &pipeline);

    /**
     * Validate the distributions (registered model/environment names,
     * non-empty axes, positive fleet size) and, when a planned
     * assignment is present, its coordinate coverage. Fatal on
     * configuration errors, naming the registered alternatives.
     */
    void validate() const;

    /**
     * The deterministic assignment of one device: a pure function of
     * (baseSeed, deviceIndex) and the distribution lists — independent
     * of thread count and of which worker runs the device.
     */
    DeviceAssignment assignmentFor(u32 device_index) const;
};

/**
 * The scalars measured over one device lifetime and the rates derived
 * from them: what runFleet keeps per device (a std::vector of these,
 * 112 B each, written at each device's own index), what a .sonicz row
 * stores beside the assignment, and what GroupStats folds.
 */
struct DeviceCounters
{
    u32 inferencesCompleted = 0;
    bool diedNonTerminating = false; ///< kernel DNF under this env
    /** An inference ended neither completed nor non-terminating (no
     * kernel does this today; kept distinct so a future bounded-retry
     * failure mode cannot masquerade as a healthy device). */
    bool failedIncomplete = false;
    u64 reboots = 0;

    f64 liveSeconds = 0.0;
    f64 deadSeconds = 0.0; ///< recharge + TX backoff time
    f64 energyJ = 0.0;
    f64 harvestedJ = 0.0;

    /** @name Pipeline delivery telemetry (zero for infer-only). */
    /// @{
    u32 resultsDelivered = 0;  ///< rounds whose result was acknowledged
    u32 txGaveUpRounds = 0;    ///< rounds that exhausted TX attempts
    u64 txAttempts = 0;        ///< completed TX attempts, incl. acked
    u64 txRetries = 0;         ///< completed attempts without an ACK
    f64 radioEnergyJ = 0.0;    ///< wake + payload + ACK-listen energy
    f64 senseEnergyJ = 0.0;    ///< sample-acquisition energy
    f64 txBackoffSeconds = 0.0; ///< retry backoff (inside deadSeconds)
    /// @}

    /** Running sums of DeviceTelemetry's latency lists (accumulated
     * in round order, so sum/count is bit-identical to the mean a
     * sequential pass over the lists would compute). */
    f64 inferenceSecondsSum = 0.0;
    f64 deliverySecondsSum = 0.0;

    bool operator==(const DeviceCounters &) const = default;

    /** "dnf", "fail" or "ok". */
    const char *
    status() const
    {
        return diedNonTerminating ? "dnf"
                                  : (failedIncomplete ? "fail" : "ok");
    }

    f64 totalSeconds() const { return liveSeconds + deadSeconds; }

    f64
    meanInferenceSeconds() const
    {
        return inferencesCompleted > 0
            ? inferenceSecondsSum / inferencesCompleted
            : 0.0;
    }

    f64
    meanDeliverySeconds() const
    {
        return resultsDelivered > 0
            ? deliverySecondsSum / resultsDelivered
            : 0.0;
    }

    f64
    inferencesPerDay() const
    {
        const f64 t = totalSeconds();
        return t > 0.0 ? inferencesCompleted * 86400.0 / t : 0.0;
    }

    f64
    rebootsPerInference() const
    {
        return inferencesCompleted > 0
            ? static_cast<f64>(reboots) / inferencesCompleted
            : static_cast<f64>(reboots);
    }

    f64
    deadFraction() const
    {
        const f64 t = totalSeconds();
        return t > 0.0 ? deadSeconds / t : 0.0;
    }

    f64
    energyPerInferenceJ() const
    {
        return inferencesCompleted > 0 ? energyJ / inferencesCompleted
                                       : 0.0;
    }
};

/** Everything measured over one device lifetime. */
struct DeviceTelemetry : DeviceCounters
{
    DeviceAssignment assignment;

    /**
     * Wall-clock (live + dead) seconds of each completed inference.
     * Populated by simulateDevice; the telemetry runFleet hands to
     * sinks carries only the counters — at a million devices the
     * per-round lists live in the worker-local percentile buffers
     * instead.
     */
    std::vector<f64> inferenceSeconds;

    /** Sense-to-ACK wall-clock seconds of each delivered result
     * (same caveat as inferenceSeconds). */
    std::vector<f64> deliverySeconds;
};

/**
 * The fleet record's field table: the assignment, the counters, and
 * the derived label, total time and rates the CSV prints. The fleet
 * CSV and JSON sinks, the .sonicz fleet schema, sonic_cat and the
 * columnar folds (telemetry::aggregate, the planner's ingest) all walk
 * it.
 */
const telemetry::FieldTable<DeviceTelemetry> &deviceFields();

/**
 * Receives per-device telemetry in device-index order as lifetimes
 * complete (out-of-order completions are held back, as in the sweep
 * engine). Methods are never called concurrently. Telemetry delivered
 * by runFleet carries the assignment and the counters; the per-round
 * latency lists are empty.
 */
class FleetSink
{
  public:
    virtual ~FleetSink() = default;

    virtual void begin(u64 totalDevices) { (void)totalDevices; }
    virtual void add(const DeviceTelemetry &device) = 0;
    virtual void end() {}
};

/** The fleet CSV's columns, which its JSON objects share. */
const telemetry::FieldOrder<DeviceTelemetry> &csvFields();

/** Streams one CSV row per device (header first). */
using FleetCsvSink =
    telemetry::CsvSinkOf<FleetSink, DeviceTelemetry, csvFields>;

/** Streams a JSON array with one object per device (the same stored
 * and derived fields as the CSV rows, in the same fmtF64 text; a
 * non-finite rate is null). */
using FleetJsonSink =
    telemetry::JsonSinkOf<FleetSink, DeviceTelemetry, csvFields>;

/** One aggregation bucket (the whole fleet, or a breakdown group). */
struct GroupStats
{
    u64 devices = 0;
    u64 dnfDevices = 0;
    u64 failedDevices = 0; ///< stopped incomplete without a DNF verdict
    u64 inferences = 0;
    u64 reboots = 0;
    f64 liveSeconds = 0.0;
    f64 deadSeconds = 0.0;
    f64 energyJ = 0.0;
    f64 harvestedJ = 0.0;

    u64 resultsDelivered = 0;
    u64 txGaveUpDevices = 0; ///< devices with >= 1 given-up round
    u64 txAttempts = 0;
    u64 txRetries = 0;
    f64 radioEnergyJ = 0.0;
    f64 senseEnergyJ = 0.0;
    f64 txBackoffSeconds = 0.0;

    /** The one mapping from a device's counters into a bucket. */
    void accumulate(const DeviceCounters &device);

    f64
    inferencesPerDeviceDay() const
    {
        const f64 t = liveSeconds + deadSeconds;
        return t > 0.0 ? inferences * 86400.0 / t : 0.0;
    }

    f64
    rebootsPerInference() const
    {
        return inferences > 0
            ? static_cast<f64>(reboots) / inferences
            : static_cast<f64>(reboots);
    }

    f64
    deadFraction() const
    {
        const f64 t = liveSeconds + deadSeconds;
        return t > 0.0 ? deadSeconds / t : 0.0;
    }

    f64
    energyPerInferenceJ() const
    {
        return inferences > 0 ? energyJ / inferences : 0.0;
    }

    f64
    deliveredPerDeviceDay() const
    {
        const f64 t = liveSeconds + deadSeconds;
        return t > 0.0 ? resultsDelivered * 86400.0 / t : 0.0;
    }

    f64
    retriesPerDelivered() const
    {
        return resultsDelivered > 0
            ? static_cast<f64>(txRetries) / resultsDelivered
            : static_cast<f64>(txRetries);
    }

    f64
    radioEnergyFraction() const
    {
        return energyJ > 0.0 ? radioEnergyJ / energyJ : 0.0;
    }
};

/** The machine-readable outcome of a fleet run. */
struct FleetSummary
{
    u32 devices = 0;
    f64 horizonSeconds = 0.0;
    u64 baseSeed = 0;

    GroupStats total;
    std::map<std::string, GroupStats> byEnvironment;
    std::map<std::string, GroupStats> byImpl;
    std::map<std::string, GroupStats> byNet;
    std::map<std::string, GroupStats> byPipeline;

    /** Latency percentiles over every completed inference
     * (nearest-rank on the sorted latency list; 0 when none). */
    f64 latencyP50Seconds = 0.0;
    f64 latencyP95Seconds = 0.0;
    f64 latencyP99Seconds = 0.0;

    /** Sense-to-ACK latency percentiles over delivered results. */
    f64 deliveryP50Seconds = 0.0;
    f64 deliveryP95Seconds = 0.0;
    f64 deliveryP99Seconds = 0.0;

    /**
     * Memoization counters. Diagnostics only, and deliberately NOT
     * part of toJson(): the summary artifact must stay byte-identical
     * between memoized and --no-cache runs (the CI soundness gate).
     * They are the same at any thread count (see round_cache.hh).
     */
    struct CacheStats
    {
        bool operator==(const CacheStats &) const = default;

        u64 roundHits = 0;
        u64 roundMisses = 0;
        u64 lifetimeHits = 0;
        u64 lifetimeMisses = 0;
        u64 uncachedRounds = 0; ///< ack-variant or foreign-supply rounds

        u64
        lookups() const
        {
            return roundHits + roundMisses + lifetimeHits
                 + lifetimeMisses;
        }

        f64
        hitRate() const
        {
            const u64 n = lookups();
            return n > 0
                ? static_cast<f64>(roundHits + lifetimeHits)
                      / static_cast<f64>(n)
                : 0.0;
        }
    };
    CacheStats cache;

    /** Render the deployment report as JSON (the CI artifact). */
    std::string toJson() const;
};

/** Execution options. */
struct FleetOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    u32 threads = 0;

    /** Memoize round traces / always-on lifetimes (sonic_fleet
     * --no-cache clears this for A/B verification). */
    bool useCache = true;

    /**
     * Re-run every cache hit and cross-check the full trace — energy,
     * timing, TX accounting, logits digest and the PR 3 NVM digest —
     * against the memoized entry, dying on any mismatch. Defaults on
     * in debug builds; costs a full simulation per hit.
     */
#ifndef NDEBUG
    bool verifyCache = true;
#else
    bool verifyCache = false;
#endif

    /**
     * Event-trace collector for the devices FleetPlan::traceEvery
     * samples; null (the default) disables tracing entirely — no
     * probes are attached and the simulation paths are the exact
     * pre-trace ones. The collector outlives the run and is written
     * by the caller (device order, thread-count independent).
     */
    trace::TraceCollector *traces = nullptr;

    /** Heartbeat devices/s + ETA line on stderr while the fleet runs
     * (sonic_fleet --progress). */
    bool progress = false;
};

/** A named, ready-to-run deployment (sonic_fleet --scenario=...). */
struct FleetScenario
{
    std::string name;
    std::string description;
    FleetPlan plan;
};

/**
 * The built-in scenarios — smoke-200 (CI smoke), mixed-1k (the
 * acceptance fleet; scale it with --devices), wildlife-day (the
 * paper's motivating deployment) — shared by the sonic_fleet and
 * sonic_plan CLIs, bench_telemetry_sonicz and perfbench.
 */
const std::vector<FleetScenario> &namedScenarios();

/**
 * Simulate one device lifetime on the calling thread, unmemoized
 * (exposed for tests; runFleet fans the memoizing equivalent across
 * the pool — see src/fleet/round_cache.hh for why the two are
 * bit-identical).
 */
DeviceTelemetry simulateDevice(const FleetPlan &plan, u32 device_index);

/**
 * Run the whole fleet. Telemetry streams to the sinks in device-index
 * order; the returned summary is bit-identical for every thread count
 * and for memoized vs unmemoized execution (FleetOptions::useCache).
 */
FleetSummary runFleet(const FleetPlan &plan, FleetOptions options = {},
                      const std::vector<FleetSink *> &sinks = {});

} // namespace sonic::fleet

#endif // SONIC_FLEET_FLEET_HH
