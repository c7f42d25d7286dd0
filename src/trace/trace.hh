/**
 * @file
 * Intermittence-aware event tracing and energy profiling. A
 * TraceRecorder implements arch::TraceProbe for one sampled device and
 * turns the probe callbacks into timestamped rows — round and stage
 * spans, kernel layer/part attribution switches, lease grant/settle,
 * two-phase task commits, power failures, recharge dead-time, reboots —
 * each stamped with the device clock and the cumulative consumed
 * energy, so per-layer and per-op energy attribution falls out of span
 * deltas without touching the simulation's accounting.
 *
 * Traces persist in `.sonictrace` files: the exact .sonicz chunked
 * container (telemetry/sonicz.hh) with SchemaKind::Trace, inheriting
 * its per-chunk checksums, chained footer digest, block index, and
 * corruption rejection. `sonic_trace` exports Chrome trace-event JSON
 * (load in Perfetto / chrome://tracing; one process per device) and
 * rolls up per-layer energy (--flame).
 *
 * Fleet runs sample 1-in-N devices (FleetPlan::traceEvery); sampled
 * devices bypass the round/lifetime caches so memoization state is
 * untouched and the recorded telemetry stays bit-identical.
 */

#ifndef SONIC_TRACE_TRACE_HH
#define SONIC_TRACE_TRACE_HH

#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arch/probe.hh"
#include "telemetry/sonicz.hh"
#include "util/types.hh"

namespace sonic::trace
{

/**
 * Event kinds stored in TraceRow::kind. Begin/end pairs bracket spans;
 * the rest are instants. Values are the on-disk encoding — append only.
 */
enum class TraceEventKind : u32
{
    RoundBegin = 0,    ///< arg = round index
    RoundEnd = 1,      ///< value = joules consumed by the round
    SenseBegin = 2,    //
    SenseEnd = 3,      ///< value = cumulative device joules at end
    InferBegin = 4,    ///< arg = kernels::Impl
    InferEnd = 5,      ///< value = cumulative device joules at end
    TransmitBegin = 6, //
    TransmitEnd = 7,   ///< value = cumulative device joules at end
    TaskCommit = 8,    ///< arg = next task id
    TxBoundary = 9,    ///< arg = pipeline::TxBoundary
    AckDelivered = 10, ///< arg = delivery attempt index
    LeaseGrant = 11,   ///< value = granted joules
    LeaseSettle = 12,  ///< value = joules actually drawn
    PowerFailure = 13, //
    Recharge = 14,     ///< value = dead seconds; span is [t-value, t]
    Reboot = 15,       ///< arg = reboot index (per round)
    LayerEnter = 16,   ///< arg = layer id, label = layer name
    PartSwitch = 17,   ///< arg = arch::Part, label = "kernel"/"control"
    NumKinds
};

/**
 * Probe implementation recording one device's events as TraceRows.
 * The fleet constructs a fresh Device per round, so timestamps and
 * energy restart from zero each round; setBase() supplies the device's
 * accrued lifetime offsets so the recorded clocks are monotonic across
 * the whole deployment. Not thread-safe: exactly one worker simulates
 * a device at a time.
 */
class TraceRecorder final : public arch::TraceProbe
{
  public:
    explicit TraceRecorder(u64 device_index) : device_(device_index) {}

    u64 deviceIndex() const { return device_; }

    /** Lifetime offsets (accrued seconds / joules before the round the
     * probe is about to observe). Call before each round. */
    void
    setBase(f64 base_seconds, f64 base_joules)
    {
        baseT_ = base_seconds;
        baseE_ = base_joules;
    }

    /** Record an event that happens outside any Device — the fleet
     * loop's inter-round recharge and the final horizon-clipped sleep.
     * `t`/`energyJ` are absolute lifetime stamps. */
    void record(TraceEventKind kind, u32 arg, f64 t, f64 energyJ,
                f64 value, std::string label = {});

    const std::vector<telemetry::TraceRow> &
    rows() const
    {
        return rows_;
    }

    /** @name arch::TraceProbe */
    /// @{
    void onLeaseGrant(const arch::Device &dev, f64 grantedNj,
                      u64 grantedOps) override;
    void onLeaseSettle(const arch::Device &dev, f64 usedNj) override;
    void onPowerFailure(const arch::Device &dev) override;
    void onRecharge(const arch::Device &dev, f64 deadSeconds) override;
    void onReboot(const arch::Device &dev, u64 rebootIndex) override;
    void onLayer(const arch::Device &dev, u16 layer) override;
    void onPart(const arch::Device &dev, arch::Part part) override;
    void onSpanBegin(const arch::Device &dev, arch::ProbeSpan span,
                     u32 arg) override;
    void onSpanEnd(const arch::Device &dev, arch::ProbeSpan span,
                   u32 arg, f64 value) override;
    void onInstant(const arch::Device &dev, arch::ProbeInstant instant,
                   u32 arg) override;
    /// @}

  private:
    /** Stamp an event with the device's lifetime clock/energy. */
    void push(const arch::Device &dev, TraceEventKind kind, u32 arg,
              f64 value, std::string label = {});

    u64 device_;
    f64 baseT_ = 0.0;
    f64 baseE_ = 0.0;
    std::vector<telemetry::TraceRow> rows_;
};

/**
 * Owns the recorders of one fleet run. Workers fetch their device's
 * recorder under a mutex once per device; the recorder itself is then
 * used lock-free by that worker. write() emits devices in index order,
 * so the bytes are identical no matter how many fleet threads ran.
 */
class TraceCollector
{
  public:
    /** Create (or fetch) the recorder for one device. Thread-safe. */
    TraceRecorder *recorderFor(u64 device_index);

    /** Recorders in device-index order. */
    std::vector<const TraceRecorder *> ordered() const;

    u64 devices() const;
    u64 events() const;

    /** Write all recorded events as a .sonictrace stream. */
    void write(std::ostream &os, u32 encoderThreads = 0) const;

  private:
    mutable std::mutex mutex_;
    std::map<u64, std::unique_ptr<TraceRecorder>> recorders_;
};

/** Serialize recorders (device order) into a .sonictrace stream. */
void writeTrace(std::ostream &os,
                const std::vector<const TraceRecorder *> &recorders,
                u32 encoderThreads = 0);

/** Load every row of a .sonictrace stream (checksum-verified). */
bool readTrace(std::istream &in,
               std::vector<telemetry::TraceRow> *rows,
               telemetry::SoniczInfo *info, std::string *error);

/**
 * Export rows as Chrome trace-event JSON (chrome://tracing, Perfetto).
 * One process per device with three tracks: pipeline spans + commit
 * instants, derived per-layer spans, and power events (lease, failure,
 * recharge, reboot). Rows must be in recorded order per device.
 */
void exportChromeTrace(const std::vector<telemetry::TraceRow> &rows,
                       std::ostream &os);

/**
 * Per-layer energy rollup: walks each device's cumulative energy
 * stamps and attributes every delta to the layer/part active when it
 * was consumed. Text table sorted by energy, shares of the total.
 */
void writeFlameRollup(const std::vector<telemetry::TraceRow> &rows,
                      std::ostream &os);

/** Compact whole-trace statistics (event counts, rounds, reboots,
 * commits, dead time, total energy). */
void writeTraceSummary(const std::vector<telemetry::TraceRow> &rows,
                       std::ostream &os);

} // namespace sonic::trace

#endif // SONIC_TRACE_TRACE_HH
