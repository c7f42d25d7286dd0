#include "trace/trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "arch/device.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace sonic::trace
{

namespace
{

constexpr u32 kNumKinds = static_cast<u32>(TraceEventKind::NumKinds);

constexpr const char *kBoundaryNames[] = {
    "result-commit", "attempt-advance", "ack-commit"};

TraceEventKind
spanBeginKind(arch::ProbeSpan span)
{
    switch (span) {
      case arch::ProbeSpan::Round: return TraceEventKind::RoundBegin;
      case arch::ProbeSpan::Sense: return TraceEventKind::SenseBegin;
      case arch::ProbeSpan::Infer: return TraceEventKind::InferBegin;
      case arch::ProbeSpan::Transmit:
        return TraceEventKind::TransmitBegin;
    }
    return TraceEventKind::RoundBegin; // unreachable
}

TraceEventKind
spanEndKind(arch::ProbeSpan span)
{
    switch (span) {
      case arch::ProbeSpan::Round: return TraceEventKind::RoundEnd;
      case arch::ProbeSpan::Sense: return TraceEventKind::SenseEnd;
      case arch::ProbeSpan::Infer: return TraceEventKind::InferEnd;
      case arch::ProbeSpan::Transmit:
        return TraceEventKind::TransmitEnd;
    }
    return TraceEventKind::RoundEnd; // unreachable
}

TraceEventKind
instantKind(arch::ProbeInstant instant)
{
    switch (instant) {
      case arch::ProbeInstant::TaskCommit:
        return TraceEventKind::TaskCommit;
      case arch::ProbeInstant::TxBoundary:
        return TraceEventKind::TxBoundary;
      case arch::ProbeInstant::AckDelivered:
        return TraceEventKind::AckDelivered;
    }
    return TraceEventKind::TaskCommit; // unreachable
}

} // namespace

// --- TraceRecorder ---------------------------------------------------

void
TraceRecorder::record(TraceEventKind kind, u32 arg, f64 t, f64 energyJ,
                      f64 value, std::string label)
{
    rows_.push_back({device_, static_cast<u32>(kind), arg, t, energyJ,
                     value, std::move(label)});
}

void
TraceRecorder::push(const arch::Device &dev, TraceEventKind kind,
                    u32 arg, f64 value, std::string label)
{
    record(kind, arg, baseT_ + dev.totalSeconds(),
           baseE_ + dev.consumedJoules(), value, std::move(label));
}

void
TraceRecorder::onLeaseGrant(const arch::Device &dev, f64 grantedNj,
                            u64 grantedOps)
{
    const u32 ops = grantedOps > ~u32{0}
        ? ~u32{0}
        : static_cast<u32>(grantedOps);
    push(dev, TraceEventKind::LeaseGrant, ops, grantedNj * 1e-9);
}

void
TraceRecorder::onLeaseSettle(const arch::Device &dev, f64 usedNj)
{
    push(dev, TraceEventKind::LeaseSettle, 0, usedNj * 1e-9);
}

void
TraceRecorder::onPowerFailure(const arch::Device &dev)
{
    push(dev, TraceEventKind::PowerFailure, 0, 0.0);
}

void
TraceRecorder::onRecharge(const arch::Device &dev, f64 deadSeconds)
{
    // deadSeconds is already booked into the device clock, so the
    // stamped time is the end of the dead window: span [t-value, t].
    push(dev, TraceEventKind::Recharge, 0, deadSeconds);
}

void
TraceRecorder::onReboot(const arch::Device &dev, u64 rebootIndex)
{
    const u32 idx = rebootIndex > ~u32{0}
        ? ~u32{0}
        : static_cast<u32>(rebootIndex);
    push(dev, TraceEventKind::Reboot, idx, 0.0);
}

void
TraceRecorder::onLayer(const arch::Device &dev, u16 layer)
{
    // The probe fires before the switch takes effect, so the stamp is
    // the end of the previous layer's window and the label names the
    // layer being entered.
    push(dev, TraceEventKind::LayerEnter, layer, 0.0,
         layer < dev.stats().numLayers() ? dev.stats().layerName(layer)
                                         : std::string("?"));
}

void
TraceRecorder::onPart(const arch::Device &dev, arch::Part part)
{
    push(dev, TraceEventKind::PartSwitch, static_cast<u32>(part), 0.0,
         part == arch::Part::Kernel ? "kernel" : "control");
}

void
TraceRecorder::onSpanBegin(const arch::Device &dev,
                           arch::ProbeSpan span, u32 arg)
{
    push(dev, spanBeginKind(span), arg, 0.0);
}

void
TraceRecorder::onSpanEnd(const arch::Device &dev, arch::ProbeSpan span,
                         u32 arg, f64 value)
{
    push(dev, spanEndKind(span), arg, value);
}

void
TraceRecorder::onInstant(const arch::Device &dev,
                         arch::ProbeInstant instant, u32 arg)
{
    push(dev, instantKind(instant), arg, 0.0);
}

// --- TraceCollector --------------------------------------------------

TraceRecorder *
TraceCollector::recorderFor(u64 device_index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = recorders_[device_index];
    if (!slot)
        slot = std::make_unique<TraceRecorder>(device_index);
    return slot.get();
}

std::vector<const TraceRecorder *>
TraceCollector::ordered() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const TraceRecorder *> out;
    out.reserve(recorders_.size());
    for (const auto &[index, rec] : recorders_)
        out.push_back(rec.get());
    return out; // std::map iterates in device-index order
}

u64
TraceCollector::devices() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recorders_.size();
}

u64
TraceCollector::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    u64 n = 0;
    for (const auto &[index, rec] : recorders_)
        n += rec->rows().size();
    return n;
}

void
TraceCollector::write(std::ostream &os, u32 encoderThreads) const
{
    writeTrace(os, ordered(), encoderThreads);
}

// --- Container I/O ---------------------------------------------------

void
writeTrace(std::ostream &os,
           const std::vector<const TraceRecorder *> &recorders,
           u32 encoderThreads)
{
    telemetry::SoniczWriter writer(os, telemetry::SchemaKind::Trace, {},
                                   encoderThreads);
    for (const TraceRecorder *rec : recorders)
        for (const auto &row : rec->rows())
            telemetry::appendTraceRow(writer, row);
    writer.finish();
}

bool
readTrace(std::istream &in, std::vector<telemetry::TraceRow> *rows,
          telemetry::SoniczInfo *info, std::string *error)
{
    return telemetry::readTraceRows(
        in,
        [rows](const telemetry::TraceRow &row) {
            if (rows != nullptr)
                rows->push_back(row);
        },
        info, error);
}

// --- Chrome trace-event export ---------------------------------------

namespace
{

/** Tracks within one device's process. */
enum : u32
{
    kTidPipeline = 0,
    kTidLayers = 1,
    kTidPower = 2
};

/** Microsecond timestamp with nanosecond resolution. A stamp whose
 * microsecond value is not finite is null, as json::Writer writes
 * every non-finite f64. */
std::string
micros(f64 seconds)
{
    const f64 us = seconds * 1e6;
    if (!std::isfinite(us))
        return "null";
    // %.3f of the largest finite f64: a sign, 309 digits and ".000".
    char buf[320];
    std::snprintf(buf, sizeof(buf), "%.3f", us);
    return buf;
}

class ChromeWriter
{
  public:
    explicit ChromeWriter(std::ostream &os) : w_(os, /*compact=*/true)
    {
        w_.beginObject().field("displayTimeUnit", "ms")
            .key("traceEvents").beginArray();
    }

    void
    meta(u64 pid, i64 tid, const char *what, const std::string &name)
    {
        w_.beginObject().field("ph", "M").field("pid", pid);
        if (tid >= 0)
            w_.field("tid", tid);
        w_.field("name", what).key("args").beginObject()
            .field("name", name).end().end();
    }

    void
    span(char ph, u64 pid, u32 tid, const char *name, f64 t,
         f64 energyJ, u32 arg)
    {
        event({&ph, 1}, pid, tid, name, t).key("args").beginObject()
            .field("energyJ", energyJ).field("arg", arg).end().end();
    }

    void
    complete(u64 pid, u32 tid, const std::string &name, f64 t, f64 dur,
             f64 energyJ)
    {
        event("X", pid, tid, name, t).key("dur").number(micros(dur))
            .key("args").beginObject().field("energyJ", energyJ)
            .end().end();
    }

    void
    instant(u64 pid, u32 tid, const char *name, f64 t, u32 arg,
            const char *argName)
    {
        event("i", pid, tid, name, t).key("args").beginObject()
            .field(argName, arg).end().end();
    }

    void finish() { w_.end().end(); }

  private:
    /** Opens a timed event: its phase, then the fields all of them
     * share. Instants are thread-scoped. */
    json::Writer &
    event(std::string_view ph, u64 pid, u32 tid, std::string_view name,
          f64 t)
    {
        w_.beginObject().field("ph", ph);
        if (ph == "i")
            w_.field("s", "t");
        return w_.field("pid", pid).field("tid", tid).field("name", name)
            .key("ts").number(micros(t));
    }

    json::Writer w_;
};

/** One device's open layer window (for derived per-layer spans). */
struct OpenLayer
{
    bool open = false;
    std::string label;
    f64 t = 0.0;
    f64 energyJ = 0.0;
};

} // namespace

void
exportChromeTrace(const std::vector<telemetry::TraceRow> &rows,
                  std::ostream &os)
{
    ChromeWriter w(os);

    // Per-device state: which devices have emitted metadata, and the
    // currently open layer window (layer spans are derived from
    // consecutive layer-enter stamps).
    std::map<u64, OpenLayer> layers;

    const auto close_layer = [&](u64 pid, OpenLayer &ol, f64 t,
                                 f64 energyJ) {
        if (!ol.open)
            return;
        // Suppress zero-width "other" filler windows; everything with
        // either duration or energy keeps its span.
        if (ol.label != "other" || t > ol.t)
            w.complete(pid, kTidLayers, ol.label, ol.t, t - ol.t,
                       energyJ - ol.energyJ);
        ol.open = false;
    };

    for (const auto &row : rows) {
        const u64 pid = row.device;
        if (layers.find(pid) == layers.end()) {
            layers[pid]; // mark seen
            w.meta(pid, -1, "process_name",
                   "device " + std::to_string(pid));
            w.meta(pid, kTidPipeline, "thread_name", "pipeline");
            w.meta(pid, kTidLayers, "thread_name", "layers");
            w.meta(pid, kTidPower, "thread_name", "power");
        }
        OpenLayer &ol = layers[pid];
        const auto kind = static_cast<TraceEventKind>(row.kind);
        switch (kind) {
          case TraceEventKind::RoundBegin:
            w.span('B', pid, kTidPipeline, "round", row.t, row.energyJ,
                   row.arg);
            break;
          case TraceEventKind::RoundEnd:
            close_layer(pid, ol, row.t, row.energyJ);
            w.span('E', pid, kTidPipeline, "round", row.t, row.energyJ,
                   row.arg);
            break;
          case TraceEventKind::SenseBegin:
            w.span('B', pid, kTidPipeline, "sense", row.t, row.energyJ,
                   row.arg);
            break;
          case TraceEventKind::SenseEnd:
            w.span('E', pid, kTidPipeline, "sense", row.t, row.energyJ,
                   row.arg);
            break;
          case TraceEventKind::InferBegin:
            w.span('B', pid, kTidPipeline, "infer", row.t, row.energyJ,
                   row.arg);
            break;
          case TraceEventKind::InferEnd:
            close_layer(pid, ol, row.t, row.energyJ);
            w.span('E', pid, kTidPipeline, "infer", row.t, row.energyJ,
                   row.arg);
            break;
          case TraceEventKind::TransmitBegin:
            w.span('B', pid, kTidPipeline, "transmit", row.t,
                   row.energyJ, row.arg);
            break;
          case TraceEventKind::TransmitEnd:
            w.span('E', pid, kTidPipeline, "transmit", row.t,
                   row.energyJ, row.arg);
            break;
          case TraceEventKind::TaskCommit:
            w.instant(pid, kTidPipeline, "commit", row.t, row.arg,
                      "next");
            break;
          case TraceEventKind::TxBoundary:
            w.instant(pid, kTidPipeline,
                      row.arg < 3 ? kBoundaryNames[row.arg]
                                  : "tx-boundary",
                      row.t, row.arg, "boundary");
            break;
          case TraceEventKind::AckDelivered:
            w.instant(pid, kTidPipeline, "ack", row.t, row.arg,
                      "attempt");
            break;
          case TraceEventKind::LeaseGrant:
            w.instant(pid, kTidPower, "lease-grant", row.t, row.arg,
                      "ops");
            break;
          case TraceEventKind::LeaseSettle:
            w.instant(pid, kTidPower, "lease-settle", row.t, 0,
                      "arg");
            break;
          case TraceEventKind::PowerFailure:
            close_layer(pid, ol, row.t, row.energyJ);
            w.instant(pid, kTidPower, "power-failure", row.t, 0,
                      "arg");
            break;
          case TraceEventKind::Recharge:
            w.complete(pid, kTidPower, "recharge", row.t - row.value,
                       row.value, 0.0);
            break;
          case TraceEventKind::Reboot:
            w.instant(pid, kTidPower, "reboot", row.t, row.arg,
                      "index");
            break;
          case TraceEventKind::LayerEnter:
            close_layer(pid, ol, row.t, row.energyJ);
            ol.open = true;
            ol.label = row.label.empty() ? "?" : row.label;
            ol.t = row.t;
            ol.energyJ = row.energyJ;
            break;
          case TraceEventKind::PartSwitch:
            break; // too fine-grained for the timeline; --flame uses it
          default:
            break;
        }
    }
    for (auto &[pid, ol] : layers)
        close_layer(pid, ol, ol.t, ol.energyJ);
    w.finish();
}

// --- Flame rollup ----------------------------------------------------

void
writeFlameRollup(const std::vector<telemetry::TraceRow> &rows,
                 std::ostream &os)
{
    // Walk each device's cumulative energy stamps in order and charge
    // every delta to the (layer, part) active when it was burned.
    // Devices start attributed to "other"/control, matching the
    // Device's boot attribution.
    struct Cursor
    {
        std::string layer = "other";
        bool kernel = false;
        f64 energyJ = 0.0;
        bool seen = false;
    };
    struct Bucket
    {
        f64 kernelJ = 0.0;
        f64 controlJ = 0.0;
    };
    std::map<u64, Cursor> cursors;
    std::map<std::string, Bucket> buckets;
    f64 total = 0.0;

    for (const auto &row : rows) {
        Cursor &c = cursors[row.device];
        if (c.seen && row.energyJ > c.energyJ) {
            const f64 delta = row.energyJ - c.energyJ;
            Bucket &b = buckets[c.layer];
            (c.kernel ? b.kernelJ : b.controlJ) += delta;
            total += delta;
        }
        c.energyJ = row.energyJ;
        c.seen = true;
        const auto kind = static_cast<TraceEventKind>(row.kind);
        if (kind == TraceEventKind::LayerEnter)
            c.layer = row.label.empty() ? "?" : row.label;
        else if (kind == TraceEventKind::PartSwitch)
            c.kernel = row.arg
                == static_cast<u32>(arch::Part::Kernel);
    }

    std::vector<std::pair<std::string, Bucket>> sorted(buckets.begin(),
                                                       buckets.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  const f64 ta = a.second.kernelJ + a.second.controlJ;
                  const f64 tb = b.second.kernelJ + b.second.controlJ;
                  if (ta != tb)
                      return ta > tb;
                  return a.first < b.first;
              });

    char line[256];
    std::snprintf(line, sizeof(line), "%-20s %14s %14s %14s %7s\n",
                  "layer", "kernel J", "control J", "total J",
                  "share");
    os << line;
    for (const auto &[name, b] : sorted) {
        const f64 layer_total = b.kernelJ + b.controlJ;
        std::snprintf(line, sizeof(line),
                      "%-20s %14.6e %14.6e %14.6e %6.2f%%\n",
                      name.c_str(), b.kernelJ, b.controlJ, layer_total,
                      total > 0.0 ? 100.0 * layer_total / total : 0.0);
        os << line;
    }
    std::snprintf(line, sizeof(line), "%-20s %14s %14s %14.6e %7s\n",
                  "total", "", "", total, "100%");
    os << line;
}

// --- Summary ---------------------------------------------------------

void
writeTraceSummary(const std::vector<telemetry::TraceRow> &rows,
                  std::ostream &os)
{
    std::map<u64, f64> device_energy;
    u64 counts[kNumKinds] = {};
    f64 dead_seconds = 0.0;
    f64 horizon = 0.0;
    for (const auto &row : rows) {
        if (row.kind < kNumKinds)
            ++counts[row.kind];
        if (static_cast<TraceEventKind>(row.kind)
            == TraceEventKind::Recharge)
            dead_seconds += row.value;
        auto &e = device_energy[row.device];
        e = std::max(e, row.energyJ);
        horizon = std::max(horizon, row.t);
    }
    f64 total_energy = 0.0;
    for (const auto &[device, e] : device_energy)
        total_energy += e;

    os << "devices:        " << device_energy.size() << "\n"
       << "events:         " << rows.size() << "\n"
       << "rounds:         "
       << counts[static_cast<u32>(TraceEventKind::RoundBegin)] << "\n"
       << "inferences:     "
       << counts[static_cast<u32>(TraceEventKind::InferBegin)] << "\n"
       << "task commits:   "
       << counts[static_cast<u32>(TraceEventKind::TaskCommit)] << "\n"
       << "power failures: "
       << counts[static_cast<u32>(TraceEventKind::PowerFailure)]
       << "\n"
       << "reboots:        "
       << counts[static_cast<u32>(TraceEventKind::Reboot)] << "\n"
       << "acks:           "
       << counts[static_cast<u32>(TraceEventKind::AckDelivered)]
       << "\n"
       << "dead time:      " << dead_seconds << " s\n"
       << "last stamp:     " << horizon << " s\n"
       << "energy:         " << total_energy << " J\n";
}

} // namespace sonic::trace
