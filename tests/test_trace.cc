/**
 * @file
 * Tests for the event-tracing subsystem: .sonictrace round trips and
 * corruption rejection (the container inherits the .sonicz checksum
 * machinery, so every byte flip and every truncation must be caught),
 * fleet trace sampling (bit-identical bytes across worker thread
 * counts; recorded energy matching the telemetry bit-for-bit; the
 * untraced fleet byte-identical to a never-traced one), the Chrome /
 * flame / summary renderers, and the oracle's divergence trace dumps.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "fleet/fleet.hh"
#include "trace/trace.hh"
#include "util/json_parse.hh"
#include "verify/oracle.hh"
#include "verify/workload.hh"

namespace sonic::trace
{
namespace
{

/** A fast mixed fleet over the tiny golden workload (the test_fleet
 * shape) with 1-in-4 devices sampled for tracing. */
fleet::FleetPlan
tracedFleet(u32 devices, u32 trace_every = 4)
{
    fleet::FleetPlan plan;
    plan.devices = devices;
    plan.nets = {"golden"};
    plan.impls = {kernels::Impl::Sonic, kernels::Impl::Tile8};
    plan.environments = {{"rf-paper", 100e-6},
                         {"trace-rf-office", 50e-6},
                         {"duty-cycle", 100e-6},
                         {"continuous", 0.0}};
    plan.maxInferencesPerDevice = 2;
    plan.baseSeed = 0xf1ee7;
    plan.traceEvery = trace_every;
    return plan;
}

/** A small synthetic trace exercising every row field. */
std::string
packSyntheticTrace()
{
    TraceRecorder recorder(7);
    for (u32 i = 0; i < 120; ++i) {
        const auto kind = static_cast<TraceEventKind>(
            i % static_cast<u32>(TraceEventKind::NumKinds));
        std::string label;
        if (kind == TraceEventKind::LayerEnter)
            label = i % 2 ? "conv1" : "fc";
        recorder.record(kind, i, 0.25 * i, 1e-3 * i,
                        kind == TraceEventKind::Recharge ? 0.125 : 0.0,
                        label);
    }
    std::ostringstream os;
    writeTrace(os, {&recorder});
    return os.str();
}

std::string
collectorBytes(const TraceCollector &collector)
{
    std::ostringstream os;
    collector.write(os);
    return os.str();
}

u64
countKind(const std::vector<telemetry::TraceRow> &rows, u64 device,
          TraceEventKind kind)
{
    u64 n = 0;
    for (const auto &row : rows)
        if (row.device == device
            && row.kind == static_cast<u32>(kind))
            ++n;
    return n;
}

// --- Container round trip and corruption ----------------------------

TEST(TraceContainer, SyntheticRowsRoundTripBitExactly)
{
    TraceRecorder recorder(3);
    recorder.record(TraceEventKind::RoundBegin, 0, 1.5, 0.25, 0.0);
    recorder.record(TraceEventKind::LayerEnter, 2, 1.625, 0.3125,
                    0.0, "conv1");
    recorder.record(TraceEventKind::Recharge, 0, 9.75, 0.5, 8.125);
    std::ostringstream os;
    writeTrace(os, {&recorder});

    std::istringstream in(os.str());
    std::vector<telemetry::TraceRow> rows;
    telemetry::SoniczInfo info;
    std::string error;
    ASSERT_TRUE(readTrace(in, &rows, &info, &error)) << error;
    EXPECT_EQ(info.kind, telemetry::SchemaKind::Trace);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].device, 3u);
    EXPECT_EQ(rows[0].kind,
              static_cast<u32>(TraceEventKind::RoundBegin));
    EXPECT_EQ(rows[0].t, 1.5);
    EXPECT_EQ(rows[0].energyJ, 0.25);
    EXPECT_EQ(rows[1].arg, 2u);
    EXPECT_EQ(rows[1].label, "conv1");
    EXPECT_EQ(rows[2].value, 8.125);
}

TEST(TraceContainer, EveryTruncationIsRejected)
{
    const std::string packed = packSyntheticTrace();
    for (u64 cut = 0; cut < packed.size(); ++cut) {
        std::istringstream in(packed.substr(0, cut));
        std::string error;
        EXPECT_FALSE(readTrace(in, nullptr, nullptr, &error))
            << "prefix of " << cut << " bytes was accepted";
        EXPECT_FALSE(error.empty());
    }
}

TEST(TraceContainer, EverySingleByteCorruptionIsRejected)
{
    const std::string packed = packSyntheticTrace();
    for (u64 i = 0; i < packed.size(); ++i) {
        std::string mutated = packed;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
        std::istringstream in(mutated);
        std::string error;
        EXPECT_FALSE(readTrace(in, nullptr, nullptr, &error))
            << "flip at byte " << i << " was accepted";
    }

    // Trailing garbage shifts the footer off its position.
    std::istringstream in(packed + "x");
    std::string error;
    EXPECT_FALSE(readTrace(in, nullptr, nullptr, &error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceContainer, NonFiniteCellsAreRejectedButAnUnlimitedGrant)
{
    // A lease from an unlimited supply grants +inf joules, so the
    // tracer stores +inf in `value`; every other non-finite cell is
    // corruption and names its column.
    constexpr f64 inf = std::numeric_limits<f64>::infinity();
    const auto read = [](const TraceRecorder &recorder,
                         std::string *error) {
        std::ostringstream os;
        writeTrace(os, {&recorder});
        std::istringstream in(os.str());
        return telemetry::readTraceRows(in, nullptr, nullptr, error);
    };
    TraceRecorder grant(1);
    grant.record(TraceEventKind::LeaseGrant, 7, 0.5, 0.0, inf);
    std::string error;
    EXPECT_TRUE(read(grant, &error)) << error;

    struct Bad
    {
        f64 t, energyJ, value;
        const char *column;
    };
    for (const Bad &bad : {Bad{std::nan(""), 0.0, 0.0, "t"},
                           Bad{1.0, inf, 0.0, "energyJ"},
                           Bad{1.0, 0.0, -inf, "value"},
                           Bad{1.0, 0.0, std::nan(""), "value"}}) {
        TraceRecorder recorder(2);
        recorder.record(TraceEventKind::RoundBegin, 0, 0.25, 0.0, 0.0);
        recorder.record(TraceEventKind::LeaseSettle, 0, bad.t,
                        bad.energyJ, bad.value);
        error.clear();
        EXPECT_FALSE(read(recorder, &error)) << bad.column;
        EXPECT_NE(error.find(std::string("column '") + bad.column + "'"),
                  std::string::npos)
            << error;
    }
}

// --- Fleet sampling -------------------------------------------------

TEST(FleetTrace, SampledBytesAreBitIdenticalAcrossThreads)
{
    const auto plan = tracedFleet(16);
    std::string reference;
    for (const u32 threads : {1u, 2u, 8u}) {
        TraceCollector collector;
        fleet::FleetOptions options{threads};
        options.traces = &collector;
        (void)fleet::runFleet(plan, options);
        EXPECT_EQ(collector.devices(), 4u); // 0, 4, 8, 12
        const std::string bytes = collectorBytes(collector);
        if (reference.empty())
            reference = bytes;
        else
            EXPECT_EQ(bytes, reference) << threads << " threads";
    }
    EXPECT_FALSE(reference.empty());
}

TEST(FleetTrace, RoundEnergySumsMatchTelemetryBitForBit)
{
    const auto plan = tracedFleet(16);
    TraceCollector collector;
    fleet::FleetOptions options{2};
    options.traces = &collector;
    (void)fleet::runFleet(plan, options);

    std::istringstream in(collectorBytes(collector));
    std::vector<telemetry::TraceRow> rows;
    std::string error;
    ASSERT_TRUE(readTrace(in, &rows, nullptr, &error)) << error;
    ASSERT_FALSE(rows.empty());

    u32 devices_checked = 0;
    for (const TraceRecorder *recorder : collector.ordered()) {
        const u64 d = recorder->deviceIndex();
        const auto telemetry = fleet::simulateDevice(
            plan, static_cast<u32>(d));

        // Summing the per-round energy values in round order is the
        // exact accumulation the fleet's telemetry performs, so the
        // doubles must match bit for bit, not approximately.
        f64 energy = 0.0;
        for (const auto &row : rows)
            if (row.device == d
                && row.kind
                       == static_cast<u32>(TraceEventKind::RoundEnd))
                energy += row.value;
        EXPECT_EQ(energy, telemetry.energyJ) << "device " << d;

        EXPECT_EQ(countKind(rows, d, TraceEventKind::Reboot),
                  telemetry.reboots)
            << "device " << d;
        EXPECT_EQ(countKind(rows, d, TraceEventKind::PowerFailure),
                  telemetry.reboots)
            << "device " << d;
        ++devices_checked;
    }
    EXPECT_EQ(devices_checked, 4u);

    // Recorded clocks are monotone per device: setBase lifts each
    // fresh per-round device onto the lifetime timeline, and the
    // fleet-recorded recharge rows stamp after their dead time accrues.
    f64 last_t = -1.0;
    for (const auto &row : rows) {
        if (row.device != collector.ordered().front()->deviceIndex())
            continue;
        EXPECT_GE(row.t, last_t);
        last_t = row.t;
    }
}

TEST(FleetTrace, TracingLeavesSummaryAndCacheDiagnosticsUntouched)
{
    const auto plan = tracedFleet(16);
    const auto untraced = fleet::runFleet(plan, fleet::FleetOptions{2});

    TraceCollector collector;
    fleet::FleetOptions options{2};
    options.traces = &collector;
    const auto traced = fleet::runFleet(plan, options);

    EXPECT_EQ(traced.toJson(), untraced.toJson());

    // traceEvery without a collector is inert: the plan stays fully
    // memoized and byte-identical.
    const auto inert = fleet::runFleet(plan, fleet::FleetOptions{2});
    EXPECT_EQ(inert.toJson(), untraced.toJson());
}

// --- Renderers ------------------------------------------------------

TEST(TraceExport, ChromeFlameAndSummaryRenderTheFleetTrace)
{
    const auto plan = tracedFleet(8);
    TraceCollector collector;
    fleet::FleetOptions options{1};
    options.traces = &collector;
    (void)fleet::runFleet(plan, options);

    std::istringstream in(collectorBytes(collector));
    std::vector<telemetry::TraceRow> rows;
    std::string error;
    ASSERT_TRUE(readTrace(in, &rows, nullptr, &error)) << error;

    std::ostringstream chrome;
    exportChromeTrace(rows, chrome);
    const std::string json = chrome.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"round\""), std::string::npos);
    EXPECT_NE(json.find("\"reboot\""), std::string::npos);
    EXPECT_NE(json.find("\"lease-grant\""), std::string::npos);
    EXPECT_EQ(json.back(), '\n');
    // The export is one JSON object with an event per element.
    jsonp::JsonValue root;
    std::string parse_error;
    ASSERT_TRUE(jsonp::parseJson(json, &root, &parse_error))
        << parse_error;
    const auto *events = root.object()->at("traceEvents").array();
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->size(), rows.size() / 2);

    std::ostringstream flame;
    writeFlameRollup(rows, flame);
    EXPECT_NE(flame.str().find("total"), std::string::npos);
    EXPECT_NE(flame.str().find("100%"), std::string::npos);

    std::ostringstream summary;
    writeTraceSummary(rows, summary);
    EXPECT_NE(summary.str().find("devices:"), std::string::npos);
    EXPECT_NE(summary.str().find("reboots:"), std::string::npos);
}

TEST(TraceExport, ChromeWritesNullForStampsBeyondF64Microseconds)
{
    // The cells are finite seconds, so the trace itself round-trips;
    // only their microsecond values overflow. Such a stamp or duration
    // is null, never "inf".
    TraceRecorder recorder(5);
    recorder.record(TraceEventKind::RoundBegin, 0, 2e302, 0.0, 0.0);
    recorder.record(TraceEventKind::Recharge, 0, 3e302, 0.0, 1e303);
    recorder.record(TraceEventKind::Recharge, 0, 3e302, 0.0, 1e302);
    recorder.record(TraceEventKind::RoundEnd, 0, 3e302, 0.0, 0.0);
    std::ostringstream os;
    writeTrace(os, {&recorder});
    std::istringstream in(os.str());
    std::vector<telemetry::TraceRow> rows;
    std::string error;
    ASSERT_TRUE(readTrace(in, &rows, nullptr, &error)) << error;
    ASSERT_EQ(rows.size(), 4u);

    std::ostringstream chrome;
    exportChromeTrace(rows, chrome);
    const std::string json = chrome.str();
    EXPECT_EQ(json.find("inf"), std::string::npos) << json;
    jsonp::JsonValue root;
    ASSERT_TRUE(jsonp::parseJson(json, &root, &error)) << error;
    std::vector<const jsonp::JsonObject *> timed;
    for (const auto &event : *root.object()->at("traceEvents").array())
        if (event.object()->count("ts") != 0)
            timed.push_back(event.object());
    ASSERT_EQ(timed.size(), 4u);
    for (const auto *event : timed)
        EXPECT_EQ(event->at("ts").number(), nullptr);
    // 1e309 us overflows; 1e308 us is finite and printed in full.
    EXPECT_EQ(timed[1]->at("dur").number(), nullptr);
    ASSERT_NE(timed[2]->at("dur").number(), nullptr);
    EXPECT_DOUBLE_EQ(*timed[2]->at("dur").number(), 1e308);
}

// --- Oracle divergence dumps ----------------------------------------

TEST(OracleTrace, DumpScheduleTraceWritesAReadableTrace)
{
    // The bare inference, then the same inference inside a wildlife
    // round (sense, infer, transmit).
    verify::LocalWorkload inference(verify::goldenNet(),
                                    verify::goldenInput(),
                                    kernels::Impl::Sonic);
    verify::LocalWorkload round = inference;
    round.round = pipeline::get("wildlife");

    const verify::Schedule schedule = {50, 500, 5'000};
    const std::string path =
        testing::TempDir() + "oracle_dump.sonictrace";
    for (const auto *workload : {&inference, &round}) {
        SCOPED_TRACE(workload->round ? "wildlife round" : "inference");
        std::string error;
        ASSERT_TRUE(
            verify::dumpScheduleTrace(*workload, schedule, path, &error))
            << error;

        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.is_open());
        std::vector<telemetry::TraceRow> rows;
        telemetry::SoniczInfo info;
        ASSERT_TRUE(readTrace(in, &rows, &info, &error)) << error;
        EXPECT_EQ(info.kind, telemetry::SchemaKind::Trace);
        ASSERT_FALSE(rows.empty());

        // The schedule's failures show up as reboot events, and the
        // inference spans stay balanced (the Infer guard closes its
        // span even when a PowerFailure unwinds out of the kernel).
        EXPECT_GE(countKind(rows, 0, TraceEventKind::Reboot), 1u);
        EXPECT_EQ(countKind(rows, 0, TraceEventKind::InferBegin),
                  countKind(rows, 0, TraceEventKind::InferEnd));
        EXPECT_GE(countKind(rows, 0, TraceEventKind::LayerEnter), 1u);
        // A round also records its delivery boundaries.
        if (workload->round) {
            EXPECT_GE(countKind(rows, 0, TraceEventKind::TxBoundary),
                      1u);
        }
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace sonic::trace
