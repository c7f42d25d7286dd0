/**
 * @file
 * Streaming aggregation over fleet .sonicz telemetry: fold a file into
 * a fleet::FleetSummary block-by-block through the columnar reader
 * (readFleetBlocks) — no DeviceTelemetry is materialized per row, so a
 * million-device file aggregates in block-sized memory. This is what
 * sonic_cat --summary prints and what the deployment planner
 * (src/plan) ingests.
 *
 * What the fold can and cannot reproduce of a live runFleet summary:
 * the group stats (total and the byEnvironment/byImpl/byNet/byPipeline
 * breakdowns) are exact — the reader sets each row's counters through
 * the fleet field table, and GroupStats::accumulate(DeviceCounters) is
 * the one mapping into a bucket, shared with the live reduction — but
 * horizonSeconds and baseSeed are plan facts that telemetry rows do
 * not carry, and the latency percentiles come from
 * per-round lists that are not part of the streamed schema. Those
 * fields stay zero.
 */

#ifndef SONIC_TELEMETRY_AGGREGATE_HH
#define SONIC_TELEMETRY_AGGREGATE_HH

#include <iosfwd>
#include <string>

#include "fleet/fleet.hh"
#include "telemetry/sonicz.hh"

namespace sonic::telemetry
{

/**
 * Fold a FLEET .sonicz stream into summary group stats. Rows whose
 * device index falls outside `range` are excluded (the range both
 * prunes index-missed blocks and row-filters the overlapping ones, so
 * the result is exact, not block-granular). Errors on sweep files and
 * on any corruption readFleetBlocks would reject. `info` (optional)
 * reports the usual reader facts, including blocks skipped via the
 * index.
 */
bool aggregate(std::istream &in, fleet::FleetSummary *out,
               std::string *error, SoniczInfo *info = nullptr,
               const RowRange *range = nullptr);

} // namespace sonic::telemetry

#endif // SONIC_TELEMETRY_AGGREGATE_HH
