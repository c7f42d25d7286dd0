#include "telemetry/aggregate.hh"

#include <istream>

namespace sonic::telemetry
{

bool
aggregate(std::istream &in, fleet::FleetSummary *out,
          std::string *error, SoniczInfo *info, const RowRange *range)
{
    fleet::FleetSummary summary;

    const auto fold = [&](const FleetFoldRow &row) {
        if (range != nullptr
            && (row.device < range->lo || row.device > range->hi))
            return;
        summary.total.accumulate(row.counters);
        summary.byEnvironment[row.envLabel].accumulate(row.counters);
        summary.byImpl[row.impl].accumulate(row.counters);
        summary.byNet[row.net].accumulate(row.counters);
        summary.byPipeline[row.pipeline].accumulate(row.counters);
    };

    if (!readFleetBlocks(in, fold, info, error, range))
        return false;
    summary.devices = static_cast<u32>(summary.total.devices);
    *out = summary;
    return true;
}

} // namespace sonic::telemetry
