#include "plan/estimator.hh"

#include <istream>

#include "env/environment.hh"
#include "kernels/runner.hh"
#include "telemetry/sonicz.hh"

namespace sonic::plan
{

namespace
{

void
fold(CellAccum *cell, Objective objective, const fleet::DeviceCounters &c)
{
    ++cell->devices;
    cell->inferences += c.inferencesCompleted;
    cell->delivered += c.resultsDelivered;
    if (c.diedNonTerminating)
        ++cell->dnfDevices;
    cell->objectiveSum += objectiveValue(objective, c);
}

} // namespace

bool
PlanModel::ingestSonicz(std::istream &in, std::string *error)
{
    const auto on_row = [&](const telemetry::FleetFoldRow &row) {
        auto &cell = cells_[fleet::FleetPlan::coordinateKey(
                                row.envLabel, row.net, row.pipeline)]
                           [row.impl];
        fold(&cell.telemetry, objective_, row.counters);
        ++rowsIngested_;
    };
    return telemetry::readFleetBlocks(in, on_row, nullptr, error);
}

void
PlanModel::addProbe(const fleet::DeviceTelemetry &t)
{
    const auto &a = t.assignment;
    auto &cell = cells_[fleet::FleetPlan::coordinateKey(
                            a.environment.label(), a.net, a.pipeline)]
                       [std::string(kernels::implName(a.impl))];
    fold(&cell.probe, objective_, t);
    ++probeDevices_;
}

const CellEstimate *
PlanModel::cell(const std::string &coordinateKey,
                const std::string &impl) const
{
    const auto coord_it = cells_.find(coordinateKey);
    if (coord_it == cells_.end())
        return nullptr;
    const auto impl_it = coord_it->second.find(impl);
    if (impl_it == coord_it->second.end())
        return nullptr;
    return &impl_it->second;
}

} // namespace sonic::plan
