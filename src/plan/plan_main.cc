/**
 * @file
 * sonic_plan — the deployment planner CLI.
 *
 * Closes the telemetry→decision loop: given a scenario (device mix,
 * environments, candidate models/kernels, objective), decide which
 * kernel every fleet coordinate should run and prove the decision with
 * a confirming fleet run against every uniform single-kernel baseline:
 *
 *     sonic_fleet --scenario=mixed-1k --sonicz=mixed.sonicz
 *     sonic_plan --scenario=mixed-1k --ingest=mixed.sonicz \
 *                --plan=plan.json --confirm
 *     sonic_fleet --scenario=mixed-1k --from-plan=plan.json
 *
 * Three modes share one model of the fleet:
 *   - ingest:  stream .sonicz fleet telemetry into per-coordinate
 *              estimates (no row materialization);
 *   - probe:   fill under-covered cells with paired uniform probe
 *              fleets over the scenario's own device deals;
 *   - decide:  per-coordinate argmax (greedy == global optimum, see
 *              src/plan/planner.hh), cross-checked exhaustively on
 *              small grids, then optionally confirmed by running the
 *              planned fleet and every baseline.
 *
 * --scenario, --list-scenarios and the axis flags are sonic_fleet's
 * (fleet/fleet_flags.hh); --from-plan confirms an existing artifact,
 * whose own scenario makes them moot. --ingest may repeat.
 *
 * Exits 1 when the confirming run fails to tie-or-beat some baseline,
 * so CI can gate on the exit code alone. Exits 2 on usage errors.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fleet/fleet_flags.hh"
#include "plan/planner.hh"
#include "util/cli.hh"
#include "util/table.hh"

namespace
{

using namespace sonic;

/** Natural (human) display of an objective's mean per-device value:
 * energy objectives are internally negated so higher is always better;
 * people want to read J/inference. */
f64
displayValue(plan::Objective objective, f64 value)
{
    return objective == plan::Objective::EnergyPerInference ? -value
                                                            : value;
}

const char *
displayColumn(plan::Objective objective)
{
    switch (objective) {
    case plan::Objective::DeliveredPerDay:
        return "delivered/dev-day";
    case plan::Objective::InferencesPerDay:
        return "inf/dev-day";
    case plan::Objective::EnergyPerInference:
        return "J/inf";
    }
    return "objective";
}

} // namespace

int
main(int argc, char **argv)
{
    fleet::FleetFlags fleet_flags;
    plan::PlannerOptions options;
    std::string objective, plan_path, confirm_summary_path;
    std::string from_plan_path;
    std::vector<std::string> ingest_paths;
    bool confirm = false, no_probe = false, no_cache = false;
    bool list_objectives = false;

    std::vector<std::string> objectives;
    for (const auto o :
         {plan::Objective::DeliveredPerDay, plan::Objective::InferencesPerDay,
          plan::Objective::EnergyPerInference})
        objectives.push_back(plan::objectiveName(o));

    cli::Flags flags("sonic_plan");
    fleet_flags.declare(flags);
    flags.oneOf("--objective", &objective, objectives)
        .repeatable("--ingest", &ingest_paths, "FILE.sonicz")
        .add("--no-probe", &no_probe)
        .add("--probe-devices", &options.probeDevices, "N (0=full fleet)")
        .add("--min-cell-devices", &options.minCellDevices, "N")
        .add("--plan", &plan_path, "OUT.json")
        .add("--confirm", &confirm)
        .add("--confirm-summary", &confirm_summary_path, "PATH")
        .add("--from-plan", &from_plan_path, "PLAN.json")
        .add("--threads", &options.fleet.threads, "T")
        .add("--no-cache", &no_cache)
        .add("--list-objectives", &list_objectives);
    if (!flags.parse(argc, argv))
        return 2;

    fleet::FleetPlan fleet_plan = fleet_flags.scenarioPlan();
    fleet_flags.applyAxes(&fleet_plan);
    if (!objective.empty())
        plan::objectiveFromName(objective, &options.objective);
    options.probe = !no_probe;
    options.fleet.useCache = !no_cache;

    if (fleet_flags.listScenarios)
        fleet::FleetFlags::printScenarios(std::cout);
    if (list_objectives)
        for (const auto &name : objectives)
            std::cout << name << "\n";
    if (fleet_flags.listScenarios || list_objectives)
        return 0;

    plan::Plan plan;
    if (!from_plan_path.empty()) {
        // Confirming an existing artifact: the plan carries its own
        // scenario (axes, seed, horizon), so axis flags do not apply.
        std::string error;
        if (!plan::Plan::fromFile(from_plan_path, &plan, &error)) {
            std::cerr << error << "\n";
            return 2;
        }
        options.objective = plan.objective;
        confirm = true;
        std::cout << "plan: " << from_plan_path << " ("
                  << plan.choices.size() << " coordinates, objective "
                  << plan::objectiveName(plan.objective) << ")\n";
    } else {
        plan::Scenario scenario{fleet_flags.scenario, fleet_plan};
        plan::PlanModel model(options.objective);

        for (const auto &path : ingest_paths) {
            std::ifstream in(path, std::ios::binary);
            if (!in) {
                std::cerr << "cannot read " << path << "\n";
                return 2;
            }
            std::string error;
            if (!model.ingestSonicz(in, &error)) {
                std::cerr << "cannot ingest " << path << ": "
                          << error << "\n";
                return 2;
            }
        }
        if (model.rowsIngested() > 0)
            std::cout << "ingested " << model.rowsIngested()
                      << " telemetry rows from "
                      << ingest_paths.size() << " file(s)\n";

        plan::DecideInfo info;
        std::string error;
        if (!plan::decide(scenario, &model, options, &plan, &info,
                          &error)) {
            std::cerr << error << "\n";
            return 1;
        }
        if (info.probeFleets > 0)
            std::cout << "probed " << info.probeFleets
                      << " kernel(s), " << info.probeDevices
                      << " probe devices total\n";
        if (info.exhaustiveChecked)
            std::cout << "decision cross-checked against exhaustive "
                         "enumeration\n";

        Table table({"environment", "net", "pipeline", "kernel",
                     displayColumn(plan.objective), "devices",
                     "source"});
        for (const auto &choice : plan.choices) {
            table.row()
                .cell(choice.envLabel)
                .cell(choice.net)
                .cell(choice.pipeline)
                .cell(choice.impl)
                .cell(displayValue(plan.objective, choice.score), 4)
                .cell(choice.devicesObserved)
                .cell(choice.probed ? "probe" : "telemetry");
        }
        table.print(std::cout);

        if (!plan_path.empty()) {
            std::ofstream out;
            if (!cli::openOutput(out, plan_path))
                return 2;
            out << plan.toJson();
            if (!cli::finishOutput(out, plan_path))
                return 1;
            std::cout << "plan written to " << plan_path << "\n";
        }
    }

    if (!confirm)
        return 0;

    const auto result = plan::confirm(plan, options.fleet);
    Table table({"assignment", displayColumn(plan.objective),
                 "verdict"});
    table.row()
        .cell("planned")
        .cell(displayValue(plan.objective, result.planObjective), 4)
        .cell("-");
    for (const auto &baseline : result.baselines) {
        const bool beaten =
            result.planObjective >= baseline.objective;
        table.row()
            .cell("all-" + baseline.impl)
            .cell(displayValue(plan.objective, baseline.objective), 4)
            .cell(beaten ? "plan >=" : "plan LOSES");
    }
    table.print(std::cout);

    if (!confirm_summary_path.empty()) {
        std::ofstream out;
        if (!cli::openOutput(out, confirm_summary_path))
            return 2;
        out << result.planSummaryJson;
        if (!cli::finishOutput(out, confirm_summary_path))
            return 1;
        std::cout << "confirming fleet summary written to "
                  << confirm_summary_path << "\n";
    }

    if (!result.planWins) {
        std::cerr << "plan loses to a uniform baseline — the "
                     "estimates that produced it disagree with the "
                     "confirming run (probe more devices, or ingest "
                     "fresher telemetry)\n";
        return 1;
    }
    std::cout << "plan ties-or-beats every uniform single-kernel "
                 "baseline\n";
    return 0;
}
