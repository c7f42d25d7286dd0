/**
 * @file
 * sonic_fleet — the deployment fleet simulator CLI.
 *
 * Runs a fleet of intermittently-powered inference devices across
 * harvested-energy environments and reports per-device and aggregate
 * telemetry:
 *
 *     sonic_fleet --scenario=mixed-1k --summary=fleet_summary.json
 *     sonic_fleet --devices=500 --nets=MNIST,HAR --impls=SONIC,TAILS \
 *                 --envs=solar@1mF,rf-paper@100uF --csv=fleet.csv
 *     sonic_fleet --trace=my-site=site_power.csv --envs=my-site@1mF \
 *                 --devices=50
 *     sonic_fleet --from-plan=plan.json --summary=planned.json
 *
 * --from-plan replays a sonic_plan artifact: the plan carries its own
 * scenario (axes, seed, horizon) plus the per-coordinate kernel
 * assignment, so the planned deployment rebuilds exactly — no
 * matching flags required, and it replaces any --scenario. Axis
 * overrides that keep the coordinate set intact (e.g. --devices,
 * --threads) still apply, wherever they appear on the command line.
 *
 * --list-envs, --list-scenarios and --list-pipelines enumerate the
 * registered environments, scenarios and pipelines. The process exits
 * 1 when the fleet completed zero inferences (a deployment that
 * delivers nothing is a failure unless --allow-zero says otherwise),
 * so CI can gate on the exit code alone.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet_flags.hh"
#include "plan/plan.hh"
#include "telemetry/sonicz.hh"
#include "trace/trace.hh"
#include "util/cli.hh"
#include "util/parallel.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace sonic;

    fleet::FleetFlags fleet_flags;
    fleet::FleetOptions options;
    std::vector<std::string> trace_args;
    std::string from_plan_path, csv_path, json_path, sonicz_path;
    std::string summary_path, trace_out_path;
    u32 trace_every = 0;
    bool no_cache = false, allow_zero = false, require_delivered = false;
    bool require_cache_hits = false, list_envs = false;
    bool list_pipelines = false;

    cli::Flags flags("sonic_fleet");
    fleet_flags.declare(flags);
    flags.add("--from-plan", &from_plan_path, "PLAN.json")
        .repeatable("--trace", &trace_args, "NAME=FILE")
        .add("--threads", &options.threads, "T")
        .add("--csv", &csv_path, "PATH")
        .add("--json", &json_path, "PATH")
        .add("--sonicz", &sonicz_path, "PATH")
        .add("--summary", &summary_path, "PATH")
        .add("--trace-out", &trace_out_path, "RUN.sonictrace")
        .add("--trace-every", &trace_every, "N")
        .add("--progress", &options.progress)
        .add("--no-cache", &no_cache)
        .add("--require-cache-hits", &require_cache_hits)
        .add("--allow-zero", &allow_zero)
        .add("--require-delivered", &require_delivered)
        .add("--list-envs", &list_envs)
        .add("--list-pipelines", &list_pipelines);
    if (!flags.parse(argc, argv))
        return 2;

    // Traces register first, so environments named by the plan, the
    // axes and --list-envs can refer to them.
    for (const auto &trace : trace_args) {
        const auto eq = trace.find('=');
        if (eq == std::string::npos || eq == 0) {
            std::cerr << "--trace expects NAME=FILE (got '" << trace
                      << "')\n";
            return 2;
        }
        std::string error;
        if (!env::EnvRegistry::instance().addTraceFile(
                trace.substr(0, eq), trace.substr(eq + 1), &error)) {
            std::cerr << "cannot register trace: " << error << "\n";
            return 2;
        }
    }

    // The fleet: a named scenario or the defaults, replaced whole by
    // --from-plan (the plan carries its own scenario), then the axis
    // overrides.
    fleet::FleetPlan plan = fleet_flags.scenarioPlan();
    if (!from_plan_path.empty()) {
        plan::Plan deployment;
        std::string error;
        if (!plan::Plan::fromFile(from_plan_path, &deployment, &error)) {
            std::cerr << error << "\n";
            return 2;
        }
        plan = deployment.toFleetPlan();
    }
    fleet_flags.applyAxes(&plan);
    plan.traceEvery = trace_every;
    options.useCache = !no_cache;

    if (list_envs) {
        auto &registry = env::EnvRegistry::instance();
        for (const auto &name : registry.names()) {
            const auto *meta = registry.meta(name);
            std::cout << name << " [" << meta->family << "] — "
                      << meta->description << " (default "
                      << env::formatCapacitance(
                             meta->defaultCapacitanceFarads)
                      << ")\n";
        }
    }
    if (fleet_flags.listScenarios)
        fleet::FleetFlags::printScenarios(std::cout);
    if (list_pipelines)
        std::cout << pipeline::availableList();
    if (list_envs || fleet_flags.listScenarios || list_pipelines)
        return 0;

    std::vector<fleet::FleetSink *> sinks;
    std::ofstream csv_file;
    fleet::FleetCsvSink csv_sink(csv_file);
    if (!csv_path.empty()) {
        if (!cli::openOutput(csv_file, csv_path))
            return 2;
        sinks.push_back(&csv_sink);
    }
    std::ofstream json_file;
    fleet::FleetJsonSink json_sink(json_file);
    if (!json_path.empty()) {
        if (!cli::openOutput(json_file, json_path))
            return 2;
        sinks.push_back(&json_sink);
    }
    std::ofstream sonicz_file;
    std::unique_ptr<telemetry::SoniczFleetSink> sonicz_sink;
    if (!sonicz_path.empty()) {
        if (!cli::openOutput(sonicz_file, sonicz_path, std::ios::binary))
            return 2;
        // Block encoding fans out across the worker count the fleet
        // itself uses; the bytes are identical either way.
        sonicz_sink = std::make_unique<telemetry::SoniczFleetSink>(
            sonicz_file, util::resolveThreads(options.threads));
        sinks.push_back(sonicz_sink.get());
    }

    trace::TraceCollector collector;
    if (!trace_out_path.empty()) {
        if (plan.traceEvery == 0)
            plan.traceEvery = 16; // sample 1-in-16 by default
        options.traces = &collector;
    } else if (plan.traceEvery != 0) {
        std::cerr << "--trace-every without --trace-out does "
                     "nothing\n";
    }

    const auto summary = fleet::runFleet(plan, options, sinks);
    if (!cli::finishOutput(csv_file, csv_path)
        || !cli::finishOutput(json_file, json_path)
        || !cli::finishOutput(sonicz_file, sonicz_path))
        return 1;

    if (!trace_out_path.empty()) {
        std::ofstream trace_file;
        if (!cli::openOutput(trace_file, trace_out_path, std::ios::binary))
            return 2;
        collector.write(trace_file,
                        util::resolveThreads(options.threads));
        if (!cli::finishOutput(trace_file, trace_out_path))
            return 1;
        std::cout << "trace: " << collector.devices() << " devices, "
                  << collector.events() << " events -> "
                  << trace_out_path << "\n";
    }

    // Human-readable deployment report. Cache telemetry goes to
    // stdout only — the JSON artifact must stay byte-identical between
    // memoized and --no-cache runs.
    std::cout << "fleet: " << summary.devices << " devices, "
              << summary.total.inferences << " inferences, "
              << summary.total.resultsDelivered << " delivered, "
              << summary.total.dnfDevices << " DNF devices, "
              << summary.total.reboots << " reboots\n";
    std::cout << "latency p50/p95/p99: " << summary.latencyP50Seconds
              << " / " << summary.latencyP95Seconds << " / "
              << summary.latencyP99Seconds << " s\n";
    if (summary.total.resultsDelivered > 0)
        std::cout << "sense->ack p50/p95/p99: "
                  << summary.deliveryP50Seconds << " / "
                  << summary.deliveryP95Seconds << " / "
                  << summary.deliveryP99Seconds << " s\n";
    Table table({"environment", "devices", "dnf", "inf/dev-day",
                 "reboots/inf", "dead frac", "J/inf"});
    for (const auto &[name, g] : summary.byEnvironment) {
        table.row()
            .cell(name)
            .cell(g.devices)
            .cell(g.dnfDevices)
            .cell(g.inferencesPerDeviceDay(), 3)
            .cell(g.rebootsPerInference(), 2)
            .cell(g.deadFraction(), 4)
            .cell(g.energyPerInferenceJ(), 6);
    }
    table.print(std::cout);
    if (summary.total.txAttempts > 0) {
        Table tx({"pipeline", "devices", "delivered/dev-day",
                  "retries/delivered", "gave-up devs", "radio frac"});
        for (const auto &[name, g] : summary.byPipeline) {
            tx.row()
                .cell(name)
                .cell(g.devices)
                .cell(g.deliveredPerDeviceDay(), 3)
                .cell(g.retriesPerDelivered(), 2)
                .cell(g.txGaveUpDevices)
                .cell(g.radioEnergyFraction(), 4);
        }
        tx.print(std::cout);
    }

    if (!summary_path.empty()) {
        std::ofstream out;
        if (!cli::openOutput(out, summary_path))
            return 2;
        out << summary.toJson();
        if (!cli::finishOutput(out, summary_path))
            return 1;
        std::cout << "fleet summary written to " << summary_path
                  << "\n";
    }

    if (options.useCache) {
        std::cout << "round cache: " << summary.cache.roundHits
                  << " hits / " << summary.cache.lookups()
                  << " lookups (hit rate " << summary.cache.hitRate()
                  << "), " << summary.cache.lifetimeHits
                  << " lifetime hits, " << summary.cache.uncachedRounds
                  << " uncached rounds\n";
    }

    if (require_cache_hits
        && (summary.cache.lookups() == 0
            || summary.cache.roundHits + summary.cache.lifetimeHits
                   == 0)) {
        std::cerr << "fleet ran without cache hits — failing "
                     "(--require-cache-hits)\n";
        return 1;
    }
    if (summary.total.inferences == 0 && !allow_zero) {
        std::cerr << "fleet completed zero inferences — failing "
                     "(--allow-zero to override)\n";
        return 1;
    }
    if (require_delivered && summary.total.resultsDelivered == 0) {
        std::cerr << "fleet delivered zero results — failing "
                     "(--require-delivered)\n";
        return 1;
    }
    return 0;
}
