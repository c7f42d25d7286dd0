/**
 * @file
 * sonic_sweep — run a declarative experiment grid and stream the
 * records to CSV / JSON / .sonicz sinks.
 *
 *     sonic_sweep --nets=MNIST --impls=SONIC,TAILS --samples=3 \
 *                 --csv=sweep.csv
 *     sonic_sweep --envs=solar@1mF,rf-paper --sonicz=sweep.sonicz
 *     sonic_sweep --envs=continuous,rf-paper@50mF --json=sweep.json
 *     sonic_sweep --from-plan=plan.json --csv=planned.csv
 *
 * The axes mirror app::SweepPlan: nets x impls x envs x profiles x
 * samples, expanded in the documented order. Without --envs every run
 * is on continuous wall power; the paper's capacitors are
 * rf-paper@50mF, rf-paper@1mF and rf-paper@100uF. Any
 * combination of output sinks may be given; each receives the same
 * records in plan order, so sonic_cat over the .sonicz output is
 * byte-identical to the CSV/JSON written directly.
 *
 * --from-plan seeds the grid from a sonic_plan artifact: the axes
 * become the distinct models, kernels, and environments the plan's
 * choices actually use (see plan::Plan::toSweepPlan), so per-run
 * telemetry for a planned deployment is one flag away. Axis flags
 * override the plan's axes wherever they appear on the command line.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/engine.hh"
#include "plan/plan.hh"
#include "telemetry/sonicz.hh"
#include "util/cli.hh"
#include "util/logging.hh"

int
main(int argc, char **argv)
{
    using namespace sonic;

    std::optional<std::vector<std::string>> nets, impls, envs, profiles;
    std::optional<u32> samples;
    std::optional<u64> seed;
    bool digests = false;
    app::EngineOptions engine_options;
    std::string from_plan_path, csv_path, json_path, sonicz_path;

    cli::Flags flags("sonic_sweep");
    flags.add("--nets", &nets, "A,B,...")
        .add("--impls", &impls, "SONIC,...")
        .add("--envs", &envs, "solar@1mF,rf-paper,...")
        .add("--profiles", &profiles, "standard,no-lea,...")
        .add("--samples", &samples, "N")
        .add("--seed", &seed, "S")
        .add("--threads", &engine_options.threads, "T")
        .add("--digests", &digests)
        .add("--progress", &engine_options.progress)
        .add("--from-plan", &from_plan_path, "PLAN.json")
        .add("--csv", &csv_path, "PATH")
        .add("--json", &json_path, "PATH")
        .add("--sonicz", &sonicz_path, "PATH");
    if (!flags.parse(argc, argv))
        return 2;

    // The grid: the plan's axes under --from-plan, else the defaults;
    // then each axis flag given overrides its axis.
    app::SweepPlan plan;
    if (!from_plan_path.empty()) {
        plan::Plan deployment;
        std::string error;
        if (!plan::Plan::fromFile(from_plan_path, &deployment, &error)) {
            std::cerr << error << "\n";
            return 2;
        }
        plan = deployment.toSweepPlan();
    }
    if (nets)
        plan.nets(*nets);
    if (impls)
        plan.implNames(*impls);
    if (envs)
        plan.environmentLabels(*envs);
    if (profiles) {
        std::vector<app::ProfileVariant> variants;
        for (const auto &name : *profiles) {
            app::ProfileVariant variant;
            if (!app::profileFromName(name, &variant))
                fatal("unknown profile '", name,
                      "' (standard | no-lea | no-dma)");
            variants.push_back(variant);
        }
        plan.profiles(std::move(variants));
    }
    if (samples)
        plan.samples(*samples);
    if (seed)
        plan.baseSeed(*seed);
    if (digests)
        plan.captureNvmDigests(true);

    std::vector<app::ResultSink *> sinks;
    std::ofstream csv_file, json_file, sonicz_file;
    app::CsvSink csv_sink(csv_file);
    app::JsonSink json_sink(json_file);
    std::unique_ptr<telemetry::SoniczSweepSink> sonicz_sink;
    if (!csv_path.empty()) {
        if (!cli::openOutput(csv_file, csv_path))
            return 2;
        sinks.push_back(&csv_sink);
    }
    if (!json_path.empty()) {
        if (!cli::openOutput(json_file, json_path))
            return 2;
        sinks.push_back(&json_sink);
    }
    if (!sonicz_path.empty()) {
        if (!cli::openOutput(sonicz_file, sonicz_path, std::ios::binary))
            return 2;
        // Parallel block encoding: byte-identical to serial, so the
        // sweep worker count is a safe default.
        sonicz_sink = std::make_unique<telemetry::SoniczSweepSink>(
            sonicz_file, engine_options.threads);
        sinks.push_back(sonicz_sink.get());
    }

    app::Engine engine(engine_options);
    const auto records = engine.run(plan, sinks);
    if (!cli::finishOutput(csv_file, csv_path)
        || !cli::finishOutput(json_file, json_path)
        || !cli::finishOutput(sonicz_file, sonicz_path))
        return 1;

    u64 completed = 0;
    for (const auto &record : records)
        if (record.result.completed)
            ++completed;
    std::cout << "sweep: " << records.size() << " runs, " << completed
              << " completed (" << engine.threadCount()
              << " threads)\n";
    return records.empty() ? 1 : 0;
}
