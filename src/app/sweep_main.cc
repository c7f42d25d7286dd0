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
 * telemetry for a planned deployment is one flag away. Later axis
 * flags still override.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/engine.hh"
#include "plan/plan.hh"
#include "telemetry/sonicz.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace
{

using namespace sonic;
using cli::consumeFlag;
using cli::splitCsv;

int
usage()
{
    std::cerr
        << "usage: sonic_sweep [--nets=A,B,...] [--impls=SONIC,...]\n"
           "                   [--envs=solar@1mF,rf-paper,...]\n"
           "                   [--profiles=standard,no-lea,...]\n"
           "                   [--samples=N] [--seed=S]\n"
           "                   [--threads=T] [--digests]\n"
           "                   [--progress]\n"
           "                   [--from-plan=PLAN.json]\n"
           "                   [--csv=PATH] [--json=PATH]\n"
           "                   [--sonicz=PATH]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    app::SweepPlan plan;
    app::EngineOptions engine_options;
    std::string csv_path, json_path, sonicz_path, value;

    // --from-plan resolves first so explicit axis flags override the
    // plan's axes, whatever the flag order was.
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        for (const auto &arg : args) {
            if (!consumeFlag(arg, "--from-plan", &value))
                continue;
            std::ifstream in(value);
            if (!in) {
                std::cerr << "cannot read " << value << "\n";
                return 2;
            }
            std::ostringstream text;
            text << in.rdbuf();
            plan::Plan deployment;
            std::string error;
            if (!plan::Plan::fromJson(text.str(), &deployment,
                                      &error)) {
                std::cerr << "bad plan " << value << ": " << error
                          << "\n";
                return 2;
            }
            plan = deployment.toSweepPlan();
        }

        for (const auto &arg : args) {
            if (consumeFlag(arg, "--from-plan", &value)) {
                continue; // handled above
            } else if (consumeFlag(arg, "--nets", &value)) {
                std::vector<dnn::NetRef> nets;
                for (const auto &name : splitCsv(value))
                    nets.push_back(name);
                plan.nets(std::move(nets));
            } else if (consumeFlag(arg, "--impls", &value)) {
                plan.implNames(splitCsv(value));
            } else if (consumeFlag(arg, "--envs", &value)) {
                plan.environmentLabels(splitCsv(value));
            } else if (consumeFlag(arg, "--profiles", &value)) {
                std::vector<app::ProfileVariant> variants;
                for (const auto &name : splitCsv(value)) {
                    app::ProfileVariant variant;
                    if (!app::profileFromName(name, &variant))
                        fatal("unknown profile '", name,
                              "' (standard | no-lea | no-dma)");
                    variants.push_back(variant);
                }
                plan.profiles(std::move(variants));
            } else if (consumeFlag(arg, "--samples", &value)) {
                plan.samples(static_cast<u32>(std::stoul(value)));
            } else if (consumeFlag(arg, "--seed", &value)) {
                plan.baseSeed(std::stoull(value));
            } else if (consumeFlag(arg, "--threads", &value)) {
                engine_options.threads =
                    static_cast<u32>(std::stoul(value));
            } else if (arg == "--progress") {
                engine_options.progress = true;
            } else if (arg == "--digests") {
                plan.captureNvmDigests(true);
            } else if (consumeFlag(arg, "--csv", &value)) {
                csv_path = value;
            } else if (consumeFlag(arg, "--json", &value)) {
                json_path = value;
            } else if (consumeFlag(arg, "--sonicz", &value)) {
                sonicz_path = value;
            } else {
                return usage();
            }
        }
    } catch (const std::exception &) { // bad numeric flag value
        return usage();
    }

    std::vector<app::ResultSink *> sinks;
    std::ofstream csv_file, json_file, sonicz_file;
    app::CsvSink csv_sink(csv_file);
    app::JsonSink json_sink(json_file);
    std::unique_ptr<telemetry::SoniczSweepSink> sonicz_sink;
    if (!csv_path.empty()) {
        csv_file.open(csv_path);
        if (!csv_file) {
            std::cerr << "cannot write " << csv_path << "\n";
            return 2;
        }
        sinks.push_back(&csv_sink);
    }
    if (!json_path.empty()) {
        json_file.open(json_path);
        if (!json_file) {
            std::cerr << "cannot write " << json_path << "\n";
            return 2;
        }
        sinks.push_back(&json_sink);
    }
    if (!sonicz_path.empty()) {
        sonicz_file.open(sonicz_path, std::ios::binary);
        if (!sonicz_file) {
            std::cerr << "cannot write " << sonicz_path << "\n";
            return 2;
        }
        // Parallel block encoding: byte-identical to serial, so the
        // sweep worker count is a safe default.
        sonicz_sink = std::make_unique<telemetry::SoniczSweepSink>(
            sonicz_file, engine_options.threads);
        sinks.push_back(sonicz_sink.get());
    }

    app::Engine engine(engine_options);
    const auto records = engine.run(plan, sinks);

    u64 completed = 0;
    for (const auto &record : records)
        if (record.result.completed)
            ++completed;
    std::cout << "sweep: " << records.size() << " runs, " << completed
              << " completed (" << engine.threadCount()
              << " threads)\n";
    return records.empty() ? 1 : 0;
}
