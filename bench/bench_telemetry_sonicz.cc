/**
 * @file
 * Telemetry-compression bench: the mixed-1k acceptance fleet streamed
 * through the direct CSV/JSON sinks and the .sonicz columnar sink,
 * sizes and compression ratios reported. The bench is also its own
 * gate: the sonic_cat-style re-emission (telemetry::catSonicz through
 * the same sink classes) must be byte-identical to the direct output,
 * and the CSV-to-.sonicz ratio must clear the 5x acceptance floor —
 * either failure exits nonzero.
 *
 * `--emit-json=PATH` writes the sizes and ratios to PATH as one JSON
 * object; `--devices=N` rescales the fleet.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "fleet/fleet.hh"
#include "telemetry/cat.hh"
#include "util/cli.hh"
#include "util/json.hh"

using namespace sonic;

namespace
{

const fleet::FleetPlan &
mixedPlan()
{
    for (const auto &scenario : fleet::namedScenarios()) {
        if (scenario.name == "mixed-1k")
            return scenario.plan;
    }
    std::fprintf(stderr, "mixed-1k scenario missing\n");
    std::exit(2);
}

int
run(u32 devices, const std::string &json_path)
{
    fleet::FleetPlan plan = mixedPlan();
    plan.devices = devices;

    std::ostringstream csv_os, json_os, sonicz_os;
    fleet::FleetCsvSink csv_sink(csv_os);
    fleet::FleetJsonSink json_sink(json_os);
    telemetry::SoniczFleetSink sonicz_sink(sonicz_os);
    fleet::runFleet(plan, {},
                    {&csv_sink, &json_sink, &sonicz_sink});

    const std::string csv = csv_os.str();
    const std::string json = json_os.str();
    const std::string sonicz = sonicz_os.str();
    const f64 csv_ratio = sonicz.empty()
        ? 0.0
        : static_cast<f64>(csv.size())
              / static_cast<f64>(sonicz.size());
    const f64 json_ratio = sonicz.empty()
        ? 0.0
        : static_cast<f64>(json.size())
              / static_cast<f64>(sonicz.size());

    std::printf("%u devices: csv %zu B, json %zu B, sonicz %zu B\n",
                devices, csv.size(), json.size(), sonicz.size());
    std::printf("compression: %.2fx vs csv, %.2fx vs json\n",
                csv_ratio, json_ratio);

    // Gate 1: lossless by construction — re-emission through the same
    // sink classes must reproduce both artifacts byte for byte.
    for (const bool as_json : {false, true}) {
        telemetry::CatOptions options;
        options.format = as_json ? telemetry::CatOptions::Format::Json
                                 : telemetry::CatOptions::Format::Csv;
        std::istringstream in(sonicz);
        std::ostringstream out;
        std::string error;
        if (!telemetry::catSonicz(in, out, options, &error)) {
            std::fprintf(stderr, "re-emission failed: %s\n",
                         error.c_str());
            return 1;
        }
        const std::string &direct = as_json ? json : csv;
        if (out.str() != direct) {
            std::fprintf(stderr,
                         "re-emitted %s differs from the direct sink "
                         "output — .sonicz is NOT lossless\n",
                         as_json ? "JSON" : "CSV");
            return 1;
        }
    }
    std::printf("re-emission: byte-identical (csv and json)\n");

    // Gate 2: the acceptance floor. Column contexts + LZ must beat
    // the flat CSV by at least 5x on the acceptance fleet.
    if (csv_ratio < 5.0) {
        std::fprintf(stderr,
                     "csv/sonicz ratio %.2f is below the 5x floor\n",
                     csv_ratio);
        return 1;
    }

    if (json_path.empty())
        return 0;
    std::ofstream file;
    if (!cli::openOutput(file, json_path))
        return 2;
    json::Writer(file)
        .beginObject()
        .br(2).field("bench", "telemetry_sonicz")
        .br(2).field("csv_bytes", csv.size())
        .br(2).field("json_bytes", json.size())
        .br(2).field("sonicz_bytes", sonicz.size())
        .br(2).field("csv_ratio", csv_ratio)
        .br(2).field("json_ratio", json_ratio)
        .br(0).end();
    return cli::finishOutput(file, json_path) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    u32 devices = 1000;
    std::string json_path;
    cli::Flags flags("bench_telemetry_sonicz");
    flags.add("--devices", &devices, "N")
        .add("--emit-json", &json_path, "PATH");
    if (!flags.parse(argc, argv))
        return 2;
    if (devices == 0) {
        std::fprintf(stderr, "--devices must be positive\n");
        return 2;
    }
    return run(devices, json_path);
}
