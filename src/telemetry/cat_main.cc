/**
 * @file
 * sonic_cat — decompress, subset, and re-emit .sonicz telemetry.
 *
 *     sonic_cat fleet.sonicz                        # CSV to stdout
 *     sonic_cat fleet.sonicz --format=json --out=fleet.json
 *     sonic_cat fleet.sonicz --env=solar --impl=SONIC
 *     sonic_cat fleet.sonicz --devices=100..199 --status=dnf
 *     sonic_cat sweep.sonicz --net=MNIST            # range = planIndex
 *     sonic_cat fleet.sonicz --info                 # validate + stats
 *     sonic_cat fleet.sonicz --summary              # FleetSummary JSON
 *
 * --status is one of ok, dnf or fail, so a typo is a usage error.
 *
 * Re-emission goes through the exact sink classes the live tools use,
 * so an unfiltered cat is byte-identical to the CSV/JSON a direct run
 * writes. Any corruption — flipped payload bytes, a truncated tail, a
 * forged length — is a hard error with a block/column diagnostic, not
 * silently wrong output.
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "telemetry/cat.hh"
#include "util/cli.hh"

int
main(int argc, char **argv)
{
    using namespace sonic;

    telemetry::CatOptions options;
    std::string input_path, out_path, format;
    std::optional<std::string> devices;
    bool info_only = false;
    bool summary_only = false;

    cli::Flags flags("sonic_cat");
    flags.positional("FILE.sonicz", &input_path)
        .oneOf("--format", &format, {"csv", "json"})
        .add("--env", &options.env, "NAME")
        .add("--impl", &options.impl, "NAME")
        .add("--net", &options.net, "NAME")
        .add("--pipeline", &options.pipeline, "NAME")
        .oneOf("--status", &options.status, {"ok", "dnf", "fail"})
        .add("--devices", &devices, "A..B")
        .add("--out", &out_path, "PATH")
        .add("--info", &info_only)
        .add("--summary", &summary_only);
    if (!flags.parse(argc, argv))
        return 2;
    if (format == "json")
        options.format = telemetry::CatOptions::Format::Json;
    if (devices) {
        if (!telemetry::parseIndexRange(*devices, &options.rangeLo,
                                        &options.rangeHi)) {
            std::cerr << "--devices expects A..B or a single index (got '"
                      << *devices << "')\n";
            return 2;
        }
        options.hasRange = true;
    }

    std::ifstream in(input_path, std::ios::binary);
    if (!in) {
        std::cerr << "cannot read " << input_path << "\n";
        return 2;
    }

    std::string error;
    if (info_only) {
        if (!telemetry::soniczInfo(in, std::cout, &error)) {
            std::cerr << error << "\n";
            return 1;
        }
        return 0;
    }

    std::ofstream out_file;
    if (!out_path.empty()
        && !cli::openOutput(out_file, out_path, std::ios::binary))
        return 2;
    std::ostream &out = out_path.empty() ? std::cout : out_file;

    const bool ok = summary_only
        ? telemetry::soniczSummary(in, out, options, &error)
        : telemetry::catSonicz(in, out, options, &error);
    if (!ok) {
        std::cerr << error << "\n";
        return 1;
    }
    return cli::finishOutput(out_file, out_path) ? 0 : 1;
}
