/**
 * @file
 * sonic_trace — inspect and export .sonictrace event files.
 *
 *     sonic_trace run.sonictrace                       # summary
 *     sonic_trace run.sonictrace --export=chrome --out=run.json
 *     sonic_trace run.sonictrace --flame               # energy rollup
 *     sonic_trace run.sonictrace --summary
 *
 * The Chrome export loads in chrome://tracing or Perfetto: one process
 * per traced device with pipeline, layers, and power tracks. --flame
 * charges every joule between consecutive cumulative-energy stamps to
 * the layer/part that was active, reproducing the paper's per-layer
 * energy split from a recorded deployment instead of a bench run.
 * --export takes precedence over --flame; the summary is the default.
 * Corrupt or truncated inputs are rejected by the container checksums.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "util/cli.hh"

int
main(int argc, char **argv)
{
    using namespace sonic;

    std::string input_path, out_path, export_format;
    bool flame = false;
    bool summary = false;

    cli::Flags flags("sonic_trace");
    flags.positional("FILE.sonictrace", &input_path)
        .oneOf("--export", &export_format, {"chrome"})
        .add("--flame", &flame)
        .add("--summary", &summary)
        .add("--out", &out_path, "PATH");
    if (!flags.parse(argc, argv))
        return 2;

    std::ifstream in(input_path, std::ios::binary);
    if (!in) {
        std::cerr << "cannot read " << input_path << "\n";
        return 2;
    }

    std::vector<telemetry::TraceRow> rows;
    telemetry::SoniczInfo info;
    std::string error;
    if (!trace::readTrace(in, &rows, &info, &error)) {
        std::cerr << "sonic_trace: " << error << "\n";
        return 1;
    }

    std::ofstream out_file;
    if (!out_path.empty()
        && !cli::openOutput(out_file, out_path, std::ios::binary))
        return 2;
    std::ostream &out = out_path.empty() ? std::cout : out_file;

    if (export_format == "chrome") {
        trace::exportChromeTrace(rows, out);
    } else if (flame) {
        trace::writeFlameRollup(rows, out);
    } else {
        // Default (and explicit --summary): compact statistics.
        (void)summary;
        trace::writeTraceSummary(rows, out);
    }
    return cli::finishOutput(out_file, out_path) ? 0 : 1;
}
