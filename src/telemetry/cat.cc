#include "telemetry/cat.hh"

#include <memory>
#include <ostream>

#include "telemetry/aggregate.hh"
#include "util/cli.hh"

namespace sonic::telemetry
{

bool
parseIndexRange(const std::string &text, u64 *lo, u64 *hi)
{
    const auto dots = text.find("..");
    if (dots == std::string::npos) {
        if (!cli::parseU64(text, lo))
            return false;
        *hi = *lo;
        return true;
    }
    const std::string_view view(text);
    return cli::parseU64(view.substr(0, dots), lo)
        && cli::parseU64(view.substr(dots + 2), hi) && *lo <= *hi;
}

namespace
{

bool
passes(const CatOptions &o, const std::string &env_label,
       const std::string &env_name, const std::string &impl,
       const std::string &net, const std::string &pipeline,
       const std::string &status, u64 index)
{
    if (!o.env.empty() && o.env != env_label && o.env != env_name)
        return false;
    if (!o.impl.empty() && o.impl != impl)
        return false;
    if (!o.net.empty() && o.net != net)
        return false;
    if (!o.pipeline.empty() && o.pipeline != pipeline)
        return false;
    if (!o.status.empty() && o.status != status)
        return false;
    if (o.hasRange && (index < o.rangeLo || index > o.rangeHi))
        return false;
    return true;
}

/** A schema's sink, opened on first use (begin() writes its header). */
template <typename Json, typename Csv, typename Sink>
Sink &
opened(std::unique_ptr<Sink> &sink, std::ostream &out, bool json)
{
    if (!sink) {
        if (json)
            sink = std::make_unique<Json>(out);
        else
            sink = std::make_unique<Csv>(out);
        sink->begin(0);
    }
    return *sink;
}

} // namespace

bool
catSonicz(std::istream &in, std::ostream &out,
          const CatOptions &options, std::string *error)
{
    // One sink per (schema, format); the schema is known only once the
    // header is read, so the sink opens on the first row that passes.
    // begin() is header/prologue emission — the sinks ignore the
    // row-count argument, so filtering costs nothing.
    std::unique_ptr<app::ResultSink> sweep_sink;
    std::unique_ptr<fleet::FleetSink> fleet_sink;
    const bool json = options.format == CatOptions::Format::Json;
    const auto sweep_out = [&]() -> app::ResultSink & {
        return opened<app::JsonSink, app::CsvSink>(sweep_sink, out, json);
    };
    const auto fleet_out = [&]() -> fleet::FleetSink & {
        return opened<fleet::FleetJsonSink, fleet::FleetCsvSink>(
            fleet_sink, out, json);
    };

    // A sweep row never passes a --pipeline filter, so that error
    // (below) is reached before anything is written.
    const auto on_sweep = [&](const app::SweepRecord &record) {
        const auto &spec = record.spec;
        if (passes(options, spec.environment.label(),
                   spec.environment.env,
                   std::string(kernels::implName(spec.impl)), spec.net,
                   /*pipeline=*/"", record.result.status(),
                   record.planIndex))
            sweep_out().add(record);
    };
    const auto on_fleet = [&](const fleet::DeviceTelemetry &t) {
        const auto &a = t.assignment;
        if (passes(options, a.environment.label(), a.environment.env,
                   std::string(kernels::implName(a.impl)), a.net,
                   a.pipeline, t.status(), a.deviceIndex))
            fleet_out().add(t);
    };

    // The index range doubles as a block-pruning hint: indexed files
    // skip blocks whose [min, max] misses it entirely, and passes()
    // keeps the exact row-level cut on the blocks that overlap.
    RowRange range;
    if (options.hasRange) {
        range.lo = options.rangeLo;
        range.hi = options.rangeHi;
    }
    SoniczInfo info;
    if (!readSonicz(in, on_sweep, on_fleet, &info, error,
                    options.hasRange ? &range : nullptr))
        return false;
    if (info.kind == SchemaKind::Trace) {
        if (error != nullptr)
            *error = "sonic_cat: this is a .sonictrace event file; "
                     "use sonic_trace to export or summarize it";
        return false;
    }
    if (info.kind == SchemaKind::Sweep && !options.pipeline.empty()) {
        if (error != nullptr)
            *error = "sonic_cat: --pipeline filters fleet telemetry; "
                     "this is a sweep file";
        return false;
    }

    // An empty selection still gets the schema-correct prologue
    // (header line / empty array), exactly like a direct run with no
    // rows.
    if (info.kind == SchemaKind::Sweep)
        sweep_out().end();
    else
        fleet_out().end();
    return true;
}

bool
soniczInfo(std::istream &in, std::ostream &out, std::string *error)
{
    SoniczInfo info;
    if (!readSonicz(in, nullptr, nullptr, &info, error))
        return false;
    const f64 ratio = info.fileBytes > 0
        ? static_cast<f64>(info.rawBytes)
              / static_cast<f64>(info.fileBytes)
        : 0.0;
    out << "schema:  "
        << (info.kind == SchemaKind::Sweep
                ? "sweep"
                : (info.kind == SchemaKind::Fleet ? "fleet" : "trace"))
        << " (version " << info.version << ")\n"
        << "rows:    " << info.rows << "\n"
        << "blocks:  " << info.blocks << "\n"
        << "index:   "
        << (info.hasIndex ? "yes" : "no (version 1, scan only)")
        << "\n"
        << "file:    " << info.fileBytes << " bytes\n"
        << "columns: " << info.rawBytes << " bytes raw, "
        << info.storedBytes << " bytes stored\n"
        << "ratio:   " << (static_cast<u64>(ratio * 100.0 + 0.5)
                           / 100.0)
        << "x raw/file\n";
    return true;
}

bool
soniczSummary(std::istream &in, std::ostream &out,
              const CatOptions &options, std::string *error)
{
    if (!options.env.empty() || !options.impl.empty()
        || !options.net.empty() || !options.pipeline.empty()
        || !options.status.empty()) {
        if (error != nullptr)
            *error = "sonic_cat: --summary aggregates whole groups; "
                     "row filters other than --devices do not apply";
        return false;
    }
    RowRange range;
    if (options.hasRange) {
        range.lo = options.rangeLo;
        range.hi = options.rangeHi;
    }
    fleet::FleetSummary summary;
    if (!aggregate(in, &summary, error, nullptr,
                   options.hasRange ? &range : nullptr))
        return false;
    out << summary.toJson();
    return true;
}

} // namespace sonic::telemetry
