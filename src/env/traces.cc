#include "env/traces.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>

#include "util/json_parse.hh"

namespace sonic::env
{

namespace
{

/**
 * Validate raw trace samples and build the periodic model. Shared by
 * both formats so CSV and JSON traces obey identical rules: at least
 * two samples, strictly increasing timestamps, non-negative power,
 * strictly positive energy over the loop. The last sample closes the
 * loop — it marks the period boundary and playback wraps from it back
 * to the first sample's rate.
 */
bool
samplesToModel(const std::vector<HarvestModel::Point> &samples,
               HarvestModel *out, std::string *error)
{
    if (samples.size() < 2) {
        *error = "trace needs at least 2 samples (got "
               + std::to_string(samples.size()) + ")";
        return false;
    }
    for (u64 i = 0; i < samples.size(); ++i) {
        // Finiteness first, and with !(x >= 0) instead of (x < 0):
        // from_chars takes "nan" and "inf", and NaN compares
        // false against everything — `watts < 0.0` waved NaN straight
        // through, and +inf passed outright.
        if (!std::isfinite(samples[i].seconds)) {
            *error = "trace sample " + std::to_string(i)
                   + " has a non-finite timestamp";
            return false;
        }
        if (!std::isfinite(samples[i].watts)) {
            *error = "trace sample " + std::to_string(i)
                   + " has non-finite power";
            return false;
        }
        if (!(samples[i].watts >= 0.0)) {
            *error = "trace sample " + std::to_string(i)
                   + " has negative power";
            return false;
        }
        if (i > 0 && samples[i].seconds <= samples[i - 1].seconds) {
            *error = "trace timestamps must be strictly increasing "
                     "(sample " + std::to_string(i) + ")";
            return false;
        }
    }
    // Normalize to t = 0 and drop the loop-closing sample (the wrap
    // segment interpolates back to the first sample's rate).
    const f64 t0 = samples.front().seconds;
    const f64 period = samples.back().seconds - t0;
    std::vector<HarvestModel::Point> points;
    points.reserve(samples.size() - 1);
    for (u64 i = 0; i + 1 < samples.size(); ++i)
        points.push_back({samples[i].seconds - t0, samples[i].watts});
    // The model's own integral (trapezoids over the kept points, the
    // last segment wrapping to the first point's rate): a trace that
    // delivers zero energy per loop could never recharge a device.
    f64 loop_joules = 0.0;
    for (u64 i = 0; i < points.size(); ++i) {
        const f64 end = i + 1 < points.size() ? points[i + 1].seconds
                                              : period;
        const f64 end_watts = i + 1 < points.size()
            ? points[i + 1].watts
            : points.front().watts;
        loop_joules += 0.5 * (points[i].watts + end_watts)
                     * (end - points[i].seconds);
    }
    if (loop_joules <= 0.0) {
        *error = "trace harvests no energy over its loop — playback "
                 "could never recharge a device";
        return false;
    }
    *out = HarvestModel(std::move(points), period);
    return true;
}

/** `text` without its surrounding whitespace. */
std::string_view
trimmed(std::string_view text)
{
    while (!text.empty()
           && std::isspace(static_cast<unsigned char>(text.front())))
        text.remove_prefix(1);
    while (!text.empty()
           && std::isspace(static_cast<unsigned char>(text.back())))
        text.remove_suffix(1);
    return text;
}

/** All of `text` as a double, read as jsonp reads numbers: from_chars
 * takes a subnormal (std::stod throws on one) and refuses a value out
 * of range, such as 1e999. */
bool
parseNumber(std::string_view text, f64 *out)
{
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, *out);
    return !text.empty() && ec == std::errc() && stop == end;
}

} // namespace

bool
parseTraceCsv(const std::string &text, HarvestModel *out,
              std::string *error)
{
    std::string scratch;
    std::string &err = error != nullptr ? *error : scratch;
    std::vector<HarvestModel::Point> samples;
    std::istringstream lines(text);
    u64 line_no = 0;
    for (std::string line; std::getline(lines, line);) {
        ++line_no;
        // Blank lines and comments are skipped; fields tolerate
        // surrounding whitespace ("10 , 0.5").
        const std::string_view row = trimmed(line);
        if (row.empty() || row.front() == '#')
            continue;
        auto reject = [&](const char *why) {
            err = "trace line " + std::to_string(line_no) + ": " + why;
            return false;
        };
        const auto comma = row.find(',');
        if (comma == std::string_view::npos)
            return reject("expected 'seconds,watts' (no comma found)");
        HarvestModel::Point p;
        if (!parseNumber(trimmed(row.substr(0, comma)), &p.seconds))
            return reject("unparsable timestamp");
        if (!parseNumber(trimmed(row.substr(comma + 1)), &p.watts))
            return reject("unparsable power value");
        // Catch nan/inf here, where the line number is still known —
        // samplesToModel re-checks (for the JSON path) but can only
        // name the sample index.
        if (!std::isfinite(p.seconds))
            return reject("non-finite timestamp");
        if (!std::isfinite(p.watts))
            return reject("non-finite power value");
        samples.push_back(p);
    }
    return samplesToModel(samples, out, &err);
}

bool
parseTraceJson(const std::string &text, HarvestModel *out,
               std::string *error)
{
    std::string scratch;
    std::string &err = error != nullptr ? *error : scratch;
    err.clear();

    const std::string ctx = "trace JSON";
    jsonp::JsonValue doc;
    if (!jsonp::parseJson(text, &doc, &err))
        return false;
    const jsonp::JsonObject *obj = doc.object();
    if (obj == nullptr) {
        err = ctx + ": the document is not an object";
        return false;
    }
    for (const auto &[key, value] : *obj) {
        if (key != "format" && key != "version" && key != "points") {
            err = ctx + ": unknown field \"" + key + "\"";
            return false;
        }
    }
    std::string format;
    u32 version = 0;
    if (!jsonp::getString(*obj, "format", &format, &err, ctx)
        || !jsonp::getU32(*obj, "version", &version, &err, ctx))
        return false;
    if (format != "sonic-trace") {
        err = "not a sonic-trace document (format \"" + format + "\")";
        return false;
    }
    if (version != kTraceFormatVersion) {
        err = "unsupported trace format version "
            + std::to_string(version) + " (this build reads version "
            + std::to_string(kTraceFormatVersion) + ")";
        return false;
    }
    const auto points = obj->find("points");
    if (points == obj->end() || points->second.array() == nullptr) {
        err = ctx + ": missing \"points\" array";
        return false;
    }
    std::vector<HarvestModel::Point> samples;
    for (const auto &point : *points->second.array()) {
        const jsonp::JsonArray *pair = point.array();
        if (pair == nullptr || pair->size() != 2
            || (*pair)[0].number() == nullptr
            || (*pair)[1].number() == nullptr) {
            err = ctx + ": point " + std::to_string(samples.size())
                + ": each point must be [seconds, watts]";
            return false;
        }
        samples.push_back({*(*pair)[0].number(), *(*pair)[1].number()});
    }
    return samplesToModel(samples, out, &err);
}

bool
loadTraceFile(const std::string &path, HarvestModel *out,
              std::string *error)
{
    std::string scratch;
    std::string &err = error != nullptr ? *error : scratch;
    std::ifstream in(path);
    if (!in) {
        err = "cannot read " + path;
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const bool json = path.size() >= 5
        && path.compare(path.size() - 5, 5, ".json") == 0;
    return json ? parseTraceJson(buffer.str(), out, &err)
                : parseTraceCsv(buffer.str(), out, &err);
}

// --- Embedded traces ------------------------------------------------

/** ~2 minutes of office ambient RF: a noisy 0.2–0.9 mW floor with
 * stronger bursts when the nearby transmitter keys up. */
const char *const kTraceRfOfficeCsv =
    "# embedded office RF harvest trace (seconds,watts)\n"
    "0,0.00040\n"
    "5,0.00025\n"
    "10,0.00055\n"
    "15,0.00090\n"
    "20,0.00035\n"
    "25,0.00020\n"
    "30,0.00240\n"
    "32,0.00260\n"
    "34,0.00045\n"
    "40,0.00030\n"
    "45,0.00065\n"
    "50,0.00085\n"
    "55,0.00040\n"
    "60,0.00022\n"
    "65,0.00050\n"
    "70,0.00180\n"
    "72,0.00210\n"
    "74,0.00055\n"
    "80,0.00035\n"
    "85,0.00070\n"
    "90,0.00090\n"
    "95,0.00045\n"
    "100,0.00028\n"
    "105,0.00060\n"
    "110,0.00080\n"
    "115,0.00050\n"
    "120,0.00040\n";

/** A cloudy day of solar harvest, hourly samples: late dawn, a broken
 * noon plateau with cloud dips, early dusk. */
const char *const kTraceSolarCloudyJson =
    "{\"format\": \"sonic-trace\", \"version\": 1, \"points\": ["
    "[0, 0], [21600, 0], [25200, 0.0008], [28800, 0.0030], "
    "[32400, 0.0055], [36000, 0.0024], [39600, 0.0075], "
    "[43200, 0.0088], [46800, 0.0031], [50400, 0.0066], "
    "[54000, 0.0042], [57600, 0.0021], [61200, 0.0009], "
    "[64800, 0], [86400, 0]]}";

} // namespace sonic::env
