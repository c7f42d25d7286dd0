#include "env/environment.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "env/traces.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace sonic::env
{

// --- EnvRef ---------------------------------------------------------

std::string
formatCapacitance(f64 farads)
{
    std::ostringstream os;
    if (farads >= 1.0)
        os << farads << "F";
    else if (farads >= 1e-3)
        os << farads * 1e3 << "mF";
    else if (farads >= 1e-6)
        os << farads * 1e6 << "uF";
    else
        os << farads * 1e9 << "nF";
    return os.str();
}

std::string
EnvRef::label() const
{
    if (capacitanceFarads <= 0.0)
        return env;
    return env + "@" + formatCapacitance(capacitanceFarads);
}

bool
parseEnvRef(const std::string &text, EnvRef *out, std::string *error)
{
    const auto at = text.find('@');
    out->env = text.substr(0, at);
    out->capacitanceFarads = 0.0;
    if (out->env.empty()) {
        *error = "environment reference '" + text
               + "' has an empty name";
        return false;
    }
    if (at == std::string::npos)
        return true;

    const std::string cap = text.substr(at + 1);
    const auto unparsable = [&] {
        *error = "environment reference '" + text
               + "': unparsable capacitance '" + cap + "'";
        return false;
    };
    // "<decimal>[e<int>]<unit>". The unit folds into the decimal
    // exponent ("100uF" -> "100e-6") before one correctly rounded
    // conversion, so the result is the double nearest the written
    // value. (Multiplying by 1e-6, itself rounded, would put 100uF one
    // ULP below the literal 100e-6.)
    const auto unit_at = cap.find_first_not_of("+-0123456789.eE");
    std::string number = cap.substr(0, unit_at);
    const std::string unit =
        unit_at == std::string::npos ? "" : cap.substr(unit_at);
    if (number.empty())
        return unparsable();
    i64 exp10 = unit == "F" ? 0
              : unit == "mF" ? -3
              : unit == "uF" ? -6
              : unit == "nF" ? -9
                             : 1;
    if (exp10 == 1) {
        *error = "environment reference '" + text
               + "': capacitance unit must be F, mF, uF or nF (got '"
               + unit + "')";
        return false;
    }
    f64 value = 0.0;
    try {
        std::size_t used = 0;
        if (const auto e = number.find_first_of("eE");
            e != std::string::npos) {
            exp10 += std::stoi(number.substr(e + 1), &used);
            if (used != number.size() - e - 1)
                return unparsable();
            number.resize(e);
        }
        number += "e" + std::to_string(exp10);
        value = std::stod(number, &used);
        if (used != number.size())
            return unparsable();
    } catch (const std::exception &) { // includes over/underflow
        return unparsable();
    }
    if (value <= 0.0) {
        *error = "environment reference '" + text
               + "': capacitance must be positive";
        return false;
    }
    out->capacitanceFarads = value;
    return true;
}

// --- HarvestModel ---------------------------------------------------

HarvestModel::HarvestModel(std::vector<Point> points, f64 period_seconds)
    : points_(std::move(points)), period_(period_seconds)
{
    SONIC_ASSERT(!points_.empty(), "harvest model needs control points");
    SONIC_ASSERT(period_ > 0.0, "harvest model period must be positive");
    SONIC_ASSERT(points_.front().seconds == 0.0,
                 "harvest model must start at t = 0");
    for (u64 i = 0; i < points_.size(); ++i) {
        SONIC_ASSERT(points_[i].watts >= 0.0,
                     "harvest power cannot be negative");
        SONIC_ASSERT(points_[i].seconds < period_,
                     "harvest control point beyond the period");
        if (i > 0)
            SONIC_ASSERT(points_[i].seconds > points_[i - 1].seconds,
                         "harvest control points must be increasing");
    }
    periodJoules_ = 0.0;
    for (u64 i = 0; i < points_.size(); ++i) {
        const f64 dt = segmentEnd(i) - points_[i].seconds;
        periodJoules_ +=
            0.5 * (points_[i].watts + segmentEndWatts(i)) * dt;
    }
    SONIC_ASSERT(periodJoules_ > 0.0,
                 "harvest model must deliver positive energy per "
                 "period — an always-dead environment cannot recharge");
}

HarvestModel
HarvestModel::constant(f64 watts)
{
    SONIC_ASSERT(watts > 0.0, "constant harvest power must be positive");
    return HarvestModel({{0.0, watts}}, 1.0);
}

f64
HarvestModel::watts(f64 t) const
{
    const f64 local = wrap(t);
    return rateIn(segmentAt(local), local);
}

f64
HarvestModel::energyJoules(f64 t0, f64 dt) const
{
    SONIC_ASSERT(dt >= 0.0);
    // Whole periods first, then march the partial span segment by
    // segment with trapezoids (the rate is linear inside a segment).
    f64 joules = std::floor(dt / period_) * periodJoules_;
    f64 t = t0;
    f64 left = std::fmod(dt, period_);
    while (left > 0.0) {
        const f64 local = wrap(t);
        const f64 step =
            std::min(left, segmentEnd(segmentAt(local)) - local);
        if (step <= 0.0)
            break; // numeric guard at a segment boundary
        joules += 0.5 * (watts(t) + watts(t + step)) * step;
        t += step;
        left -= step;
    }
    return joules;
}

f64
HarvestModel::secondsToHarvest(f64 t0, f64 joules) const
{
    if (joules <= 0.0)
        return 0.0;
    // Reduce by whole periods so the segment walk below is bounded.
    f64 seconds = 0.0;
    if (joules > periodJoules_) {
        const f64 periods = std::floor(joules / periodJoules_);
        seconds += periods * period_;
        joules -= periods * periodJoules_;
        if (joules <= 0.0)
            return seconds;
    }
    // Each step integrates from t to the end of t's segment. Where one
    // step ends the next begins, so its wrapped time, segment and rate
    // carry over; only the nudge past a zero-width step re-derives
    // them.
    f64 t = t0 + seconds;
    f64 local = wrap(t);
    u64 i = segmentAt(local);
    f64 w0 = rateIn(i, local);
    // At most two extra periods of segments cover the remainder (the
    // guard protects against pathological rounding at boundaries).
    const u64 max_steps = 2 * (points_.size() + 1) + 4;
    for (u64 step = 0; step < max_steps; ++step) {
        f64 span = segmentEnd(i) - local;
        if (span <= 0.0)
            span = 0.0;
        const f64 t_end = t + span;
        const f64 end_local = wrap(t_end);
        const u64 end_i = segmentAt(end_local);
        const f64 w1 = rateIn(end_i, end_local);
        const f64 seg_joules = 0.5 * (w0 + w1) * span;
        if (seg_joules >= joules && seg_joules > 0.0) {
            // Solve p0*τ + m*τ²/2 = joules inside this segment. A
            // near-flat segment takes the rate as constant, unless it
            // starts dark: then the ramp alone (m > 0, since the
            // segment holds energy) pays for it.
            const f64 m = span > 0.0 ? (w1 - w0) / span : 0.0;
            f64 tau;
            if (std::fabs(m) < 1e-18) {
                tau = w0 == 0.0 ? std::sqrt(2.0 * joules / m)
                                : joules / w0;
            } else {
                const f64 disc = w0 * w0 + 2.0 * m * joules;
                tau = (std::sqrt(std::max(disc, 0.0)) - w0) / m;
            }
            tau = std::clamp(tau, 0.0, span);
            return seconds + tau;
        }
        joules -= seg_joules;
        seconds += span;
        t = t_end;
        local = end_local;
        i = end_i;
        w0 = w1;
        // Step over zero-width remainders at period boundaries.
        if (span == 0.0) {
            const f64 nudge = period_ * 1e-12;
            seconds += nudge;
            t += nudge;
            local = wrap(t);
            i = segmentAt(local);
            w0 = rateIn(i, local);
        }
    }
    // Rounding starved the walk: fall back to the mean rate.
    return seconds + joules / (periodJoules_ / period_);
}

// --- HarvestSupply --------------------------------------------------

HarvestSupply::HarvestSupply(HarvestModel model, f64 capacitance_farads,
                             f64 phase_seconds, f64 v_max, f64 v_min)
    : model_(std::move(model)),
      capacityNj_(0.5 * capacitance_farads
                  * (v_max * v_max - v_min * v_min) * 1e9),
      levelNj_(capacityNj_), harvestedNj_(capacityNj_),
      simSeconds_(phase_seconds)
{
    SONIC_ASSERT(capacitance_farads > 0.0);
    SONIC_ASSERT(v_max > v_min && v_min > 0.0);
    SONIC_ASSERT(phase_seconds >= 0.0);
}

bool
HarvestSupply::draw(f64 nj)
{
    SONIC_ASSERT(nj >= 0.0);
    if (levelNj_ >= nj) {
        levelNj_ -= nj;
        ++draws_;
        return true;
    }
    // Brown-out: the residual charge is below the regulator window
    // and is lost.
    levelNj_ = 0.0;
    ++draws_;
    return false;
}

f64
HarvestSupply::recharge()
{
    const f64 deficit_nj = capacityNj_ - levelNj_;
    const f64 dead =
        model_.secondsToHarvest(simSeconds_, deficit_nj * 1e-9);
    simSeconds_ += dead;
    wrapClock();
    harvestedNj_ += deficit_nj;
    levelNj_ = capacityNj_;
    return dead;
}

// --- EnvRegistry ----------------------------------------------------

EnvRegistry &
EnvRegistry::instance()
{
    static EnvRegistry registry;
    return registry;
}

namespace
{

/** Deterministic deployment phase: where in the environment cycle the
 * device boots. The only thing a seed perturbs. */
f64
seededPhase(const HarvestModel &model, u64 seed)
{
    return Rng(seed).uniform(0.0, model.periodSeconds());
}

/** The builder of a harvest-model environment. */
EnvBuilder
harvestBuild(HarvestModel model)
{
    return [model = std::move(model)](const EnvInstance &inst) {
        return std::make_unique<HarvestSupply>(
            model, inst.capacitanceFarads,
            seededPhase(model, inst.seed));
    };
}

} // namespace

EnvRegistry::EnvRegistry()
{
    {
        EnvMeta meta;
        meta.family = "bench";
        meta.description = "wall power, never fails";
        meta.alwaysOn = true;
        add("continuous", meta, [](const EnvInstance &) {
            return std::make_unique<arch::ContinuousPower>();
        });
    }
    {
        EnvMeta meta;
        meta.family = "bench";
        meta.description = "the paper's Powercast RF deployment: "
                           "constant 0.5 mW harvest into the capacitor";
        addHarvest("rf-paper", meta,
                   HarvestModel::constant(kRfPaperWatts));
    }
    {
        EnvMeta meta;
        meta.family = "deployment";
        meta.description =
            "ambient RF bursts: 2 s at 5 mW every minute over a "
            "0.05 mW floor";
        addHarvest("rf-bursty", meta,
                   HarvestModel({{0.0, 5e-3},
                                 {2.0, 5e-3},
                                 {2.5, 0.05e-3},
                                 {59.5, 0.05e-3}},
                                60.0));
    }
    {
        EnvMeta meta;
        meta.family = "deployment";
        meta.description =
            "solar diurnal cycle: dark nights, linear ramps to a "
            "12 mW midday peak";
        addHarvest("solar", meta,
                   HarvestModel({{0.0, 0.0},
                                 {21600.0, 0.0},
                                 {43200.0, 12e-3},
                                 {64800.0, 0.0}},
                                86400.0));
    }
    {
        EnvMeta meta;
        meta.family = "deployment";
        meta.description = "duty-cycled source: 1 s at 10 mW every "
                           "10 s, dead otherwise";
        addHarvest("duty-cycle", meta,
                   HarvestModel({{0.0, 10e-3},
                                 {1.0, 10e-3},
                                 {1.01, 0.0},
                                 {9.99, 0.0}},
                                10.0));
    }
    // Embedded measured-style traces: the playback pipeline is the
    // same one user trace files go through (addTraceFile), so these
    // double as its always-available smoke coverage.
    {
        std::string error;
        HarvestModel office;
        if (!parseTraceCsv(kTraceRfOfficeCsv, &office, &error))
            fatal("embedded trace trace-rf-office is invalid: ", error);
        EnvMeta meta;
        meta.family = "trace";
        meta.description = "embedded office RF power trace (CSV "
                           "playback)";
        addHarvest("trace-rf-office", meta, std::move(office));
    }
    {
        std::string error;
        HarvestModel cloudy;
        if (!parseTraceJson(kTraceSolarCloudyJson, &cloudy, &error))
            fatal("embedded trace trace-solar-cloudy is invalid: ",
                  error);
        EnvMeta meta;
        meta.family = "trace";
        meta.description = "embedded cloudy-day solar power trace "
                           "(JSON playback)";
        addHarvest("trace-solar-cloudy", meta, std::move(cloudy));
    }
}

void
EnvRegistry::add(std::string name, EnvMeta meta, EnvBuilder build)
{
    rows_.add(std::move(name), std::move(meta), std::move(build));
}

void
EnvRegistry::addHarvest(std::string name, EnvMeta meta,
                        HarvestModel model)
{
    add(std::move(name), std::move(meta), harvestBuild(std::move(model)));
}

bool
EnvRegistry::addTraceFile(const std::string &name,
                          const std::string &path, std::string *error)
{
    std::string scratch;
    std::string &err = error != nullptr ? *error : scratch;
    HarvestModel model;
    if (!loadTraceFile(path, &model, &err))
        return false;
    EnvMeta meta;
    meta.family = "trace";
    meta.description = "power trace playback from " + path;
    if (rows_.tryAdd(name, std::move(meta),
                     harvestBuild(std::move(model))))
        return true;
    err = "environment '" + name + "' is already registered";
    return false;
}

const EnvMeta *
EnvRegistry::meta(std::string_view name) const
{
    const EnvEntry *row = rows_.find(name);
    return row != nullptr ? &row->meta : nullptr;
}

const EnvEntry &
EnvRegistry::get(const EnvRef &ref) const
{
    return rows_.get(ref.empty() ? std::string_view("continuous")
                                 : std::string_view(ref.env));
}

std::unique_ptr<arch::PowerSupply>
EnvEntry::make(const EnvRef &ref, u64 seed) const
{
    EnvInstance inst;
    inst.capacitanceFarads = ref.capacitanceFarads > 0.0
        ? ref.capacitanceFarads
        : meta.defaultCapacitanceFarads;
    inst.seed = seed;
    return build(inst);
}

} // namespace sonic::env
