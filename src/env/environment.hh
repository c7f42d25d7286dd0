/**
 * @file
 * Harvested-energy environments: the deployment conditions a device
 * runs under, as data behind a string-keyed registry (a
 * util::Registry, like dnn::ModelZoo; `--trace` adds rows at run time).
 *
 * An environment names a power world — the paper's bench RF harvester,
 * a solar diurnal cycle, bursty ambient RF, a periodic duty-cycled
 * source, constant wall power, or the playback of a measured power
 * trace (src/env/traces.hh) — and builds a deterministic, seedable
 * arch::PowerSupply for it:
 *
 *     auto psu = env::EnvRegistry::instance().make(
 *         env::EnvRef{"solar", 1e-3}, seed);
 *
 * The harvesting environments share one physical core: a
 * piecewise-linear, periodic harvest-rate model (HarvestModel) feeding
 * the capacitor charge equation (E = 1/2 C (Vmax^2 - Vmin^2) usable
 * buffer, brown-out on empty, recharge by integrating the harvest rate
 * forward in simulated time). The resulting HarvestSupply honors the
 * energy-lease protocol (grant hands out the whole remaining charge,
 * settle returns the remainder), so the Device fast path stays
 * devirtualized and a leased run brown-outs on the bit-identical
 * operation a per-op-draw run would.
 *
 * Seeds perturb only deployment phase (where in the environment cycle
 * the device boots), so two devices with the same seed replay the
 * identical supply behavior — the determinism the fleet simulator and
 * the verification oracle rely on.
 */

#ifndef SONIC_ENV_ENVIRONMENT_HH
#define SONIC_ENV_ENVIRONMENT_HH

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arch/power.hh"
#include "util/registry.hh"
#include "util/types.hh"

namespace sonic::env
{

/**
 * Harvester income of the paper's RF setup (Powercast at 1 m, Sec. 8):
 * the constant rate the registered `rf-paper` environment charges its
 * capacitor at.
 */
constexpr f64 kRfPaperWatts = 0.5e-3;

/**
 * One environment-axis point: a registered environment name plus an
 * optional capacitor-size override (0 = the environment's default).
 * Carried by app::RunSpec and fleet::FleetPlan; an empty name means
 * wall power (EnvRegistry::make builds `continuous` for it).
 */
struct EnvRef
{
    std::string env;
    f64 capacitanceFarads = 0.0;

    bool empty() const { return env.empty(); }

    /** Display/CSV form: "solar" or "solar@50mF". */
    std::string label() const;

    bool
    operator==(const EnvRef &other) const
    {
        return env == other.env
            && capacitanceFarads == other.capacitanceFarads;
    }
};

/**
 * Parse an environment label of the form "name" or "name@<cap>" where
 * <cap> is a decimal capacitance with unit suffix (e.g. "100uF",
 * "1mF", "0.05F", "1e-06nF"). The unit folds into the decimal
 * exponent before a single correctly rounded conversion, so "100uF"
 * yields exactly the double of the literal 100e-6 and every label()
 * parses back to its EnvRef. Returns false with a diagnostic in *error
 * on bad syntax; the name itself is validated against the registry by
 * the caller.
 */
bool parseEnvRef(const std::string &text, EnvRef *out,
                 std::string *error);

/**
 * A periodic piecewise-linear harvest-rate model: income power as a
 * function of simulated time, wrapping every periodSeconds. The model
 * is the integrable core every harvesting environment shares — the
 * capacitor charge equation integrates it forward to find recharge
 * dead time.
 */
class HarvestModel
{
  public:
    /** One control point: harvest power at a time offset. */
    struct Point
    {
        f64 seconds = 0.0;
        f64 watts = 0.0;
    };

    HarvestModel() = default;

    /**
     * Build from control points over [0, period). Points must start at
     * 0, be strictly increasing, stay below the period and carry
     * non-negative power; the rate interpolates linearly between
     * points and wraps from the last point back to the first. The
     * model must harvest strictly positive energy per period (a
     * dead-forever environment cannot recharge anything). Violations
     * are fatal configuration errors.
     */
    HarvestModel(std::vector<Point> points, f64 period_seconds);

    /** A constant-rate model (the paper's bench RF harvester). */
    static HarvestModel constant(f64 watts);

    /** Instantaneous harvest power at simulated time t (wraps). */
    f64 watts(f64 t) const;

    /** Energy harvested over [t0, t0 + dt], in joules. */
    f64 energyJoules(f64 t0, f64 dt) const;

    /**
     * Time needed from t0 to harvest `joules` (the recharge
     * integral's inverse). Exact within each linear segment.
     */
    f64 secondsToHarvest(f64 t0, f64 joules) const;

    const std::vector<Point> &points() const { return points_; }
    f64 periodSeconds() const { return period_; }
    f64 energyJoulesPerPeriod() const { return periodJoules_; }

    /**
     * Simulated time t folded into the period: bit for bit
     * std::fmod(t, period), plus one period when that is negative.
     * On [0, period) that is t itself and on [period, 2 period) it is
     * t - period, exact by the Sterbenz lemma, so only times beyond
     * two periods (or negative ones) pay for the fmod.
     */
    f64
    wrap(f64 t) const
    {
        if (t >= 0.0 && t < period_)
            return t;
        if (t >= period_ && t < 2.0 * period_)
            return t - period_;
        const f64 local = std::fmod(t, period_);
        return local < 0.0 ? local + period_ : local;
    }

  private:
    /** Segment rate/integral helpers (index i spans point i → i+1,
     * the last segment wrapping to points_[0] at period_). They are
     * defined here so the walk inlines them. */
    f64
    segmentEnd(u64 i) const
    {
        return i + 1 < points_.size() ? points_[i + 1].seconds : period_;
    }

    f64
    segmentEndWatts(u64 i) const
    {
        // The final segment wraps to the first point's rate at t = period.
        return i + 1 < points_.size() ? points_[i + 1].watts
                                      : points_.front().watts;
    }

    /** The segment holding wrapped time `local`: the last control
     * point at or before it (the first point when none is). */
    u64
    segmentAt(f64 local) const
    {
        const auto after = std::upper_bound(
            points_.begin() + 1, points_.end(), local,
            [](f64 x, const Point &p) { return x < p.seconds; });
        return static_cast<u64>(after - points_.begin()) - 1;
    }

    /** The rate at wrapped time `local` inside segment i. */
    f64
    rateIn(u64 i, f64 local) const
    {
        const f64 w0 = points_[i].watts;
        const f64 dw = segmentEndWatts(i) - w0;
        const f64 dt = local - points_[i].seconds;
        // On a flat segment, or exactly on its control point, the
        // product is a zero whatever scales it, so the rate is w0
        // itself: w0 + ±0 is w0 for every w0 but -0.0, whose sum takes
        // the product's sign. dt and dt / (t1 - t0) carry the same sign
        // (t1 > t0), so skipping the division keeps even that zero's
        // sign.
        if (dw == 0.0 || dt == 0.0)
            return std::signbit(w0) ? w0 + dw * dt : w0;
        return w0 + dw * (dt / (segmentEnd(i) - points_[i].seconds));
    }

    std::vector<Point> points_{{0.0, 0.0}};
    f64 period_ = 1.0;
    f64 periodJoules_ = 0.0;
};

/**
 * A capacitor-buffered harvester in a time-varying environment. The
 * lease grants the whole remaining charge and the remainder settles
 * back; a brown-out loses the residual charge below the regulator
 * window; recharge integrates the HarvestModel forward from the
 * current simulated time, and Device::reboot's elapse() notifications
 * keep that clock aligned with device uptime. Under a constant model
 * this is the closed-form capacitor the tests keep as its reference
 * (testutil::CapacitorPower).
 */
class HarvestSupply final : public arch::PowerSupply
{
  public:
    HarvestSupply(HarvestModel model, f64 capacitance_farads,
                  f64 phase_seconds = 0.0,
                  f64 v_max = arch::kRegulatorVMax,
                  f64 v_min = arch::kRegulatorVMin);

    bool draw(f64 nj) override;

    /** Hand the whole remaining charge out; settle() returns the rest. */
    arch::EnergyLease
    grant(f64 /*max_nj*/, u64 max_ops) override
    {
        const f64 nj = levelNj_;
        levelNj_ = 0.0;
        return {nj, max_ops};
    }

    void
    settle(f64 unused_nj, f64 /*used_nj*/, u64 used_ops) override
    {
        levelNj_ += unused_nj;
        draws_ += used_ops;
    }

    f64 recharge() override;

    /**
     * Advance the environment clock by device uptime. The clock wraps
     * into [0, period): the harvest model is periodic (watts() and
     * secondsToHarvest() fold every time through HarvestModel::wrap
     * first, so wrapping is exactly behavior-preserving), and an
     * unwrapped accumulator loses f64 precision once uptime dwarfs the
     * period — at extreme uptimes small increments would be absorbed
     * entirely and the phase would drift. Zero and negative increments
     * are no-ops.
     */
    void
    elapse(f64 live_seconds) override
    {
        if (live_seconds <= 0.0)
            return;
        simSeconds_ += live_seconds;
        wrapClock();
    }

    f64 capacityNj() const override { return capacityNj_; }
    f64 harvestedNj() const override { return harvestedNj_; }

    /** @name Diagnostics and oracle instrumentation */
    /// @{
    f64 levelNj() const { return levelNj_; }
    f64 simSeconds() const { return simSeconds_; }
    const HarvestModel &model() const { return model_; }

    /** Draw-call (== Device::consume call) cursor. A failing draw
     * counts too, so from TraceProbe::onPowerFailure the brown-out's
     * own coordinate is drawsSoFar() - 1. */
    u64 drawsSoFar() const { return draws_; }

    /**
     * Round-replay hook for the fleet round cache
     * (src/fleet/round_cache.hh). A memoized round replays a device's
     * kernel trace arithmetically instead of re-running the simulator,
     * but the supply's clock walk must stay real: the replayer calls
     * elapse() with the recorded uptime deltas, forces the level a
     * brown-out would have left (0 before each recharge(), the
     * recorded end-of-round level after the last elapse), and lets
     * recharge() integrate the harvest model from the true simulated
     * time. Level, clock and harvested-energy evolution are then
     * bit-identical to the un-memoized run. Not for use outside
     * replay: it bypasses the draw/settle accounting.
     */
    void setLevelNjForReplay(f64 nj) { levelNj_ = nj; }
    /// @}

  private:
    /** Reduce the clock into [0, period) (see elapse()). */
    void
    wrapClock()
    {
        if (simSeconds_ >= model_.periodSeconds())
            simSeconds_ = model_.wrap(simSeconds_);
    }

    HarvestModel model_;
    f64 capacityNj_;
    f64 levelNj_;
    f64 harvestedNj_;
    f64 simSeconds_;
    u64 draws_ = 0;
};

/**
 * A non-owning view of another supply: forwards every PowerSupply
 * entry point to the borrowed instance. arch::Device takes ownership
 * of its supply, but a fleet device's environment must outlive the
 * sequence of Devices that run its inferences (the capacitor level
 * and the environment clock persist across them) — each inference
 * hands the Device a fresh BorrowedSupply over the long-lived one.
 */
class BorrowedSupply : public arch::PowerSupply
{
  public:
    explicit BorrowedSupply(arch::PowerSupply *inner) : inner_(inner) {}

    bool draw(f64 nj) override { return inner_->draw(nj); }

    arch::EnergyLease
    grant(f64 max_nj, u64 max_ops) override
    {
        return inner_->grant(max_nj, max_ops);
    }

    void
    settle(f64 unused_nj, f64 used_nj, u64 used_ops) override
    {
        inner_->settle(unused_nj, used_nj, used_ops);
    }

    f64 recharge() override { return inner_->recharge(); }
    void elapse(f64 live_seconds) override { inner_->elapse(live_seconds); }
    f64 capacityNj() const override { return inner_->capacityNj(); }
    f64 harvestedNj() const override { return inner_->harvestedNj(); }

  private:
    arch::PowerSupply *inner_;
};

/** Registered environment metadata (no supply is built to read it). */
struct EnvMeta
{
    /** Provenance bucket: "bench", "deployment", "trace", "custom". */
    std::string family = "custom";
    std::string description;

    /** Capacitor size when the EnvRef does not override it. */
    f64 defaultCapacitanceFarads = 100e-6;

    /** True for supplies that can never brown out ("continuous"). */
    bool alwaysOn = false;
};

/** Resolved build parameters handed to an environment builder. */
struct EnvInstance
{
    f64 capacitanceFarads = 100e-6;
    /** Deployment seed; perturbs phase only (see file comment). */
    u64 seed = 0;
};

/** Builds the supply for one resolved instance. */
using EnvBuilder = std::function<std::unique_ptr<arch::PowerSupply>(
    const EnvInstance &)>;

/** One registered environment. */
struct EnvEntry
{
    std::string name;
    EnvMeta meta;
    EnvBuilder build;

    /** Build the supply for `ref` at `seed`: the ref's capacitance
     * override, or the registered default. */
    std::unique_ptr<arch::PowerSupply> make(const EnvRef &ref,
                                            u64 seed) const;
};

/**
 * The process-wide environment registry: a util::Registry of EnvEntry
 * rows (unique names, fatal on duplicates, thread-safe). Built-ins:
 *
 *   continuous   — wall power, never fails (family "bench")
 *   rf-paper     — the paper's Powercast RF deployment: constant
 *                  0.5 mW income into the capacitor (family "bench")
 *   rf-bursty    — ambient RF arriving in short high-power bursts
 *                  over a weak floor (family "deployment")
 *   solar        — a parametric diurnal cycle: zero at night, linear
 *                  ramps to a midday peak (family "deployment")
 *   duty-cycle   — a periodically keyed transmitter: full power for a
 *                  fixed on-window, dead otherwise ("deployment")
 *   trace-rf-office, trace-solar-cloudy
 *                — embedded measured-style traces played back through
 *                  the trace pipeline (family "trace")
 */
class EnvRegistry
{
  public:
    static EnvRegistry &instance();

    /** Register an environment; duplicate names are fatal. */
    void add(std::string name, EnvMeta meta, EnvBuilder build);

    /**
     * Register a harvest-model environment (the common case): the
     * builder wires the model into a HarvestSupply with the seeded
     * deployment phase.
     */
    void addHarvest(std::string name, EnvMeta meta, HarvestModel model);

    /**
     * Parse a CSV/JSON power trace file (env/traces.hh) and register
     * it as a playback environment. False with a diagnostic in *error
     * on parse failure or duplicate name; nothing is registered.
     */
    bool addTraceFile(const std::string &name, const std::string &path,
                      std::string *error = nullptr);

    bool contains(std::string_view name) const { return rows_.contains(name); }

    /** Registered metadata; nullptr if unknown. Pointer stays valid
     * for the life of the process. */
    const EnvMeta *meta(std::string_view name) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const { return rows_.names(); }

    /** Comma-separated names(), for error messages. */
    std::string availableList() const { return rows_.availableList(); }

    /** The entry a reference names (the empty ref is `continuous`);
     * an unknown name is fatal, listing the registered ones. */
    const EnvEntry &get(const EnvRef &ref) const;

    /** Build the supply for an environment reference at a seed
     * (get(ref).make(ref, seed)). */
    std::unique_ptr<arch::PowerSupply>
    make(const EnvRef &ref, u64 seed) const
    {
        return get(ref).make(ref, seed);
    }

  private:
    EnvRegistry();

    util::Registry<EnvEntry> rows_{"environment"};
};

/** Format a capacitance for labels ("100uF", "50mF", "1.5F"). */
std::string formatCapacitance(f64 farads);

} // namespace sonic::env

#endif // SONIC_ENV_ENVIRONMENT_HH
