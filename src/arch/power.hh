/**
 * @file
 * Power supply models for the device: continuous bench power, a
 * capacitor-buffered energy harvester (the paper's deployment scenario),
 * and deterministic fault injectors used by the test suite to place a
 * power failure at any chosen operation.
 */

#ifndef SONIC_ARCH_POWER_HH
#define SONIC_ARCH_POWER_HH

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/types.hh"

namespace sonic::arch
{

/**
 * Thrown by Device::consume when the energy buffer empties. Unwinds to
 * the task scheduler, which models the reboot.
 */
class PowerFailure : public std::runtime_error
{
  public:
    PowerFailure() : std::runtime_error("power failure") {}
};

/**
 * A prepaid energy budget handed to the Device by its PowerSupply (the
 * "energy lease"). While a lease is open the Device charges operations
 * against it with plain arithmetic — no virtual call — and crosses the
 * virtual boundary again only when the lease runs out. A lease covers
 * at most `ops` draw-calls and at most `nj` nanojoules; `ops == 0`
 * means no lease was granted and every operation must go through
 * draw() individually (the legacy per-op path).
 */
struct EnergyLease
{
    f64 nj = 0.0; ///< energy budget; may be +infinity (unbounded)
    u64 ops = 0;  ///< draw-calls covered; 0 = no lease granted
};

/**
 * Abstract energy source. draw() is called for every charged operation
 * on the slow path; returning false means the device browns out
 * mid-operation. grant()/settle() lease the Device the draws the
 * supply can predict will succeed, so it runs the common case without
 * any virtual dispatch.
 *
 * Lease protocol contract (what keeps the fast path bit-identical to
 * per-op draws):
 *  - grant(max_nj, max_ops) returns a budget the supply promises to
 *    honor: every draw within it would have succeeded. A supply that
 *    would fail on the very next draw grants ops == 0.
 *  - The Device counts one lease op per consume call (the same unit a
 *    draw() call is), and subtracts each operation's energy from the
 *    lease in operation order — the identical floating-point sequence
 *    the supply itself would have computed.
 *  - settle(unused_nj, used_nj, used_ops) returns an open lease: the
 *    unconsumed energy goes back, the consumed energy and op count are
 *    booked. The Device always settles before any other supply entry
 *    point (draw, recharge, external inspection).
 */
class PowerSupply
{
  public:
    virtual ~PowerSupply() = default;

    /** Attempt to draw nj nanojoules; false means power failure. */
    virtual bool draw(f64 nj) = 0;

    /**
     * Open an energy lease of at most max_nj nanojoules covering at
     * most max_ops draw-calls.
     */
    virtual EnergyLease grant(f64 max_nj, u64 max_ops) = 0;

    /**
     * Close the current lease: return the unused remainder and book
     * what was consumed. Called exactly once per grant().
     */
    virtual void settle(f64 unused_nj, f64 used_nj, u64 used_ops) = 0;

    /**
     * Refill the buffer after a failure.
     * @return the dead (off/recharging) time in seconds.
     */
    virtual f64 recharge() = 0;

    /**
     * Notify the supply that `live_seconds` of simulated device
     * uptime elapsed since the previous notification. Time-varying
     * harvesters (src/env) advance their environment clock here; the
     * stationary supplies ignore it. Called by Device::reboot just
     * before recharge() — never on the per-operation path — so the
     * lease fast path stays free of virtual calls.
     */
    virtual void elapse(f64 live_seconds) { (void)live_seconds; }

    /** Usable buffer capacity in nanojoules (0 if unlimited). */
    virtual f64 capacityNj() const = 0;

    /** Total energy income so far in nanojoules (for IMpJ accounting). */
    virtual f64 harvestedNj() const = 0;
};

/** Wall power: never fails. Harvested energy equals drawn energy. */
class ContinuousPower : public PowerSupply
{
  public:
    bool
    draw(f64 nj) override
    {
        drawn_ += nj;
        return true;
    }

    /** Unbounded: grant everything that was asked for. */
    EnergyLease
    grant(f64 max_nj, u64 max_ops) override
    {
        return {max_nj, max_ops};
    }

    void
    settle(f64 /*unused_nj*/, f64 used_nj, u64 /*used_ops*/) override
    {
        drawn_ += used_nj;
    }

    f64 recharge() override { return 0.0; }
    f64 capacityNj() const override { return 0.0; }
    f64 harvestedNj() const override { return drawn_; }

  private:
    f64 drawn_ = 0.0;
};

/**
 * The effective usable regulator window of the paper's harvester
 * front-end (~0.09 J per farad of storage). Calibrated so that a
 * 100 uF capacitor sustains on the order of a few thousand
 * instructions per charge cycle — the regime in which the paper's
 * Fig. 9b completion/DNF pattern (Tile-8 completes, Tile-128 never
 * does, Tile-32 fails only on MNIST) is observed. One definition:
 * every capacitor-buffered supply (CapacitorPower here, the
 * environment subsystem's HarvestSupply) defaults to it, so a
 * recalibration lands everywhere at once.
 */
inline constexpr f64 kRegulatorVMax = 2.28;
inline constexpr f64 kRegulatorVMin = 2.213;

/**
 * A capacitor charged by a constant-power harvester (e.g., the paper's
 * Powercast RF setup). The usable buffer is E = 1/2 C (Vmax^2 - Vmin^2).
 * While operating, harvest income continues to trickle in; when the
 * buffer empties the device dies and recharges at the harvest power.
 */
class CapacitorPower : public PowerSupply
{
  public:
    /**
     * @param capacitance_farads storage capacitance
     * @param harvest_watts harvester income power
     * @param v_max regulator-on voltage
     * @param v_min brown-out voltage
     */
    CapacitorPower(f64 capacitance_farads, f64 harvest_watts,
                   f64 v_max = kRegulatorVMax,
                   f64 v_min = kRegulatorVMin);

    bool draw(f64 nj) override;

    /**
     * Hand the whole remaining charge out as the lease. The Device's
     * countdown then performs the very same subtraction sequence
     * CapacitorPower::draw would have, so the brown-out lands on the
     * bit-identical operation; settle() puts the remainder back.
     */
    EnergyLease
    grant(f64 /*max_nj*/, u64 max_ops) override
    {
        const f64 nj = levelNj_;
        levelNj_ = 0.0;
        return {nj, max_ops};
    }

    void
    settle(f64 unused_nj, f64 /*used_nj*/, u64 /*used_ops*/) override
    {
        levelNj_ += unused_nj;
    }

    f64 recharge() override;
    f64 capacityNj() const override { return capacityNj_; }
    f64 harvestedNj() const override { return harvestedNj_; }

    /** Remaining charge in nanojoules (diagnostics). */
    f64 levelNj() const { return levelNj_; }

  private:
    f64 harvestWatts_;
    f64 capacityNj_;
    f64 levelNj_;
    f64 harvestedNj_;
};

/**
 * Test injector: succeeds for exactly failAfter draws, fails once, then
 * behaves as continuous power. Sweeping failAfter over every operation
 * index of a kernel exhaustively tests crash consistency at every
 * possible failure point.
 */
class FailOnceAfterOps : public PowerSupply
{
  public:
    explicit FailOnceAfterOps(u64 fail_after) : failAfter_(fail_after) {}

    bool
    draw(f64 nj) override
    {
        drawn_ += nj;
        if (!failed_ && ops_++ == failAfter_) {
            failed_ = true;
            return false;
        }
        return true;
    }

    /** Lease exactly the draws that remain before the injected fault
     * (unbounded energy — this injector fails by op count). */
    EnergyLease
    grant(f64 max_nj, u64 max_ops) override
    {
        const u64 ops =
            failed_ ? max_ops : std::min(max_ops, failAfter_ - ops_);
        return {max_nj, ops};
    }

    void
    settle(f64 /*unused_nj*/, f64 used_nj, u64 used_ops) override
    {
        drawn_ += used_nj;
        ops_ += used_ops;
    }

    f64 recharge() override { return 0.0; }
    f64 capacityNj() const override { return 0.0; }
    f64 harvestedNj() const override { return drawn_; }

    bool triggered() const { return failed_; }

  private:
    u64 failAfter_;
    u64 ops_ = 0;
    bool failed_ = false;
    f64 drawn_ = 0.0;
};

/**
 * Oracle injector: a supply driven by an explicit failure-index trace.
 * Draw i (0-based, counting every draw-call since construction) fails
 * iff i is in the schedule; outside the schedule the supply is
 * continuous. Unlike the periodic injectors this can place
 * failures at arbitrary adversarial coordinates — bursts, commit-point
 * neighborhoods, shrunk counterexamples — which is what the
 * verification oracle (src/verify) sweeps.
 *
 * The schedule is sorted and deduplicated at construction; indices the
 * run never reaches simply do not fire (firedCount() reports how many
 * did). drawsSoFar() exposes the draw cursor, which in both power
 * accounting modes equals the number of Device::consume calls so far —
 * the coordinate system schedules are expressed in.
 */
class SchedulePower : public PowerSupply
{
  public:
    explicit SchedulePower(std::vector<u64> failure_indices = {},
                           f64 dead_seconds_per_recharge = 0.0)
        : schedule_(std::move(failure_indices)),
          deadSeconds_(dead_seconds_per_recharge)
    {
        std::sort(schedule_.begin(), schedule_.end());
        schedule_.erase(std::unique(schedule_.begin(), schedule_.end()),
                        schedule_.end());
    }

    bool
    draw(f64 nj) override
    {
        drawn_ += nj;
        const bool fail =
            next_ < schedule_.size() && ops_ == schedule_[next_];
        if (fail)
            ++next_;
        ++ops_;
        return !fail;
    }

    /** Lease every draw up to (excluding) the next scheduled failure. */
    EnergyLease
    grant(f64 max_nj, u64 max_ops) override
    {
        const u64 left = next_ < schedule_.size()
            ? schedule_[next_] - ops_
            : max_ops;
        return {max_nj, std::min(max_ops, left)};
    }

    void
    settle(f64 /*unused_nj*/, f64 used_nj, u64 used_ops) override
    {
        drawn_ += used_nj;
        ops_ += used_ops;
    }

    f64 recharge() override { return deadSeconds_; }
    f64 capacityNj() const override { return 0.0; }
    f64 harvestedNj() const override { return drawn_; }

    /** Scheduled failures that actually fired so far. */
    u64 firedCount() const { return next_; }

    /** Draw-call (== Device::consume call) cursor. */
    u64 drawsSoFar() const { return ops_; }

  private:
    std::vector<u64> schedule_; ///< sorted, unique failure indices
    f64 deadSeconds_;
    u64 ops_ = 0;
    u64 next_ = 0; ///< first schedule entry not yet fired
    f64 drawn_ = 0.0;
};

/**
 * Test injector: fails every period draws, forever. Models an extremely
 * small buffer with deterministic timing; recharge takes a fixed
 * simulated time.
 */
class FailEveryOps : public PowerSupply
{
  public:
    explicit FailEveryOps(u64 period, f64 dead_seconds_per_recharge = 0.0)
        : period_(period), deadSeconds_(dead_seconds_per_recharge)
    {
    }

    bool
    draw(f64 nj) override
    {
        drawn_ += nj;
        if (++ops_ >= period_) {
            ops_ = 0;
            return false;
        }
        return true;
    }

    /** Lease the draws left in the current period (the next one after
     * those fails; with period <= 1 every draw takes the slow path —
     * period 0 degenerates to failing on every single draw). */
    EnergyLease
    grant(f64 max_nj, u64 max_ops) override
    {
        const u64 left =
            ops_ + 1 >= period_ ? 0 : period_ - 1 - ops_;
        return {max_nj, std::min(max_ops, left)};
    }

    void
    settle(f64 /*unused_nj*/, f64 used_nj, u64 used_ops) override
    {
        drawn_ += used_nj;
        ops_ += used_ops;
    }

    f64 recharge() override { return deadSeconds_; }
    f64 capacityNj() const override { return 0.0; }
    f64 harvestedNj() const override { return drawn_; }

  private:
    u64 period_;
    f64 deadSeconds_;
    u64 ops_ = 0;
    f64 drawn_ = 0.0;
};

} // namespace sonic::arch

#endif // SONIC_ARCH_POWER_HH
