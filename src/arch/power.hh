/**
 * @file
 * Power supply models for the device: continuous bench power and the
 * deterministic fault injector that places a power failure at any
 * chosen operation. The capacitor-buffered energy harvester of the
 * paper's deployments is env::HarvestSupply (src/env).
 */

#ifndef SONIC_ARCH_POWER_HH
#define SONIC_ARCH_POWER_HH

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/logging.hh"
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
 * does, Tile-32 fails only on MNIST) is observed. One definition: the
 * environment subsystem's HarvestSupply and the tests' closed-form
 * capacitor reference both default to it, so a recalibration lands
 * everywhere at once.
 */
inline constexpr f64 kRegulatorVMax = 2.28;
inline constexpr f64 kRegulatorVMin = 2.213;

/**
 * The fault injector: a supply driven by an explicit failure-index
 * schedule. Draw i (0-based, counting every draw-call since
 * construction) fails iff i is in the schedule; outside it the supply
 * is continuous. With a period p > 0 the schedule repeats forever:
 * draw i fails iff i % p is in it, so {p - 1} with period p fails every
 * p-th draw. The verification oracle (src/verify) places finite
 * schedules at adversarial coordinates — bursts, commit-point
 * neighborhoods, shrunk counterexamples; the tests also sweep a single
 * failure over every operation index of a kernel, and use periodic
 * failures that never stop to reach the scheduler's non-termination
 * verdict.
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
                           u64 period = 0)
        : schedule_(std::move(failure_indices)), period_(period)
    {
        std::sort(schedule_.begin(), schedule_.end());
        schedule_.erase(std::unique(schedule_.begin(), schedule_.end()),
                        schedule_.end());
        SONIC_ASSERT(period_ == 0 || schedule_.empty()
                         || schedule_.back() < period_,
                     "failure index ", schedule_.back(),
                     " is not below the period ", period_);
        if (!schedule_.empty())
            nextFailure_ = schedule_.front();
    }

    bool
    draw(f64 nj) override
    {
        drawn_ += nj;
        if (ops_++ != nextFailure_)
            return true;
        advance();
        return false;
    }

    /** Lease every draw up to (excluding) the next scheduled failure. */
    EnergyLease
    grant(f64 max_nj, u64 max_ops) override
    {
        const u64 left =
            nextFailure_ == kNever ? max_ops : nextFailure_ - ops_;
        return {max_nj, std::min(max_ops, left)};
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

    /** Scheduled failures that actually fired so far. */
    u64 firedCount() const { return fired_; }

    /** Draw-call (== Device::consume call) cursor. */
    u64 drawsSoFar() const { return ops_; }

  private:
    /** nextFailure_ once a schedule without a period has run out. */
    static constexpr u64 kNever = ~u64{0};

    /** Move nextFailure_ to the failure after the one that just fired,
     * wrapping to the next repetition when a period is set. */
    void
    advance()
    {
        ++fired_;
        u64 repetition = nextFailure_ - schedule_[cursor_];
        if (++cursor_ == schedule_.size()) {
            if (period_ == 0) {
                nextFailure_ = kNever;
                return;
            }
            cursor_ = 0;
            repetition += period_;
        }
        nextFailure_ = repetition + schedule_[cursor_];
    }

    std::vector<u64> schedule_; ///< sorted, unique failure indices
    u64 period_;                ///< 0: the schedule runs once
    u64 nextFailure_ = kNever;  ///< draw index of the next failure
    u64 cursor_ = 0;            ///< schedule_ entry of nextFailure_
    u64 ops_ = 0;
    u64 fired_ = 0;
    f64 drawn_ = 0.0;
};

} // namespace sonic::arch

#endif // SONIC_ARCH_POWER_HH
