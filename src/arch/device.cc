#include "arch/device.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace sonic::arch
{

namespace
{

/** What the Device asks for when opening a lease: effectively "all you
 * can promise". Supplies clamp to what they can actually honor. */
constexpr f64 kLeaseAskNj = std::numeric_limits<f64>::infinity();
constexpr u64 kLeaseAskOps = ~u64{0};

} // namespace

Device::Device(EnergyProfile profile, std::unique_ptr<PowerSupply> power,
               DeviceConfig config)
    : profile_(profile), power_(std::move(power)),
      leaseEnabled_(!config.perOpPowerDraw)
{
    SONIC_ASSERT(power_ != nullptr);
    costs_ = profile_.table().data();
    refreshLayerBuckets();
}

Device::~Device()
{
    // Flush the uptime accrued since the last reboot (or the whole
    // run, if it never failed) into the supply's environment clock: a
    // supply that outlives this Device — a fleet lifetime powering a
    // sequence of inferences through BorrowedSupply views — must not
    // lag the device time it already served.
    settleLease();
    power_->elapse(liveSeconds() - liveSecondsNotified_);
}

void
Device::consumeSlow(f64 nj)
{
    settleLease();
    if (!power_->draw(nj)) {
        if (probe_ != nullptr)
            probe_->onPowerFailure(*this);
        throw PowerFailure();
    }
    if (leaseEnabled_) {
        const EnergyLease lease = power_->grant(kLeaseAskNj, kLeaseAskOps);
        leaseNj_ = lease.nj;
        leaseOps_ = lease.ops;
        grantedOps_ = lease.ops;
        leaseOutstanding_ = true;
        if (probe_ != nullptr)
            probe_->onLeaseGrant(*this, leaseNj_, leaseOps_);
    }
}

void
Device::settleLease() const
{
    // Every grant() is settled exactly once, even a zero-op grant — a
    // supply may have transferred budget out in grant() regardless.
    if (!leaseOutstanding_)
        return;
    power_->settle(leaseNj_, leaseUsedNj_, grantedOps_ - leaseOps_);
    if (probe_ != nullptr)
        probe_->onLeaseSettle(*this, leaseUsedNj_);
    leaseOutstanding_ = false;
    leaseOps_ = 0;
    grantedOps_ = 0;
    leaseNj_ = 0.0;
    leaseUsedNj_ = 0.0;
}

u16
Device::registerLayer(const std::string &name)
{
    const u16 id = stats_.registerLayer(name);
    // Bucket addresses are stable, but re-derive defensively in case a
    // future Stats changes storage.
    refreshLayerBuckets();
    return id;
}

void
Device::allocFram(u64 bytes, const std::string &what)
{
    framUsed_ += bytes;
    if (framUsed_ > kFramCapacityBytes) {
        fatal("FRAM exhausted allocating ", bytes, "B for '", what, "': ",
              framUsed_, "B used of ", kFramCapacityBytes, "B");
    }
}

void
Device::allocSram(u64 bytes, const std::string &what)
{
    sramUsed_ += bytes;
    if (sramUsed_ > kSramCapacityBytes) {
        fatal("SRAM exhausted allocating ", bytes, "B for '", what, "': ",
              sramUsed_, "B used of ", kSramCapacityBytes, "B");
    }
}

void
Device::freeFram(u64 bytes)
{
    SONIC_ASSERT(bytes <= framUsed_);
    framUsed_ -= bytes;
}

void
Device::freeSram(u64 bytes)
{
    SONIC_ASSERT(bytes <= sramUsed_);
    sramUsed_ -= bytes;
}

void
Device::registerNonVolatile(const NvmDigestible *nv)
{
    nonVolatiles_.push_back(nv);
}

void
Device::unregisterNonVolatile(const NvmDigestible *nv)
{
    auto it =
        std::find(nonVolatiles_.begin(), nonVolatiles_.end(), nv);
    if (it != nonVolatiles_.end())
        nonVolatiles_.erase(it);
}

u64
Device::nvmDigest() const
{
    // Registration order is the deterministic flash layout order (the
    // same workload always constructs its handles in the same order),
    // so two runs of the same workload digest the same region sequence.
    NvmDigest d;
    for (const auto *nv : nonVolatiles_)
        nv->digestInto(d);
    return d.value();
}

void
Device::reboot()
{
    // A reboot can be requested directly (tests, host tooling) with a
    // lease still open; book it before the supply recharges.
    settleLease();
    // However many PowerFailures were charged since the last reboot
    // (normally exactly one — a failing bulk charge counts once), this
    // models one power cycle.
    ++rebootCount_;
    // Advance the supply's environment clock by the uptime accrued
    // since the previous reboot, so a time-varying harvester recharges
    // at the harvest rate of the correct simulated moment.
    const f64 live = liveSeconds();
    power_->elapse(live - liveSecondsNotified_);
    liveSecondsNotified_ = live;
    const f64 dead = power_->recharge();
    deadSeconds_ += dead;
    if (probe_ != nullptr) {
        probe_->onRecharge(*this, dead);
        probe_->onReboot(*this, rebootCount_);
    }
}

} // namespace sonic::arch
