/**
 * @file
 * The intermittently-powered device model. A Device owns an energy
 * profile, a power supply, execution statistics and the registry of
 * non-volatile (FRAM) regions its NVM digest walks. Every charged
 * operation a kernel performs goes through Device::consume, which may
 * throw PowerFailure when the energy buffer empties — the simulated
 * equivalent of the MCU browning out mid-instruction.
 */

#ifndef SONIC_ARCH_DEVICE_HH
#define SONIC_ARCH_DEVICE_HH

#include <memory>
#include <string>
#include <vector>

#include "arch/energy_profile.hh"
#include "arch/nvm_digest.hh"
#include "arch/op.hh"
#include "arch/power.hh"
#include "arch/probe.hh"
#include "arch/stats.hh"
#include "util/types.hh"

namespace sonic::arch
{

/** The modelled MCU (MSP430FR5994): maximum clock and memory sizes.
 * An allocation past either capacity is fatal. */
inline constexpr f64 kClockHz = 16e6;
inline constexpr u64 kFramCapacityBytes = 256 * 1024;
inline constexpr u64 kSramCapacityBytes = 4 * 1024;

/** How a Device is built. */
struct DeviceConfig
{
    /**
     * Debug/reference mode: disable energy leasing so every consume
     * crosses the virtual PowerSupply::draw boundary individually.
     * The equivalence suite runs both modes and asserts bit-identical
     * outputs, stats, reboot counts and failure indices.
     */
    bool perOpPowerDraw = false;
};

/**
 * The simulated MCU plus its power system. Not thread-safe; one Device
 * per experiment.
 */
class Device
{
  public:
    Device(EnergyProfile profile, std::unique_ptr<PowerSupply> power,
           DeviceConfig config = {});
    ~Device();

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    /**
     * Charge count instances of op to the current attribution bucket.
     *
     * This is the simulation's innermost loop: the common case is a
     * handful of direct counter increments plus a countdown against the
     * current energy lease — no virtual call, no bucket lookup. The
     * virtual PowerSupply boundary is crossed only in consumeSlow(),
     * when the lease is exhausted (or leasing is disabled). Because op
     * costs are deterministic and the lease countdown performs the very
     * subtraction sequence the supply would have, a brown-out lands on
     * the bit-identical operation either way.
     *
     * One consume call counts as one draw regardless of count, exactly
     * as one PowerSupply::draw call did — the unit SchedulePower
     * counts.
     *
     * @throws PowerFailure if the supply cannot deliver the energy.
     */
    void
    consume(Op op, u64 count = 1)
    {
        const EnergyProfile::Cost &c = costs_[static_cast<u32>(op)];
        const u64 cycles = c.cycles * count;
        const f64 nj = c.nanojoules * static_cast<f64>(count);
        totalCycles_ += cycles;
        const auto op_idx = static_cast<u32>(op);
        bucket_->count[op_idx] += count;
        bucket_->cycles[op_idx] += cycles;
        bucket_->nanojoules[op_idx] += nj;
        if (leaseOps_ != 0 && leaseNj_ >= nj) [[likely]] {
            --leaseOps_;
            leaseNj_ -= nj;
            leaseUsedNj_ += nj;
            return;
        }
        consumeSlow(nj);
    }

    /** @name Attribution */
    /// @{
    u16 registerLayer(const std::string &name);

    void
    setLayer(u16 layer)
    {
        if (probe_ != nullptr && layer != layer_)
            probe_->onLayer(*this, layer);
        layer_ = layer;
        refreshLayerBuckets();
    }

    void
    setPart(Part part)
    {
        if (probe_ != nullptr && part != part_)
            probe_->onPart(*this, part);
        part_ = part;
        bucket_ = &(*layerBuckets_)[static_cast<u32>(part_)];
    }

    u16 currentLayer() const { return layer_; }
    Part currentPart() const { return part_; }
    /// @}

    /** @name Memory accounting and the FRAM region registry */
    /// @{
    void allocFram(u64 bytes, const std::string &what);
    void allocSram(u64 bytes, const std::string &what);
    void freeFram(u64 bytes);
    void freeSram(u64 bytes);
    u64 framBytesUsed() const { return framUsed_; }
    u64 sramBytesUsed() const { return sramUsed_; }
    void registerNonVolatile(const NvmDigestible *nv);
    void unregisterNonVolatile(const NvmDigestible *nv);
    /// @}

    /** @name NVM snapshot digesting (oracle instrumentation) */
    /// @{

    /**
     * Digest the whole registered non-volatile (FRAM) region in
     * registration order. Pull-based and never called by the
     * simulation itself: the cost exists only when a caller (a
     * RebootDigestProbe, golden-file emitter, test) asks for it.
     */
    u64 nvmDigest() const;
    /// @}

    /** @name Observation (src/trace, src/verify) */
    /// @{

    /**
     * Install/clear the trace probe (non-owning; the caller keeps it
     * alive for the Device's lifetime or until cleared). The probe is
     * the device's single observer channel: tracing, the oracle's
     * commit/boundary/brown-out recorders and NVM snapshot capture are
     * all probes. Null — the default — keeps every call site on its
     * single-branch fast path; consume() itself never checks the probe
     * at all.
     */
    void setProbe(TraceProbe *probe) { probe_ = probe; }
    TraceProbe *probe() const { return probe_; }
    /// @}

    /**
     * Model the reboot after a power failure: recharge the buffer and
     * account dead time. Called by the scheduler.
     */
    void reboot();

    /** @name Measurements */
    /// @{
    Stats &stats() { return stats_; }
    const Stats &stats() const { return stats_; }
    u64 cycles() const { return totalCycles_; }
    f64 liveSeconds() const
    {
        return static_cast<f64>(totalCycles_) / kClockHz;
    }
    f64 deadSeconds() const { return deadSeconds_; }
    f64 totalSeconds() const { return liveSeconds() + deadSeconds_; }
    u64 rebootCount() const { return rebootCount_; }
    f64 consumedJoules() const { return stats_.totalNanojoules() * 1e-9; }
    /// @}

    /**
     * Direct supply access. Settles (and drops) any open lease first so
     * external inspection — harvestedNj for IMpJ, levelNj diagnostics —
     * always sees fully booked supply state; the next consume opens a
     * fresh lease.
     */
    PowerSupply &
    power()
    {
        settleLease();
        return *power_;
    }

    const PowerSupply &
    power() const
    {
        settleLease();
        return *power_;
    }

    const EnergyProfile &profile() const { return profile_; }

  private:
    /**
     * Lease-miss path: settle the spent lease, pay for this operation
     * through the virtual draw, and open a fresh lease. Out of line to
     * keep consume()'s inlined body minimal.
     */
    void consumeSlow(f64 nj);

    /** Close the open lease, returning unused budget to the supply. */
    void settleLease() const;

    /** Re-derive the cached bucket pair of layer_ (bounds-checked) and
     * the bucket of part_ within it. */
    void
    refreshLayerBuckets()
    {
        layerBuckets_ = &stats_.layerBuckets(layer_);
        bucket_ = &(*layerBuckets_)[static_cast<u32>(part_)];
    }

    EnergyProfile profile_;
    std::unique_ptr<PowerSupply> power_;
    Stats stats_;

    /** Cost table base pointer (profile_ is immutable after build). */
    const EnergyProfile::Cost *costs_ = nullptr;

    u16 layer_ = 0;
    Part part_ = Part::Control;

    /** Cached buckets of layer_ and the (layer_, part_) counters
     * within them — Stats buckets are address-stable, so the pair is
     * refreshed only on layer changes and bucket_ on part changes. */
    Stats::LayerBuckets *layerBuckets_ = nullptr;
    OpCounters *bucket_ = nullptr;

    /**
     * The open energy lease (mutable: settling from const accessors is
     * logically non-observable). leaseOps_/leaseNj_ count down what
     * remains; leaseUsedNj_ accumulates the energy settle() must book
     * (the exact += sequence a per-op supply would have summed), and
     * the op usage is derived as grantedOps_ - leaseOps_.
     */
    const bool leaseEnabled_;
    mutable bool leaseOutstanding_ = false;
    mutable u64 leaseOps_ = 0;
    mutable u64 grantedOps_ = 0;
    mutable f64 leaseNj_ = 0.0;
    mutable f64 leaseUsedNj_ = 0.0;

    u64 totalCycles_ = 0;
    f64 deadSeconds_ = 0.0;
    /** Uptime already reported through PowerSupply::elapse. */
    f64 liveSecondsNotified_ = 0.0;
    u64 rebootCount_ = 0;

    u64 framUsed_ = 0;
    u64 sramUsed_ = 0;
    std::vector<const NvmDigestible *> nonVolatiles_;
    TraceProbe *probe_ = nullptr;
};

/**
 * Snapshots nvmDigest() at the end of every reboot into a caller-owned
 * chain, so state divergence is pinned to the reboot boundary where it
 * first appears (the oracle's per-run digest chain).
 */
class RebootDigestProbe : public TraceProbe
{
  public:
    explicit RebootDigestProbe(std::vector<u64> &chain) : chain_(chain) {}

    void
    onReboot(const Device &dev, u64) override
    {
        chain_.push_back(dev.nvmDigest());
    }

  private:
    std::vector<u64> &chain_;
};

/** RAII: set the device's attribution layer, restoring on scope exit. */
class ScopedLayer
{
  public:
    ScopedLayer(Device &dev, u16 layer)
        : dev_(dev), saved_(dev.currentLayer())
    {
        dev_.setLayer(layer);
    }
    ~ScopedLayer() { dev_.setLayer(saved_); }

    ScopedLayer(const ScopedLayer &) = delete;
    ScopedLayer &operator=(const ScopedLayer &) = delete;

  private:
    Device &dev_;
    u16 saved_;
};

/** RAII: set the device's attribution part, restoring on scope exit. */
class ScopedPart
{
  public:
    ScopedPart(Device &dev, Part part) : dev_(dev), saved_(dev.currentPart())
    {
        dev_.setPart(part);
    }
    ~ScopedPart() { dev_.setPart(saved_); }

    ScopedPart(const ScopedPart &) = delete;
    ScopedPart &operator=(const ScopedPart &) = delete;

  private:
    Device &dev_;
    Part saved_;
};

} // namespace sonic::arch

#endif // SONIC_ARCH_DEVICE_HH
