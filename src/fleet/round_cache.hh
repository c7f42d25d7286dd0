/**
 * @file
 * Round-trace memoization for million-device fleets.
 *
 * The soundness argument. During one pipeline round a device touches
 * its supply only through draw/grant/settle — pure capacitor-level
 * arithmetic — and at each reboot through elapse() + recharge(). The
 * environment clock therefore never influences *what the kernel does*:
 * every round starts with a full buffer, a brown-out always empties it
 * (so every mid-round recharge refills the identical capacity
 * deficit), and the op sequence between failures is a deterministic
 * function of the journal and kernel state alone. The clock only
 * decides *how long* each recharge takes. So the kernel-side trace of
 * a round is a pure function of
 *
 *     (net, impl, pipeline, usable capacitor energy, input index)
 *
 * — independent of the environment's harvest model, the seed-derived
 * deployment phase, and the round index (the ACK-loss draw is the one
 * exception, gated by pipeline::ackInvariant). A 1M-device plan then
 * pays kernel simulation only for the *distinct* round coordinates it
 * contains; every other device replays the memoized trace, driving its
 * own real HarvestSupply through the recorded elapse()/recharge()
 * walk so level, clock, dead-time and harvest accounting stay
 * bit-identical to the un-memoized run. HarvestSupply is final: a
 * supply that casts to it is one, so no subclass can change what the
 * replay's (direct) elapse()/recharge() calls do.
 *
 * Devices on always-on supplies never reboot and never touch a clock,
 * so their whole lifetime is memoizable at once (LifetimeCache); the
 * per-round machinery is for harvesting environments.
 *
 * Reads are lock-free (sharded open-addressed tables of atomically
 * published entries); inserts take a per-shard mutex. In debug builds
 * (or with FleetOptions::verifyCache) every hit re-runs the round and
 * cross-checks the full trace including the PR 3 NVM digest.
 *
 * Both caches count a miss once per key they publish (the first writer
 * wins) and every other lookup as a hit. Two workers that miss the same
 * key count one miss and one hit, as a serial run would, so the counts
 * do not depend on how the workers interleave.
 */

#ifndef SONIC_FLEET_ROUND_CACHE_HH
#define SONIC_FLEET_ROUND_CACHE_HH

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "env/environment.hh"
#include "util/types.hh"

namespace sonic::fleet
{

struct DeviceTelemetry;

/**
 * The coordinate a memoized round is keyed on. Fields are indices into
 * the owning FleetPlan's distribution lists (the cache lives for one
 * runFleet call, so plan-wide constants — profile, horizon, driver
 * limits — need no representation), plus the bit pattern of the
 * supply's usable buffer energy, which is the only supply parameter
 * the kernel trace can observe.
 */
struct RoundKey
{
    u32 netIndex = 0;
    u32 implIndex = 0;
    u32 pipelineIndex = 0;
    u32 inputIndex = 0;
    u64 capacityNjBits = 0;

    bool operator==(const RoundKey &other) const = default;

    /** FNV-1a over the field bytes (shard/slot selection only; lookups
     * compare full keys, so hash collisions cannot alias traces). */
    u64 hash() const;
};

/**
 * The clock-independent trace of one round: everything simulateDevice
 * accrues into telemetry, plus the elapse() walk needed to replay the
 * supply's clock, plus digests for debug cross-checking.
 */
struct RoundTrace
{
    f64 liveSeconds = 0.0;
    f64 energyJ = 0.0;
    f64 senseEnergyJ = 0.0;
    f64 radioEnergyJ = 0.0;
    f64 backoffSeconds = 0.0;

    /** Capacitor level when the round ended (post-settle). */
    f64 endLevelNj = 0.0;

    u64 reboots = 0;
    u32 txAttempts = 0;
    u32 txFailedAttempts = 0;
    bool completed = false;
    bool nonTerminating = false;
    bool delivered = false;
    bool txGaveUp = false;

    /** Verification digests (PR 3 NVM digest + logits digest). */
    u64 nvmDigest = 0;
    u64 logitsDigest = 0;

    /**
     * The uptime increments handed to PowerSupply::elapse, in call
     * order: one per reboot (immediately before that reboot's
     * recharge) plus the final end-of-round flush — reboots + 1
     * entries.
     */
    std::vector<f64> liveDeltas;
};

/**
 * Sharded, lock-free-read map from RoundKey to RoundTrace. Capacity is
 * bounded (the distinct-coordinate count of a plan is tiny — nets x
 * impls x pipelines x capacitors x inputs); a full shard silently
 * stops inserting, which costs speed, never correctness.
 */
class RoundCache
{
  public:
    RoundCache();
    ~RoundCache();

    RoundCache(const RoundCache &) = delete;
    RoundCache &operator=(const RoundCache &) = delete;

    /** Lock-free lookup, counted; nullptr on miss. The returned trace
     * is immutable and lives as long as the cache. */
    const RoundTrace *find(const RoundKey &key) const;

    /**
     * Publish a trace (first writer wins under a per-shard mutex; a
     * racing duplicate is discarded). Returns the resident entry, or
     * nullptr when the shard is full and the insert was skipped. A
     * publication, or an insert a full shard skips, counts one miss.
     */
    const RoundTrace *insert(const RoundKey &key, RoundTrace trace);

    /** @name Hit accounting (relaxed atomics, read after the run) */
    /// @{
    u64 misses() const { return misses_.load(std::memory_order_relaxed); }
    u64
    hits() const
    {
        return lookups_.load(std::memory_order_relaxed) - misses();
    }
    /// @}

    static constexpr u32 kShards = 64;
    static constexpr u32 kSlotsPerShard = 256;

  private:
    struct Node;
    struct Shard;

    std::unique_ptr<Shard[]> shards_;
    mutable std::atomic<u64> lookups_{0};
    std::atomic<u64> misses_{0};
};

/**
 * Whole-lifetime memoization for devices on always-on supplies: no
 * reboot, no clock, no phase — the entire DeviceTelemetry (modulo the
 * assignment) is a pure function of the assignment coordinate. Keyed
 * by plan-list indices like RoundKey. Lookups are rare (once per
 * device, and only for always-on environments), so a plain mutex-
 * guarded map suffices.
 */
class LifetimeCache
{
  public:
    struct Key
    {
        u32 netIndex = 0;
        u32 implIndex = 0;
        u32 envIndex = 0;
        u32 pipelineIndex = 0;

        bool operator<(const Key &o) const
        {
            return std::tie(netIndex, implIndex, envIndex,
                            pipelineIndex)
                 < std::tie(o.netIndex, o.implIndex, o.envIndex,
                            o.pipelineIndex);
        }
    };

    /** Counted lookup: a copy of the memoized lifetime; false on
     * miss. */
    bool find(const Key &key, DeviceTelemetry *out) const;

    /** Publish (first writer wins); a publication counts one miss. */
    void insert(const Key &key, const DeviceTelemetry &telemetry);

    u64 misses() const { return misses_.load(std::memory_order_relaxed); }
    u64
    hits() const
    {
        return lookups_.load(std::memory_order_relaxed) - misses();
    }

  private:
    mutable std::mutex mutex_;
    std::map<Key, std::unique_ptr<DeviceTelemetry>> entries_;
    mutable std::atomic<u64> lookups_{0};
    std::atomic<u64> misses_{0};
};

/**
 * A BorrowedSupply that records every elapse() increment — the capture
 * side of trace memoization. The recorded vector outlives the Device
 * (whose destructor issues the final elapse), so the caller owns it.
 */
class RecordingSupply : public env::BorrowedSupply
{
  public:
    RecordingSupply(arch::PowerSupply *inner, std::vector<f64> *deltas)
        : BorrowedSupply(inner), deltas_(deltas)
    {
    }

    void
    elapse(f64 live_seconds) override
    {
        deltas_->push_back(live_seconds);
        BorrowedSupply::elapse(live_seconds);
    }

  private:
    std::vector<f64> *deltas_;
};

/**
 * Replay a memoized round against the device's real supply: the
 * recorded elapse() deltas interleaved with forced-empty recharges,
 * then the final elapse and the recorded end-of-round level. Returns
 * the round's dead time, accumulated in the same order the un-memoized
 * Device would have (bit-identical sum).
 */
f64 replayRound(env::HarvestSupply &supply, const RoundTrace &trace);

} // namespace sonic::fleet

#endif // SONIC_FLEET_ROUND_CACHE_HH
