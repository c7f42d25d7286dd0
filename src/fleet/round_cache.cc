#include "fleet/round_cache.hh"

#include "fleet/fleet.hh"

namespace sonic::fleet
{

// --- RoundKey -------------------------------------------------------

u64
RoundKey::hash() const
{
    u64 h = 0xcbf29ce484222325ull;
    const auto fold = [&h](u64 v, u32 bytes) {
        for (u32 b = 0; b < bytes; ++b) {
            h ^= (v >> (b * 8)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    fold(netIndex, 4);
    fold(implIndex, 4);
    fold(pipelineIndex, 4);
    fold(inputIndex, 4);
    fold(capacityNjBits, 8);
    return h;
}

// --- RoundCache -----------------------------------------------------

struct RoundCache::Node
{
    RoundKey key;
    RoundTrace trace;
};

struct RoundCache::Shard
{
    /** Published entries: readers acquire-load and compare full keys;
     * a null slot terminates the probe (slots are never recycled). */
    std::atomic<Node *> slots[kSlotsPerShard] = {};

    /** Insert-side state: the mutex serializes publication, the node
     * list owns the allocations. */
    std::mutex mutex;
    std::vector<std::unique_ptr<Node>> nodes;
};

RoundCache::RoundCache() : shards_(new Shard[kShards]) {}

RoundCache::~RoundCache() = default;

const RoundTrace *
RoundCache::find(const RoundKey &key) const
{
    lookups_.fetch_add(1, std::memory_order_relaxed);
    const u64 h = key.hash();
    const Shard &shard = shards_[h % kShards];
    const u64 base = h / kShards;
    for (u32 probe = 0; probe < kSlotsPerShard; ++probe) {
        const u32 slot =
            static_cast<u32>((base + probe) % kSlotsPerShard);
        const Node *node =
            shard.slots[slot].load(std::memory_order_acquire);
        if (node == nullptr)
            return nullptr;
        if (node->key == key)
            return &node->trace;
    }
    return nullptr;
}

const RoundTrace *
RoundCache::insert(const RoundKey &key, RoundTrace trace)
{
    const u64 h = key.hash();
    Shard &shard = shards_[h % kShards];
    const u64 base = h / kShards;

    std::lock_guard<std::mutex> lock(shard.mutex);
    for (u32 probe = 0; probe < kSlotsPerShard; ++probe) {
        const u32 slot =
            static_cast<u32>((base + probe) % kSlotsPerShard);
        Node *resident =
            shard.slots[slot].load(std::memory_order_relaxed);
        if (resident != nullptr) {
            if (resident->key == key)
                return &resident->trace; // racing duplicate: first wins
            continue;
        }
        auto node = std::make_unique<Node>();
        node->key = key;
        node->trace = std::move(trace);
        Node *raw = node.get();
        shard.nodes.push_back(std::move(node));
        shard.slots[slot].store(raw, std::memory_order_release);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return &raw->trace;
    }
    // Shard full: skip the insert. Purely a performance loss — the
    // caller already holds the freshly computed trace.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
}

// --- LifetimeCache --------------------------------------------------

bool
LifetimeCache::find(const Key &key, DeviceTelemetry *out) const
{
    lookups_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    *out = *it->second;
    return true;
}

void
LifetimeCache::insert(const Key &key, const DeviceTelemetry &telemetry)
{
    auto copy = std::make_unique<DeviceTelemetry>(telemetry);
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.emplace(key, std::move(copy)).second) // first writer wins
        misses_.fetch_add(1, std::memory_order_relaxed);
}

// --- Replay ---------------------------------------------------------

f64
replayRound(env::HarvestSupply &supply, const RoundTrace &trace)
{
    // Mirror Device::reboot exactly: elapse the uptime since the last
    // notification, then recharge. The level a brown-out leaves is
    // always 0 (the residual charge below the regulator window is
    // lost), so each recharge refills the full capacity deficit from
    // the true simulated time — the clock, dead-time and harvested-
    // energy arithmetic is the bit-identical sequence the un-memoized
    // run performs.
    f64 dead = 0.0;
    for (u64 r = 0; r < trace.reboots; ++r) {
        supply.elapse(trace.liveDeltas[r]);
        supply.setLevelNjForReplay(0.0);
        dead += supply.recharge();
    }
    supply.elapse(trace.liveDeltas[trace.reboots]);
    supply.setLevelNjForReplay(trace.endLevelNj);
    return dead;
}

} // namespace sonic::fleet
