/**
 * @file
 * Execution statistics: per-layer, per-part (kernel vs control), per-op
 * counters of invocations, cycles, and energy. These counters are the
 * measurement substrate for every figure in the paper's evaluation:
 * Fig. 9 (live time per layer), Fig. 10 (kernel/control split), Fig. 11
 * (energy), and Fig. 12 (energy per op class per layer).
 */

#ifndef SONIC_ARCH_STATS_HH
#define SONIC_ARCH_STATS_HH

#include <array>
#include <deque>
#include <string>
#include <vector>

#include "arch/op.hh"
#include "util/types.hh"

namespace sonic::arch
{

/**
 * Whether an operation belongs to a layer's inner compute loop (kernel)
 * or to intermittence/control machinery (index updates, transitions,
 * buffer swaps, fixed-point renormalization shifts). Fig. 10's split.
 */
enum class Part : u8
{
    Kernel,
    Control,
    NumParts
};

constexpr u32 kNumParts = static_cast<u32>(Part::NumParts);

/** Aggregated counters for one (layer, part) bucket. */
struct OpCounters
{
    std::array<u64, kNumOps> count{};
    std::array<u64, kNumOps> cycles{};
    std::array<f64, kNumOps> nanojoules{};

    u64 totalCycles() const;
    f64 totalNanojoules() const;
};

/**
 * Statistics accumulator owned by a Device. Layers are registered by
 * name; layer 0 always exists and is named "other".
 */
class Stats
{
  public:
    Stats();

    /** Register an attribution layer (e.g., "conv1"); returns its id. */
    u16 registerLayer(const std::string &name);

    u32 numLayers() const { return static_cast<u32>(layers_.size()); }
    const std::string &layerName(u16 layer) const;

    const OpCounters &bucket(u16 layer, Part part) const;

    /** One layer's buckets, indexed by Part. */
    using LayerBuckets = std::array<OpCounters, kNumParts>;

    /**
     * Mutable buckets of one layer for the Device's batched-accounting
     * fast path: the Device caches this pair per layer and bumps the
     * counters directly, so the bounds check and layer indexing are
     * paid once per layer change and a part switch is an offset into
     * the pair. Bucket storage is a deque, so the reference stays
     * valid across registerLayer().
     */
    LayerBuckets &layerBuckets(u16 layer);

    /** Sum over parts for one layer. */
    u64 layerCycles(u16 layer) const;
    f64 layerNanojoules(u16 layer) const;

    /** Per-op totals for one layer (both parts). */
    u64 layerOpCount(u16 layer, Op op) const;
    f64 layerOpNanojoules(u16 layer, Op op) const;

    /** Global totals. */
    u64 totalCycles() const;
    f64 totalNanojoules() const;
    u64 opCount(Op op) const;
    f64 opNanojoules(Op op) const;

  private:
    std::vector<std::string> layers_;
    // buckets_[layer][part]; deque for address stability (see
    // layerBuckets)
    std::deque<LayerBuckets> buckets_;
};

} // namespace sonic::arch

#endif // SONIC_ARCH_STATS_HH
