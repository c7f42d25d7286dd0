#include "arch/stats.hh"

#include "util/logging.hh"

namespace sonic::arch
{

u64
OpCounters::totalCycles() const
{
    u64 sum = 0;
    for (auto c : cycles)
        sum += c;
    return sum;
}

f64
OpCounters::totalNanojoules() const
{
    f64 sum = 0.0;
    for (auto e : nanojoules)
        sum += e;
    return sum;
}

Stats::Stats()
{
    registerLayer("other");
}

u16
Stats::registerLayer(const std::string &name)
{
    layers_.push_back(name);
    buckets_.emplace_back();
    return static_cast<u16>(layers_.size() - 1);
}

const std::string &
Stats::layerName(u16 layer) const
{
    SONIC_ASSERT(layer < layers_.size());
    return layers_[layer];
}

const OpCounters &
Stats::bucket(u16 layer, Part part) const
{
    SONIC_ASSERT(layer < buckets_.size());
    return buckets_[layer][static_cast<u32>(part)];
}

Stats::LayerBuckets &
Stats::layerBuckets(u16 layer)
{
    SONIC_ASSERT(layer < buckets_.size());
    return buckets_[layer];
}

u64
Stats::layerCycles(u16 layer) const
{
    u64 sum = 0;
    for (u32 p = 0; p < kNumParts; ++p)
        sum += bucket(layer, static_cast<Part>(p)).totalCycles();
    return sum;
}

f64
Stats::layerNanojoules(u16 layer) const
{
    f64 sum = 0.0;
    for (u32 p = 0; p < kNumParts; ++p)
        sum += bucket(layer, static_cast<Part>(p)).totalNanojoules();
    return sum;
}

u64
Stats::layerOpCount(u16 layer, Op op) const
{
    u64 sum = 0;
    for (u32 p = 0; p < kNumParts; ++p)
        sum += bucket(layer, static_cast<Part>(p))
                   .count[static_cast<u32>(op)];
    return sum;
}

f64
Stats::layerOpNanojoules(u16 layer, Op op) const
{
    f64 sum = 0.0;
    for (u32 p = 0; p < kNumParts; ++p)
        sum += bucket(layer, static_cast<Part>(p))
                   .nanojoules[static_cast<u32>(op)];
    return sum;
}

u64
Stats::totalCycles() const
{
    u64 sum = 0;
    for (u16 l = 0; l < layers_.size(); ++l)
        sum += layerCycles(l);
    return sum;
}

f64
Stats::totalNanojoules() const
{
    f64 sum = 0.0;
    for (u16 l = 0; l < layers_.size(); ++l)
        sum += layerNanojoules(l);
    return sum;
}

u64
Stats::opCount(Op op) const
{
    u64 sum = 0;
    for (u16 l = 0; l < layers_.size(); ++l)
        sum += layerOpCount(l, op);
    return sum;
}

f64
Stats::opNanojoules(Op op) const
{
    f64 sum = 0.0;
    for (u16 l = 0; l < layers_.size(); ++l)
        sum += layerOpNanojoules(l, op);
    return sum;
}

} // namespace sonic::arch
