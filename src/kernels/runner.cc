#include "kernels/runner.hh"

#include <iterator>
#include <string>

#include "tails/tails.hh"
#include "util/logging.hh"

namespace sonic::kernels
{

namespace
{

RunResult
entryBase(dnn::DeviceNetwork &net, u32)
{
    return runBase(net);
}

RunResult
entryTiled(dnn::DeviceNetwork &net, u32 tile)
{
    return runTiled(net, tile);
}

RunResult
entrySonic(dnn::DeviceNetwork &net, u32)
{
    return runSonic(net);
}

RunResult
entryTails(dnn::DeviceNetwork &net, u32)
{
    return tails::runTails(net);
}

/*
 * One row per Impl, in enum order. Base keeps loop state in volatile
 * memory by design (Sec. 8), so it is the one implementation that does
 * not claim crash consistency.
 */
constexpr ImplInfo kTable[] = {
    {Impl::Base, "Base", 0, entryBase, false},
    {Impl::Tile8, "Tile-8", 8, entryTiled, true},
    {Impl::Tile32, "Tile-32", 32, entryTiled, true},
    {Impl::Tile128, "Tile-128", 128, entryTiled, true},
    {Impl::Sonic, "SONIC", 0, entrySonic, true},
    {Impl::Tails, "TAILS", 0, entryTails, true},
};

constexpr bool
rowsFollowTheEnum()
{
    for (u32 i = 0; i < std::size(kTable); ++i)
        if (kTable[i].id != static_cast<Impl>(i))
            return false;
    return std::size(kTable) == std::size(kAllImpls);
}
static_assert(rowsFollowTheEnum(), "kernel table row i must be Impl i");

const ImplInfo *
rowOf(Impl impl)
{
    const auto index = static_cast<u32>(impl);
    return index < std::size(kTable) ? &kTable[index] : nullptr;
}

} // namespace

const ImplInfo &
implInfo(Impl impl)
{
    const ImplInfo *row = rowOf(impl);
    SONIC_ASSERT(row != nullptr, "Impl ", static_cast<u32>(impl),
                 " is not in the kernel table");
    return *row;
}

std::string_view
implName(Impl impl)
{
    const ImplInfo *row = rowOf(impl);
    return row != nullptr ? row->name : std::string_view("?");
}

bool
implFromName(std::string_view name, Impl *out)
{
    for (const ImplInfo &row : kTable) {
        if (row.name == name) {
            *out = row.id;
            return true;
        }
    }
    return false;
}

Impl
implByName(std::string_view name)
{
    Impl impl = Impl::Base;
    if (!implFromName(name, &impl)) {
        std::string list;
        for (const ImplInfo &row : kTable)
            list += (list.empty() ? "" : ", ") + std::string(row.name);
        fatal("unknown implementation '", name,
              "'; registered implementations: ", list);
    }
    return impl;
}

u32
implTileSize(Impl impl)
{
    const ImplInfo *row = rowOf(impl);
    return row != nullptr ? row->tileSize : 0;
}

namespace
{

/** Closes the Infer trace span even when a PowerFailure unwinds out of
 * the kernel (Base aborts mid-run; the caller reboots and retries). */
struct InferSpanGuard
{
    arch::Device &dev;
    u32 arg;

    ~InferSpanGuard()
    {
        if (auto *p = dev.probe())
            p->onSpanEnd(dev, arch::ProbeSpan::Infer, arg,
                         dev.consumedJoules());
    }
};

} // namespace

RunResult
runInference(dnn::DeviceNetwork &net, Impl impl)
{
    const ImplInfo &info = implInfo(impl);
    arch::Device &dev = net.dev();
    if (dev.probe() == nullptr) [[likely]]
        return info.entry(net, info.tileSize);
    dev.probe()->onSpanBegin(dev, arch::ProbeSpan::Infer,
                             static_cast<u32>(impl));
    InferSpanGuard guard{dev, static_cast<u32>(impl)};
    return info.entry(net, info.tileSize);
}

} // namespace sonic::kernels
