#include "kernels/runner.hh"

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

} // namespace

ImplRegistry::ImplRegistry()
    : rows_("implementation", [](ImplInfo &row, u32 index) {
          row.id = static_cast<Impl>(index);
      })
{
    // The paper's six implementations occupy the named enum ids, in
    // enum order, so dynamic ids start right after Impl::Tails. Base
    // keeps loop state in volatile memory by design (Sec. 8), so it is
    // the one implementation that does not claim crash consistency.
    add("Base", 0, entryBase, /*crashConsistent=*/false);
    add("Tile-8", 8, entryTiled);
    add("Tile-32", 32, entryTiled);
    add("Tile-128", 128, entryTiled);
    add("SONIC", 0, entrySonic);
    add("TAILS", 0, entryTails);
}

ImplRegistry &
ImplRegistry::instance()
{
    static ImplRegistry registry;
    return registry;
}

Impl
ImplRegistry::add(std::string name, u32 tileSize, ImplEntry entry,
                  bool crashConsistent)
{
    SONIC_ASSERT(entry != nullptr, "impl entry must be non-null");
    return rows_
        .add(ImplInfo{Impl::Base, std::move(name), tileSize, entry,
                      crashConsistent})
        .id;
}

std::vector<Impl>
ImplRegistry::all() const
{
    std::vector<Impl> ids(rows_.size());
    for (u32 i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<Impl>(i);
    return ids;
}

std::string_view
implName(Impl impl)
{
    const auto *info = ImplRegistry::instance().find(impl);
    return info ? std::string_view(info->name) : std::string_view("?");
}

bool
implFromName(std::string_view name, Impl *out)
{
    const auto *info = ImplRegistry::instance().find(name);
    if (info != nullptr)
        *out = info->id;
    return info != nullptr;
}

u32
implTileSize(Impl impl)
{
    const auto *info = ImplRegistry::instance().find(impl);
    return info ? info->tileSize : 0;
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
    const auto *info = ImplRegistry::instance().find(impl);
    SONIC_ASSERT(info != nullptr, "unregistered Impl");
    arch::Device &dev = net.dev();
    if (dev.probe() == nullptr) [[likely]]
        return info->entry(net, info->tileSize);
    dev.probe()->onSpanBegin(dev, arch::ProbeSpan::Infer,
                             static_cast<u32>(impl));
    InferSpanGuard guard{dev, static_cast<u32>(impl)};
    return info->entry(net, info->tileSize);
}

} // namespace sonic::kernels
