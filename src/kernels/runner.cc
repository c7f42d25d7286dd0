#include "kernels/runner.hh"

#include <iterator>
#include <string>

#include "kernels/kernel_util.hh"
#include "tails/tails.hh"
#include "util/logging.hh"

namespace sonic::kernels
{

namespace
{

using Net = dnn::DeviceNetwork;

/*
 * One row per Impl, in enum order; the untiled rows drop the tile
 * argument. Base keeps loop state in volatile memory by design
 * (Sec. 8), so it is the one implementation that does not claim crash
 * consistency.
 */
constexpr ImplInfo kTable[] = {
    {Impl::Base, "Base", 0, [](Net &net, u32) { return runBase(net); },
     false},
    {Impl::Tile8, "Tile-8", 8, runTiled, true},
    {Impl::Tile32, "Tile-32", 32, runTiled, true},
    {Impl::Tile128, "Tile-128", 128, runTiled, true},
    {Impl::Sonic, "SONIC", 0, [](Net &net, u32) { return runSonic(net); },
     true},
    {Impl::Tails, "TAILS", 0,
     [](Net &net, u32) { return tails::runTails(net); }, true},
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
runProgram(dnn::DeviceNetwork &net, const task::Program &program,
           task::TaskId entry, task::TransitionStyle style)
{
    task::SchedulerConfig config;
    config.transitionStyle = style;
    const auto run = task::Scheduler(net.dev(), program, config).run(entry);

    RunResult result;
    result.completed = run.completed;
    result.nonTerminating = run.nonTerminating;
    result.reboots = run.reboots;
    result.tasksExecuted = run.tasksExecuted;
    if (run.completed)
        result.logits = net.peekLogits();
    return result;
}

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
