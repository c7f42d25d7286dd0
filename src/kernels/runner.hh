/**
 * @file
 * The inference implementations the paper evaluates (Sec. 8
 * "Baselines for comparison"):
 *
 *  - Base:     a standard implementation with volatile loop state and
 *              register accumulation. Fast, but does not tolerate
 *              intermittent operation (never terminates on harvested
 *              power).
 *  - Tile-8/32/128: Alpaca-style task-tiled implementations. All loop
 *              state and written data are task-shared: writes go
 *              through redo-logging, reads through privatization
 *              indirection, and every k iterations pay a full
 *              task-based-runtime transition. Restarting a task
 *              re-derives loop coordinates from the flattened logged
 *              index (divide/modulo in software).
 *  - Sonic:    loop continuation + loop-ordered buffering + sparse
 *              undo-logging (Sec. 6).
 *  - Tails:    SONIC plus LEA/DMA hardware acceleration with one-time
 *              tile calibration (Sec. 7); implemented in src/tails.
 *
 * Dispatch goes through one constant table with a row per Impl (name,
 * tile size, entry point). A new kernel is one Impl value plus one
 * table row in runner.cc.
 */

#ifndef SONIC_KERNELS_RUNNER_HH
#define SONIC_KERNELS_RUNNER_HH

#include <string_view>
#include <vector>

#include "dnn/device_net.hh"
#include "util/types.hh"

namespace sonic::kernels
{

/** An inference implementation: its row in the kernel table. */
enum class Impl : u32
{
    Base,
    Tile8,
    Tile32,
    Tile128,
    Sonic,
    Tails
};

/** The paper's six implementations (the Fig. 9 sweep axis). */
inline constexpr Impl kAllImpls[] = {Impl::Base, Impl::Tile8, Impl::Tile32,
                                     Impl::Tile128, Impl::Sonic,
                                     Impl::Tails};

/** Outcome of one inference attempt. */
struct RunResult
{
    bool completed = false;
    bool nonTerminating = false;
    u64 reboots = 0;
    u64 tasksExecuted = 0;
    std::vector<i16> logits; ///< valid when completed
    u32 calibTileWords = 0;  ///< TAILS' converged LEA tile (0 if n/a)
};

/**
 * An implementation entry point. The tile argument is the row's tile
 * size (0 for untiled implementations); entries that do not tile
 * ignore it.
 */
using ImplEntry = RunResult (*)(dnn::DeviceNetwork &net, u32 tile);

/** One kernel table row. */
struct ImplInfo
{
    Impl id = Impl::Base;
    std::string_view name; ///< stable display/lookup name ("SONIC")
    u32 tileSize = 0;      ///< task tile in elements (0 = untiled)
    ImplEntry entry = nullptr;

    /**
     * Whether the implementation claims the paper's correctness
     * property — intermittent execution indistinguishable from
     * continuous. The verification oracle (src/verify) holds
     * crash-consistent implementations to logit-equality under
     * adversarial failure schedules; non-consistent ones (Base, which
     * keeps loop state in volatile memory by design) are only held to
     * deterministic replay.
     */
    bool crashConsistent = true;
};

/** The kernel table's row for impl (an id outside it panics). */
const ImplInfo &implInfo(Impl impl);

/** Stable implementation name ("?" for an id outside the table). */
std::string_view implName(Impl impl);

/** Inverse of implName; false if no kernel has the name. */
bool implFromName(std::string_view name, Impl *out);

/** As implFromName, but an unknown name is fatal, listing the six. */
Impl implByName(std::string_view name);

/**
 * Run one inference of the flashed network with the given
 * implementation (table dispatch). The input must already be
 * loaded (DeviceNetwork::loadInput). Statistics accumulate on the
 * device.
 */
RunResult runInference(dnn::DeviceNetwork &net, Impl impl);

/** Individual entry points (used by tests and by the table). */
RunResult runBase(dnn::DeviceNetwork &net);
RunResult runTiled(dnn::DeviceNetwork &net, u32 tile);
RunResult runSonic(dnn::DeviceNetwork &net);

namespace testhooks
{

/**
 * Oracle self-test fault: when true, SONIC's sparse-FC stage skips its
 * sparse undo-logging (phase-1 canonical save) and accumulates naively
 * in place — the classic WAR crash-consistency bug the paper's
 * protocol exists to prevent. A power failure between the in-place
 * store and the loop-continuation index advance then double-applies
 * one tap on re-execution. The verification oracle's own tests flip
 * this to prove a real progress/consistency bug is caught and shrunk;
 * it must never be set outside those tests. Not thread-safe: set it
 * only around single-threaded verification runs.
 */
extern bool sonicDisableUndoLogging;

} // namespace testhooks

} // namespace sonic::kernels

#endif // SONIC_KERNELS_RUNNER_HH
