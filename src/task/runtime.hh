/**
 * @file
 * The task-based intermittent runtime substrate.
 *
 * A Program is an ordered set of tasks; a Scheduler executes them on a
 * Device, restarting the current task from its top after every power
 * failure (volatile locals reinitialize naturally because the task
 * function is re-entered). The Runtime object handed to each task
 * provides:
 *
 *  - Alpaca-style redo-logged writes to task-shared data, committed
 *    atomically at task transition under a non-volatile commit flag
 *    with replay-on-reboot (crash-consistent at every operation);
 *  - a progress beacon, used to distinguish tasks that are making
 *    non-volatile forward progress across failures (SONIC's loop
 *    continuation, TAILS' calibration) from genuinely non-terminating
 *    tasks (the paper's Base and over-sized tilings, Fig. 9b).
 */

#ifndef SONIC_TASK_RUNTIME_HH
#define SONIC_TASK_RUNTIME_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/device.hh"
#include "arch/memory.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace sonic::task
{

/** Index of a task within a Program. kDone ends the program. */
using TaskId = i32;
constexpr TaskId kDone = -1;

class Runtime;

/** A task body: performs charged work, names its successor. */
using TaskFn = std::function<TaskId(Runtime &)>;

/** An ordered collection of tasks forming an intermittent program. */
class Program
{
  public:
    /** Register a task; returns its id. */
    TaskId
    addTask(TaskFn fn)
    {
        tasks_.push_back(std::move(fn));
        return static_cast<TaskId>(tasks_.size() - 1);
    }

    u32 numTasks() const { return static_cast<u32>(tasks_.size()); }

    const TaskFn &
    taskFn(TaskId id) const
    {
        return tasks_[static_cast<u32>(id)];
    }

  private:
    std::vector<TaskFn> tasks_;
};

/**
 * Per-execution services available to task bodies. Owned by the
 * Scheduler; the redo log conceptually lives in FRAM (it survives
 * failures; uncommitted entries are discarded at reboot, exactly as in
 * Alpaca).
 */
class Runtime
{
  public:
    explicit Runtime(arch::Device &dev) : dev_(dev) {}

    arch::Device &dev() { return dev_; }

    /**
     * Report non-volatile forward progress (e.g., a loop-continuation
     * index value). The scheduler resets its failure counter whenever
     * the reported value changes, so a task may fail arbitrarily many
     * times without being declared non-terminating as long as it keeps
     * advancing.
     */
    void
    progress(u64 value)
    {
        if (value != lastProgress_) {
            lastProgress_ = value;
            progressed_ = true;
        }
    }

    /** @name Alpaca-style redo-logged task-shared accesses */
    /// @{

    /** Privatized write of arr[idx]; visible to logRead immediately,
     * applied to the home location only at commit. */
    void
    logWrite(arch::NvArray<i16> &arr, u32 idx, i16 value)
    {
        SONIC_DASSERT(idx < arr.size());
        dev_.consume(arch::Op::LogWrite);
        pushLog({LogEntry::Arr16, &arr, idx, value});
    }

    /** Read of arr[idx] honoring earlier logged writes in this task. */
    i16
    logRead(const arch::NvArray<i16> &arr, u32 idx)
    {
        SONIC_DASSERT(idx < arr.size());
        // Alpaca resolves privatized locations statically, so a read
        // costs the FRAM access plus an indirection; the host-side
        // index lookup is the semantic lookup, not a charged one.
        dev_.consume(arch::Op::FramLoad);
        dev_.consume(arch::Op::RegOp, 6);
        const Slot &s = slots_[slotOf(&arr, idx, LogEntry::Arr16)];
        return s.gen == gen_ ? static_cast<i16>(s.value) : arr.peek(idx);
    }

    /** Privatized write of a task-shared scalar. */
    void
    logWrite(arch::NvVar<i32> &var, i32 value)
    {
        dev_.consume(arch::Op::LogWrite);
        pushLog({LogEntry::Var32, &var, 0, value});
    }

    void
    logWrite(arch::NvVar<i16> &var, i16 value)
    {
        dev_.consume(arch::Op::LogWrite);
        pushLog({LogEntry::Var16, &var, 0, value});
    }

    /** Read of a task-shared scalar honoring earlier logged writes. */
    i32
    logRead(const arch::NvVar<i32> &var)
    {
        dev_.consume(arch::Op::FramLoad, 2);
        dev_.consume(arch::Op::RegOp, 6);
        const Slot &s = slots_[slotOf(&var, 0, LogEntry::Var32)];
        return s.gen == gen_ ? s.value : var.peek();
    }

    i16
    logRead(const arch::NvVar<i16> &var)
    {
        dev_.consume(arch::Op::FramLoad);
        dev_.consume(arch::Op::RegOp, 6);
        const Slot &s = slots_[slotOf(&var, 0, LogEntry::Var16)];
        return s.gen == gen_ ? static_cast<i16>(s.value) : var.peek();
    }

    /** Number of uncommitted log entries (diagnostics/tests). */
    u64 logSize() const { return log_.size(); }
    /// @}

  private:
    friend class Scheduler;

    struct LogEntry
    {
        enum Kind : u8 { Arr16, Var32, Var16 };
        Kind kind;
        void *target;
        u32 idx;
        i32 value;
    };

    /**
     * One slot of the read index: the latest uncommitted value of one
     * logged location (target, idx, kind). A slot is live only while
     * its gen equals the runtime's gen_; any other stamp reads as
     * empty.
     */
    struct Slot
    {
        u64 gen;
        const void *target;
        u32 idx;
        i32 value;
        u8 kind;
    };

    static void applyEntry(const LogEntry &entry);

    /**
     * Index of the slot holding (target, idx, kind) in this
     * generation, or of the empty slot where it would go (linear
     * probing; the load bound guarantees an empty slot).
     */
    u64
    slotOf(const void *target, u32 idx, u8 kind) const
    {
        // Mix in u64 so the shift stays defined on 32-bit hosts.
        u64 h =
            static_cast<u64>(reinterpret_cast<std::uintptr_t>(target));
        h ^= (h >> 33) ^ (u64{idx} << 8) ^ u64{kind};
        for (u64 i = (h * 0x9e3779b97f4a7c15ull) >> shift_;;
             i = (i + 1) & (slots_.size() - 1)) {
            const Slot &s = slots_[i];
            if (s.gen != gen_
                || (s.target == target && s.idx == idx
                    && s.kind == kind))
                return i;
        }
    }

    /** Append an entry and index it (latest write wins on reads). */
    void
    pushLog(const LogEntry &entry)
    {
        log_.push_back(entry);
        if (2 * (live_ + 1) > slots_.size())
            growIndex();
        Slot &s = slots_[slotOf(entry.target, entry.idx, entry.kind)];
        live_ += s.gen != gen_ ? 1 : 0;
        s = {gen_, entry.target, entry.idx, entry.value, entry.kind};
    }

    /** Double the index, carrying over this generation's slots. */
    void growIndex();

    /** Discard the uncommitted log: O(1), every slot goes stale. */
    void
    clearLog()
    {
        log_.clear();
        ++gen_;
        live_ = 0;
    }

    arch::Device &dev_;
    std::vector<LogEntry> log_;

    /**
     * Read index over log_: an open-addressed table owned by the
     * runtime, mapping each logged location to its latest uncommitted
     * value, so logRead is O(1) instead of a reverse scan (Tile-128
     * carries hundred-entry logs and pays a logRead per task-shared
     * load). It doubles to keep live slots at most half the table and
     * never shrinks, so once a run has reached its largest task a
     * logged write allocates nothing. Discarding bumps the 64-bit
     * generation, which cannot wrap. Host-side bookkeeping only: the
     * index charges no device op.
     */
    static constexpr u32 kInitialSlotsLog2 = 4;
    std::vector<Slot> slots_ =
        std::vector<Slot>(u64{1} << kInitialSlotsLog2);
    u32 shift_ = 64 - kInitialSlotsLog2; ///< 64 - log2(slots_.size())
    u64 gen_ = 1;  ///< stamp of live slots (fresh slots hold 0)
    u64 live_ = 0; ///< live slots in this generation

    u64 lastProgress_ = ~u64{0};
    bool progressed_ = false;
};

/** How task transitions are charged. */
enum class TransitionStyle : u8
{
    Alpaca, ///< full task-based-runtime dispatch (Op::AlpacaTransition)
    Light   ///< SONIC's streamlined transition (Op::TaskTransition)
};

/**
 * The non-termination threshold: a run is declared non-terminating
 * after more than this many consecutive power failures with no
 * progress (the verdict comes on failure N + 1). The scheduler counts
 * failures with no task completion and no progress-beacon change; the
 * pipeline's round driver counts failures with no journal progress.
 */
inline constexpr u64 kMaxFailuresWithoutProgress = 48;

/** Hard safety valve on total reboots per scheduler run. */
inline constexpr u64 kMaxTotalReboots = 50'000'000;

/** Scheduler configuration. */
struct SchedulerConfig
{
    TransitionStyle transitionStyle = TransitionStyle::Alpaca;

    /** The non-termination threshold (tests lower it). */
    u64 maxFailuresWithoutProgress = kMaxFailuresWithoutProgress;
};

/** Outcome of running a program. */
struct RunResult
{
    bool completed = false;
    bool nonTerminating = false;
    u64 reboots = 0;
    u64 tasksExecuted = 0;
};

/**
 * Executes a Program on a Device under the intermittent execution
 * model: the current-task pointer lives in FRAM; a power failure
 * restarts the current task; the redo log commits two-phase at each
 * transition and is replayed if the failure struck mid-commit.
 */
class Scheduler
{
  public:
    Scheduler(arch::Device &dev, const Program &program,
              SchedulerConfig config = {});

    /** Run from entry until kDone, a DNF verdict, or the safety valve. */
    RunResult run(TaskId entry);

    Runtime &runtime() { return runtime_; }

  private:
    /** Commit the redo log and switch to next (two-phase). */
    void commitAndTransition(TaskId next);

    /** Finish a commit interrupted by a power failure. */
    void replayCommit();

    arch::Device &dev_;
    const Program &program_;
    SchedulerConfig config_;
    Runtime runtime_;

    // Non-volatile scheduler state (conceptually FRAM).
    arch::NvVar<i32> currentTask_;
    arch::NvVar<i32> committedNext_;
    arch::NvVar<i16> commitFlag_;
};

} // namespace sonic::task

#endif // SONIC_TASK_RUNTIME_HH
