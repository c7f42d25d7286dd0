/**
 * @file
 * The task-based intermittent runtime substrate.
 *
 * A Program is a set of named tasks; a Scheduler executes them on a
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

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/device.hh"
#include "arch/memory.hh"
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
    addTask(std::string name, TaskFn fn)
    {
        tasks_.push_back({std::move(name), std::move(fn)});
        return static_cast<TaskId>(tasks_.size() - 1);
    }

    u32 numTasks() const { return static_cast<u32>(tasks_.size()); }

    const std::string &
    taskName(TaskId id) const
    {
        return tasks_[static_cast<u32>(id)].name;
    }

    const TaskFn &
    taskFn(TaskId id) const
    {
        return tasks_[static_cast<u32>(id)].fn;
    }

  private:
    struct TaskDef
    {
        std::string name;
        TaskFn fn;
    };

    std::vector<TaskDef> tasks_;
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
    void logWrite(arch::NvArray<i16> &arr, u32 idx, i16 value);

    /** Read of arr[idx] honoring earlier logged writes in this task. */
    i16 logRead(const arch::NvArray<i16> &arr, u32 idx);

    /** Privatized write of a task-shared scalar. */
    void logWrite(arch::NvVar<i32> &var, i32 value);
    void logWrite(arch::NvVar<i16> &var, i16 value);

    /** Read of a task-shared scalar honoring earlier logged writes. */
    i32 logRead(const arch::NvVar<i32> &var);
    i16 logRead(const arch::NvVar<i16> &var);

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

    /** Host-side key of one logged location (kind, target, index). */
    struct LogKey
    {
        const void *target;
        u32 idx;
        u8 kind;

        bool
        operator==(const LogKey &o) const
        {
            return target == o.target && idx == o.idx
                && kind == o.kind;
        }
    };

    struct LogKeyHash
    {
        std::size_t
        operator()(const LogKey &k) const
        {
            // Mix in u64 so the shift stays defined on 32-bit hosts.
            u64 h = static_cast<u64>(
                reinterpret_cast<std::uintptr_t>(k.target));
            h ^= (h >> 33) ^ (static_cast<u64>(k.idx) << 8)
               ^ static_cast<u64>(k.kind);
            return static_cast<std::size_t>(
                h * 0x9e3779b97f4a7c15ull);
        }
    };

    static void applyEntry(const LogEntry &entry);

    /** Append an entry and index it (latest write wins on reads). */
    void pushLog(const LogEntry &entry);

    /** Discard the uncommitted log and its read index. */
    void clearLog();

    arch::Device &dev_;
    std::vector<LogEntry> log_;

    /**
     * Read index over log_: maps each logged location to its latest
     * uncommitted value, making logRead O(1) instead of a reverse
     * scan (Tile-128 carries hundred-entry logs and pays a logRead
     * per task-shared load). Host-side bookkeeping only; the charged
     * device costs in logRead/logWrite are unchanged.
     */
    std::unordered_map<LogKey, i32, LogKeyHash> logIndex_;

    u64 lastProgress_ = ~u64{0};
    bool progressed_ = false;
};

/** How task transitions are charged. */
enum class TransitionStyle : u8
{
    Alpaca, ///< full task-based-runtime dispatch (Op::AlpacaTransition)
    Light   ///< SONIC's streamlined transition (Op::TaskTransition)
};

/** Scheduler configuration. */
struct SchedulerConfig
{
    TransitionStyle transitionStyle = TransitionStyle::Alpaca;

    /**
     * Declare non-termination after this many consecutive power
     * failures with no task completion and no progress-beacon change.
     */
    u64 maxFailuresWithoutProgress = 48;

    /** Hard safety valve on total reboots per run. */
    u64 maxTotalReboots = 50'000'000;
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
