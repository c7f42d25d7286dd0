#include "task/runtime.hh"

#include "util/logging.hh"

namespace sonic::task
{

void
Runtime::growIndex()
{
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --shift_;
    for (const Slot &s : old)
        if (s.gen == gen_)
            slots_[slotOf(s.target, s.idx, s.kind)] = s;
}

void
Runtime::applyEntry(const LogEntry &entry)
{
    switch (entry.kind) {
      case LogEntry::Arr16:
        static_cast<arch::NvArray<i16> *>(entry.target)
            ->poke(entry.idx, static_cast<i16>(entry.value));
        break;
      case LogEntry::Var32:
        static_cast<arch::NvVar<i32> *>(entry.target)
            ->poke(entry.value);
        break;
      case LogEntry::Var16:
        static_cast<arch::NvVar<i16> *>(entry.target)
            ->poke(static_cast<i16>(entry.value));
        break;
    }
}

Scheduler::Scheduler(arch::Device &dev, const Program &program,
                     SchedulerConfig config)
    : dev_(dev), program_(program), config_(config), runtime_(dev),
      currentTask_(dev, "sched.currentTask", kDone),
      committedNext_(dev, "sched.committedNext", kDone),
      commitFlag_(dev, "sched.commitFlag", 0)
{
}

RunResult
Scheduler::run(TaskId entry)
{
    SONIC_ASSERT(entry >= 0
                 && static_cast<u32>(entry) < program_.numTasks());
    // Boot-time programming of the entry point (uncharged, like
    // flashing the binary).
    currentTask_.poke(entry);
    committedNext_.poke(kDone);
    commitFlag_.poke(0);
    runtime_.clearLog();
    runtime_.lastProgress_ = ~u64{0};

    RunResult result;
    u64 fails_since_progress = 0;

    for (;;) {
        try {
            // Boot/dispatch path: check for an interrupted commit, then
            // load the current task pointer.
            dev_.consume(arch::Op::FramLoad); // commit flag check
            if (commitFlag_.peek() != 0)
                replayCommit();

            const TaskId cur = static_cast<TaskId>(currentTask_.read());
            if (cur == kDone) {
                result.completed = true;
                break;
            }

            // Discard any uncommitted log left by an interrupted
            // attempt (reset the log header).
            runtime_.clearLog();
            dev_.consume(arch::Op::FramStore);
            runtime_.progressed_ = false;

            const TaskId next =
                program_.taskFn(cur)(runtime_);
            SONIC_ASSERT(next == kDone
                         || (next >= 0
                             && static_cast<u32>(next)
                                 < program_.numTasks()),
                         "task returned invalid successor");
            commitAndTransition(next);
            ++result.tasksExecuted;
            fails_since_progress = 0;
        } catch (const arch::PowerFailure &) {
            dev_.reboot();
            ++result.reboots;
            if (runtime_.progressed_) {
                fails_since_progress = 0;
            } else {
                ++fails_since_progress;
            }
            if (fails_since_progress
                > config_.maxFailuresWithoutProgress) {
                result.nonTerminating = true;
                break;
            }
            if (result.reboots > kMaxTotalReboots) {
                result.nonTerminating = true;
                break;
            }
        }
    }
    return result;
}

void
Scheduler::commitAndTransition(TaskId next)
{
    // Fired before the transition is charged: the next draw the device
    // performs is the first operation of the commit sequence (the
    // coordinate commit-targeted schedules aim at).
    if (auto *probe = dev_.probe())
        probe->onInstant(dev_, arch::ProbeInstant::TaskCommit,
                         static_cast<u32>(next));
    dev_.consume(config_.transitionStyle == TransitionStyle::Alpaca
                     ? arch::Op::AlpacaTransition
                     : arch::Op::TaskTransition);

    // Phase 1: seal the log (count + successor) and raise the flag.
    dev_.consume(arch::Op::FramStore); // log count seal
    committedNext_.write(next);
    commitFlag_.write(1);

    // Phase 2: apply entries to their home locations. A failure
    // anywhere in here is finished by replayCommit() at next boot.
    for (const auto &entry : runtime_.log_) {
        dev_.consume(arch::Op::LogCommit);
        Runtime::applyEntry(entry);
    }
    currentTask_.write(next);
    commitFlag_.write(0);
    runtime_.clearLog();
}

void
Scheduler::replayCommit()
{
    for (const auto &entry : runtime_.log_) {
        dev_.consume(arch::Op::LogCommit);
        Runtime::applyEntry(entry);
    }
    const auto next = committedNext_.read();
    currentTask_.write(next);
    commitFlag_.write(0);
    runtime_.clearLog();
}

} // namespace sonic::task
