/**
 * @file
 * Seeded adversarial power-failure schedule generators.
 *
 * A Schedule is the failure-index trace an arch::SchedulePower
 * executes: draw i fails iff i is in the schedule. Three generator
 * families cover the failure geometries that historically expose
 * intermittence bugs:
 *
 *  - uniform:  independent failure points spread over the whole run —
 *    the broad fuzzing baseline;
 *  - bursty:   tight clusters of back-to-back failures, stressing the
 *    reboot path itself (boot sequence, commit replay) and repeated
 *    re-execution of the same atomic unit;
 *  - commit-targeted: failures aimed at the draw coordinates of the
 *    continuous run's two-phase task commits (recorded by a probe
 *    on arch::ProbeInstant::TaskCommit), the window where redo-log sealing, flag
 *    raising and log application must stay atomic.
 *
 * Every schedule keeps its total failure count well below the
 * scheduler's non-termination threshold
 * (task::kMaxFailuresWithoutProgress), so a run that is declared
 * non-terminating under a generated schedule is always a genuine
 * progress bug, never an artifact of an impossibly hostile schedule.
 */

#ifndef SONIC_VERIFY_SCHEDULE_HH
#define SONIC_VERIFY_SCHEDULE_HH

#include <vector>

#include "util/types.hh"

namespace sonic::verify
{

/** Sorted, unique draw indices at which power fails. */
using Schedule = std::vector<u64>;

/** Shared generator knobs. */
struct ScheduleGenConfig
{
    u64 seed = 1;

    /**
     * Exclusive upper bound for generated failure indices, normally
     * the continuous reference run's draw count (indices the actual —
     * longer, re-executing — intermittent run never reaches simply do
     * not fire).
     */
    u64 opHorizon = 0;

    /**
     * Failure-count cap per schedule. Must stay below the scheduler's
     * task::kMaxFailuresWithoutProgress so generated schedules can
     * never cause a legitimate non-termination verdict; generators
     * clamp.
     */
    u32 maxFailures = 8;
};

/** `count` schedules of independent uniform failure points. */
std::vector<Schedule> uniformSchedules(u32 count,
                                       const ScheduleGenConfig &config);

/** `count` schedules of 1-2 tight failure bursts. */
std::vector<Schedule> burstySchedules(u32 count,
                                      const ScheduleGenConfig &config);

/**
 * `count` schedules aimed at recorded commit coordinates: each failure
 * lands within a few draws after a commit point from `commit_ops`
 * (falls back to uniform when no commits were recorded, e.g. for a
 * kernel that never transitions).
 */
std::vector<Schedule>
commitTargetedSchedules(u32 count, const std::vector<u64> &commit_ops,
                        const ScheduleGenConfig &config);

/**
 * The oracle's default battery: an even three-way mix of uniform,
 * bursty and commit-targeted schedules totalling `count`.
 */
std::vector<Schedule> mixedSchedules(u32 count,
                                     const std::vector<u64> &commit_ops,
                                     const ScheduleGenConfig &config);

} // namespace sonic::verify

#endif // SONIC_VERIFY_SCHEDULE_HH
