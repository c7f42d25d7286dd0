#include "verify/schedule.hh"

#include <algorithm>

#include "task/runtime.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace sonic::verify
{

namespace
{

/** Hard ceiling keeping any schedule far from the scheduler's
 * non-termination threshold (consecutive unproductive failures). */
constexpr u32 kAbsoluteMaxFailures = 40;
static_assert(kAbsoluteMaxFailures < task::kMaxFailuresWithoutProgress,
              "a generated schedule must never reach the "
              "non-termination threshold");

u32
clampMaxFailures(const ScheduleGenConfig &config)
{
    return std::min(std::max(config.maxFailures, 1u),
                    kAbsoluteMaxFailures);
}

Schedule
finish(std::vector<u64> indices)
{
    std::sort(indices.begin(), indices.end());
    indices.erase(std::unique(indices.begin(), indices.end()),
                  indices.end());
    return indices;
}

} // namespace

std::vector<Schedule>
uniformSchedules(u32 count, const ScheduleGenConfig &config)
{
    SONIC_ASSERT(config.opHorizon > 0, "uniformSchedules needs horizon");
    const u32 max_failures = clampMaxFailures(config);
    Rng rng(config.seed);
    std::vector<Schedule> schedules;
    schedules.reserve(count);
    for (u32 s = 0; s < count; ++s) {
        const u64 k = 1 + rng.below(max_failures);
        std::vector<u64> indices;
        indices.reserve(k);
        for (u64 i = 0; i < k; ++i)
            indices.push_back(rng.below(config.opHorizon));
        schedules.push_back(finish(std::move(indices)));
    }
    return schedules;
}

std::vector<Schedule>
burstySchedules(u32 count, const ScheduleGenConfig &config)
{
    SONIC_ASSERT(config.opHorizon > 0, "burstySchedules needs horizon");
    const u32 max_failures = clampMaxFailures(config);
    Rng rng(config.seed ^ 0xb5257ull);
    std::vector<Schedule> schedules;
    schedules.reserve(count);
    for (u32 s = 0; s < count; ++s) {
        const u64 clusters = 1 + rng.below(2);
        std::vector<u64> indices;
        for (u64 c = 0; c < clusters; ++c) {
            const u64 center = rng.below(config.opHorizon);
            // 2..5 back-to-back or near-adjacent failures: the reboot
            // path itself gets hit while recovering.
            const u64 len = 2 + rng.below(4);
            const u64 stride = 1 + rng.below(3);
            for (u64 i = 0;
                 i < len && indices.size() < max_failures; ++i)
                indices.push_back(center + i * stride);
        }
        schedules.push_back(finish(std::move(indices)));
    }
    return schedules;
}

std::vector<Schedule>
commitTargetedSchedules(u32 count, const std::vector<u64> &commit_ops,
                        const ScheduleGenConfig &config)
{
    if (commit_ops.empty())
        return uniformSchedules(count, config);
    const u32 max_failures = clampMaxFailures(config);
    Rng rng(config.seed ^ 0xc0317ull);
    std::vector<Schedule> schedules;
    schedules.reserve(count);
    for (u32 s = 0; s < count; ++s) {
        const u64 k =
            1 + rng.below(std::min<u64>(max_failures,
                                        commit_ops.size()));
        std::vector<u64> indices;
        indices.reserve(k);
        for (u64 i = 0; i < k; ++i) {
            const u64 commit = commit_ops[rng.below(commit_ops.size())];
            // The commit sequence starts at the recorded draw index:
            // transition charge, log seal, successor + flag stores,
            // then per-entry log commits. Offsets 0..7 land failures
            // across all of its phases.
            indices.push_back(commit + rng.below(8));
        }
        schedules.push_back(finish(std::move(indices)));
    }
    return schedules;
}

std::vector<Schedule>
mixedSchedules(u32 count, const std::vector<u64> &commit_ops,
               const ScheduleGenConfig &config)
{
    const u32 third = count / 3;
    auto all = uniformSchedules(count - 2 * third, config);
    auto bursts = burstySchedules(third, config);
    auto commits = commitTargetedSchedules(third, commit_ops, config);
    all.insert(all.end(), std::make_move_iterator(bursts.begin()),
               std::make_move_iterator(bursts.end()));
    all.insert(all.end(), std::make_move_iterator(commits.begin()),
               std::make_move_iterator(commits.end()));
    return all;
}

} // namespace sonic::verify
