/**
 * @file
 * The one worker pool: a fork-join loop for independent,
 * index-addressed work. Sweeps, fleets, oracle batteries and cold
 * model construction (per-layer decompositions, dataset labelling) all
 * run on it. Each task writes only its own slot, so the result never
 * depends on which thread ran which task; an optional emit callback
 * streams the finished slots in index order while workers keep
 * running.
 */

#ifndef SONIC_UTIL_PARALLEL_HH
#define SONIC_UTIL_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "util/types.hh"

namespace sonic::util
{

/** `threads`, or the hardware thread count (at least 1) when 0. */
inline u32
resolveThreads(u32 threads)
{
    return threads > 0 ? threads
                       : std::max(1u, std::thread::hardware_concurrency());
}

/** The workers parallelFor(tasks, threads, ...) runs: every worker
 * index it passes is below this. */
inline u32
poolSize(u64 tasks, u32 threads)
{
    return static_cast<u32>(std::min<u64>(tasks, resolveThreads(threads)));
}

/** The emit of a parallelFor without ordered output. */
struct NoEmit
{
    void operator()(u64) const {}
};

/**
 * Run body(i, worker) for every i in [0, tasks) on poolSize(tasks,
 * threads) workers, the caller being worker 0, and return once every
 * task has finished. A shared cursor hands the next index to whichever
 * worker frees up first, so uneven tasks still balance.
 *
 * emit(i) runs in index order, never concurrently, as soon as tasks
 * 0..i have all finished (on whichever worker finished the last of
 * them, under the pool's lock). When a task or an emit throws, the
 * cursor hands out no further task, the exception of the lowest such
 * index is rethrown after the join, and nothing at or after that index
 * is emitted.
 */
template <typename Body, typename Emit = NoEmit>
void
parallelFor(u64 tasks, u32 threads, Body &&body, Emit &&emit = {})
{
    const u32 workers = poolSize(tasks, threads);
    if (workers <= 1) {
        for (u64 i = 0; i < tasks; ++i) {
            body(i, 0u);
            emit(i);
        }
        return;
    }

    std::atomic<u64> next{0};
    std::mutex mutex; // guards everything below
    std::vector<u8> finished(tasks, 0);
    u64 emitted = 0;
    u64 failed = tasks; // lowest index whose task or emit threw
    std::exception_ptr error;
    const auto fail = [&](u64 i) {
        if (i < failed) {
            failed = i;
            error = std::current_exception();
        }
        next.store(tasks);
    };
    const auto worker = [&](u32 w) {
        for (u64 i; (i = next.fetch_add(1)) < tasks;) {
            try {
                body(i, w);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                fail(i);
                return;
            }
            std::lock_guard<std::mutex> lock(mutex);
            finished[i] = 1;
            for (; emitted < failed && finished[emitted]; ++emitted) {
                try {
                    emit(emitted);
                } catch (...) {
                    fail(emitted);
                    return;
                }
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (u32 w = 1; w < workers; ++w) {
        // A worker the system cannot start leaves its share to the
        // running ones: the cursor hands every task to someone.
        try {
            pool.emplace_back(worker, w);
        } catch (const std::system_error &) {
            break;
        }
    }
    worker(0);
    for (auto &thread : pool)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace sonic::util

#endif // SONIC_UTIL_PARALLEL_HH
