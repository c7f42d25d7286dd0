/**
 * @file
 * A minimal fork-join loop for independent, index-addressed work (cold
 * model construction: per-layer decompositions, dataset labelling).
 * Each task writes only its own slot, so the result never depends on
 * which thread ran which task.
 */

#ifndef SONIC_UTIL_PARALLEL_HH
#define SONIC_UTIL_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/types.hh"

namespace sonic::util
{

/**
 * Run body(i) for every i in [0, tasks) on min(tasks,
 * hardware_concurrency()) threads, the caller being one of them, and
 * return once every task has finished. The first exception a task
 * throws is rethrown after the join.
 */
template <typename Body>
void
parallelFor(u64 tasks, Body &&body)
{
    const u64 threads = std::min<u64>(
        tasks, std::max(1u, std::thread::hardware_concurrency()));
    if (threads <= 1) {
        for (u64 i = 0; i < tasks; ++i)
            body(i);
        return;
    }

    std::atomic<u64> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    auto worker = [&] {
        for (u64 i; (i = next.fetch_add(1)) < tasks;) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (u64 t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &thread : pool)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace sonic::util

#endif // SONIC_UTIL_PARALLEL_HH
