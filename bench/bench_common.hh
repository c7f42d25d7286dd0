/**
 * @file
 * Shared helpers for the figure/table benchmark binaries: record
 * lookup over SweepPlan/Engine output plus the small numeric helpers
 * the paper's summary ratios need.
 */

#ifndef SONIC_BENCH_COMMON_HH
#define SONIC_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "app/engine.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace sonic::bench
{

/** Stacked per-layer live seconds for a result (Fig. 9 bars). */
inline f64
layerSeconds(const app::ExperimentResult &r, const std::string &layer)
{
    for (const auto &row : r.layers)
        if (row.name == layer)
            return row.kernelSeconds + row.controlSeconds;
    return 0.0;
}

inline std::string
statusOf(const app::ExperimentResult &r)
{
    if (r.completed)
        return "ok";
    return r.nonTerminating ? "DNF" : "fail";
}

/**
 * Find a sweep record by coordinates; nullptr if the plan did not
 * cover that grid point. The default environment is the empty EnvRef
 * (continuous wall power).
 */
inline const app::SweepRecord *
findRecord(const std::vector<app::SweepRecord> &records,
           const dnn::NetRef &net, kernels::Impl impl,
           const env::EnvRef &environment = {},
           app::ProfileVariant profile = app::ProfileVariant::Standard,
           u32 sample = 0)
{
    for (const auto &record : records) {
        if (record.spec.net == net && record.spec.impl == impl
            && record.spec.environment == environment
            && record.spec.profile == profile
            && record.spec.sampleIndex == sample)
            return &record;
    }
    return nullptr;
}

/** As findRecord, but the grid point must exist. */
inline const app::ExperimentResult &
resultFor(const std::vector<app::SweepRecord> &records,
          const dnn::NetRef &net, kernels::Impl impl,
          const env::EnvRef &environment = {},
          app::ProfileVariant profile = app::ProfileVariant::Standard,
          u32 sample = 0)
{
    const auto *record = findRecord(records, net, impl, environment,
                                    profile, sample);
    if (record == nullptr)
        fatal("sweep record missing for ", net, "/",
              kernels::implName(impl), "/", environment.label());
    return record->result;
}

/** Geometric mean helper for the Sec. 9.1 summary ratios. */
class GeoMean
{
  public:
    void
    add(f64 x)
    {
        if (x > 0.0) {
            logSum_ += std::log(x);
            ++n_;
        }
    }

    f64
    value() const
    {
        return n_ ? std::exp(logSum_ / static_cast<f64>(n_)) : 0.0;
    }

    /** Number of accepted (strictly positive) observations. */
    u64 count() const { return n_; }

  private:
    f64 logSum_ = 0.0;
    u64 n_ = 0;
};

} // namespace sonic::bench

#endif // SONIC_BENCH_COMMON_HH
