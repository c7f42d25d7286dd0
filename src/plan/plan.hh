/**
 * @file
 * The deployment-plan artifact: which kernel every fleet coordinate
 * (environment x model x pipeline) should run, plus the scenario facts
 * the decision was made for — the JSON file `sonic_plan` emits, the
 * fleet simulator replays (sonic_fleet --from-plan), and the sweep CLI
 * drills into (sonic_sweep --from-plan).
 *
 * The artifact is self-contained on purpose: a plan names its axes,
 * seed, horizon and objective, so a confirming run months later
 * rebuilds the exact fleet the decision was made for instead of
 * trusting the caller to pass matching flags. Serialization is strict
 * both ways — toJson() emits round-trip-precision floats and the base
 * seed as a decimal STRING (u64 seeds exceed the 53 integer bits a
 * JSON number carries), fromJson() rejects unknown formats, unknown
 * kernels/environments, and choices that do not cover the scenario's
 * coordinate cross product.
 */

#ifndef SONIC_PLAN_PLAN_HH
#define SONIC_PLAN_PLAN_HH

#include <string>
#include <vector>

#include "app/sweep.hh"
#include "fleet/fleet.hh"

namespace sonic::plan
{

/** What the planner maximizes (fleet mean of a per-device value —
 * separable across coordinates, which is what makes the per-coordinate
 * argmax optimal; see planner.hh). */
enum class Objective : u8
{
    /** Mean delivered results/day per device (the default: an
     * inference that never reaches a base station helps nobody). */
    DeliveredPerDay = 0,
    /** Mean completed inferences/day per device. */
    InferencesPerDay = 1,
    /** Mean energy per inference per device, minimized. Devices that
     * complete nothing contribute a large fixed penalty (see
     * plan::kDeadDevicePenaltyJ) so a kernel that spends no energy by
     * never finishing cannot look efficient. */
    EnergyPerInference = 2,
};

/** Per-device J/inference charged to devices with zero completed
 * inferences under the EnergyPerInference objective. */
constexpr f64 kDeadDevicePenaltyJ = 1.0e6;

const char *objectiveName(Objective objective);
bool objectiveFromName(const std::string &name, Objective *out);

/** The per-device value the objective averages (higher = better;
 * energy is negated). The single definition shared by the estimator's
 * ingest and probes, the decision, and the confirming run's scoring. */
f64 objectiveValue(Objective objective,
                   const fleet::DeviceCounters &device);

/** One coordinate's decided kernel, with the evidence behind it. */
struct PlanChoice
{
    std::string envLabel;  ///< env::EnvRef label ("solar@1mF")
    std::string net;
    std::string pipeline;
    std::string impl;      ///< registered kernel name ("SONIC")
    /** The chosen cell's estimated objective score (higher = better;
     * energy objectives are negated means). */
    f64 score = 0.0;
    /** Devices behind the estimate. */
    u64 devicesObserved = 0;
    /** Whether the estimate came from probe runs (paired, scenario
     * seeds) rather than ingested hash-dealt telemetry. */
    bool probed = false;
};

/** The plan artifact (see the file comment). */
struct Plan
{
    Objective objective = Objective::DeliveredPerDay;

    /** @name Scenario facts the decision was made for. */
    /// @{
    std::string scenario; ///< named scenario, or "" for a custom mix
    u32 devices = 0;
    f64 horizonSeconds = 0.0;
    u32 maxInferencesPerDevice = 0;
    std::string profile;
    u64 baseSeed = 0;
    std::vector<std::string> nets;
    std::vector<std::string> impls;     ///< candidate kernels, in order
    std::vector<std::string> envLabels; ///< EnvRef labels
    std::vector<std::string> pipelines;
    /// @}

    /** One choice per coordinate, in envLabels x nets x pipelines
     * cross-product order. */
    std::vector<PlanChoice> choices;

    std::string toJson() const;

    /** Parse + validate a plan artifact. Rejects unknown formats,
     * unregistered kernel/environment/model/pipeline names, and a
     * choice list that does not exactly cover the coordinate cross
     * product. */
    static bool fromJson(const std::string &text, Plan *out,
                         std::string *error);

    /** Read and parse the plan file at `path` (--from-plan); the
     * error names the path. */
    static bool fromFile(const std::string &path, Plan *out,
                         std::string *error);

    /** Rebuild the fleet this plan assigns: the scenario axes plus
     * FleetPlan::implByCoordinate from the choices. */
    fleet::FleetPlan toFleetPlan() const;

    /** The same fleet with every device on one kernel (a uniform
     * single-kernel baseline; `impl` must be one of `impls`). */
    fleet::FleetPlan toBaselineFleetPlan(const std::string &impl) const;

    /**
     * The plan-aware sweep helper: a SweepPlan whose axes are the
     * distinct models, kernels, and environments the plan's choices
     * actually USE — the decided slice of the grid rather than the
     * full candidate cross product — so per-layer/per-op telemetry
     * for a planned deployment is one sonic_sweep --from-plan away.
     */
    app::SweepPlan toSweepPlan() const;
};

} // namespace sonic::plan

#endif // SONIC_PLAN_PLAN_HH
