/**
 * @file
 * The deployment flags sonic_fleet and sonic_plan share, declared once
 * into each CLI's cli::Flags table: --scenario, --list-scenarios and
 * the fleet-axis overrides --devices, --nets, --impls, --envs,
 * --pipelines, --horizon, --max-inferences and --seed.
 */

#ifndef SONIC_FLEET_FLEET_FLAGS_HH
#define SONIC_FLEET_FLEET_FLAGS_HH

#include "fleet/fleet.hh"
#include "util/cli.hh"

namespace sonic::fleet
{

struct FleetFlags
{
    std::string scenario;
    bool listScenarios = false;

    /** @name Axis overrides: each one given replaces that axis. */
    /// @{
    std::optional<u32> devices, maxInferences;
    std::optional<std::vector<std::string>> nets, impls, envs, pipelines;
    std::optional<f64> horizonSeconds;
    std::optional<u64> seed;
    /// @}

    /** Declare the flags in `flags`; parsing fills this object. */
    void declare(cli::Flags &flags);

    /** The --scenario plan, or the FleetPlan defaults without one. */
    FleetPlan scenarioPlan() const;

    /** Replace each axis of *plan that a flag gave. Fatal on an
     * unknown kernel or a malformed environment label. */
    void applyAxes(FleetPlan *plan) const;

    /** The --list-scenarios output: one scenario per line. */
    static void printScenarios(std::ostream &out);
};

} // namespace sonic::fleet

#endif // SONIC_FLEET_FLEET_FLAGS_HH
