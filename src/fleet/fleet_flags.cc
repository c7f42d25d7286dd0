#include "fleet/fleet_flags.hh"

#include "kernels/runner.hh"
#include "util/logging.hh"

namespace sonic::fleet
{

void
FleetFlags::declare(cli::Flags &flags)
{
    std::vector<std::string> names;
    for (const auto &named : namedScenarios())
        names.push_back(named.name);
    flags.oneOf("--scenario", &scenario, std::move(names))
        .add("--devices", &devices, "N")
        .add("--nets", &nets, "A,B,...")
        .add("--impls", &impls, "SONIC,TAILS,...")
        .add("--envs", &envs, "solar@1mF,rf-paper,...")
        .add("--pipelines", &pipelines, "wildlife,infer-only,...")
        .add("--horizon", &horizonSeconds, "SECONDS")
        .add("--max-inferences", &maxInferences, "K")
        .add("--seed", &seed, "S")
        .add("--list-scenarios", &listScenarios);
}

FleetPlan
FleetFlags::scenarioPlan() const
{
    for (const auto &named : namedScenarios())
        if (named.name == scenario)
            return named.plan;
    return FleetPlan{};
}

void
FleetFlags::applyAxes(FleetPlan *plan) const
{
    if (devices)
        plan->devices = *devices;
    if (nets)
        plan->nets = *nets;
    if (impls) {
        plan->impls.clear();
        for (const auto &name : *impls)
            plan->impls.push_back(kernels::implByName(name));
    }
    if (envs) {
        plan->environments.clear();
        for (const auto &label : *envs) {
            env::EnvRef ref;
            std::string error;
            if (!env::parseEnvRef(label, &ref, &error))
                fatal(error);
            plan->environments.push_back(std::move(ref));
        }
    }
    if (pipelines)
        plan->pipelines = *pipelines;
    if (horizonSeconds)
        plan->horizonSeconds = *horizonSeconds;
    if (maxInferences)
        plan->maxInferencesPerDevice = *maxInferences;
    if (seed)
        plan->baseSeed = *seed;
}

void
FleetFlags::printScenarios(std::ostream &out)
{
    for (const auto &named : namedScenarios())
        out << named.name << " — " << named.description << "\n";
}

} // namespace sonic::fleet
