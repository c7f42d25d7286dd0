#include "plan/plan.hh"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "dnn/zoo.hh"
#include "env/environment.hh"
#include "kernels/runner.hh"
#include "pipeline/pipeline.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/json_parse.hh"
#include "util/logging.hh"

namespace sonic::plan
{

namespace
{

constexpr const char *kPlanFormat = "sonic-plan-v1";

} // namespace

const char *
objectiveName(Objective objective)
{
    switch (objective) {
      case Objective::DeliveredPerDay: return "delivered-per-day";
      case Objective::InferencesPerDay: return "inferences-per-day";
      case Objective::EnergyPerInference:
        return "energy-per-inference";
    }
    return "?";
}

bool
objectiveFromName(const std::string &name, Objective *out)
{
    for (const auto o :
         {Objective::DeliveredPerDay, Objective::InferencesPerDay,
          Objective::EnergyPerInference}) {
        if (name == objectiveName(o)) {
            *out = o;
            return true;
        }
    }
    return false;
}

f64
objectiveValue(Objective objective, const fleet::DeviceCounters &c)
{
    const f64 total_seconds = c.totalSeconds();
    switch (objective) {
      case Objective::DeliveredPerDay:
        return total_seconds > 0.0
            ? static_cast<f64>(c.resultsDelivered) * 86400.0
                  / total_seconds
            : 0.0;
      case Objective::InferencesPerDay:
        return total_seconds > 0.0
            ? static_cast<f64>(c.inferencesCompleted) * 86400.0
                  / total_seconds
            : 0.0;
      case Objective::EnergyPerInference:
        return c.inferencesCompleted > 0
            ? -(c.energyJ / static_cast<f64>(c.inferencesCompleted))
            : -kDeadDevicePenaltyJ;
    }
    return 0.0;
}

std::string
Plan::toJson() const
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject()
        .br(2).field("format", kPlanFormat)
        .br(2).field("objective", objectiveName(objective))
        .br(2).key("scenario").beginObject()
        .br(4).field("name", scenario)
        .br(4).field("devices", devices)
        .br(4).field("horizonSeconds", horizonSeconds)
        .br(4).field("maxInferencesPerDevice", maxInferencesPerDevice)
        .br(4).field("profile", profile)
        .br(4).field("baseSeed", std::to_string(baseSeed))
        .br(4).key("nets").array(nets)
        .br(4).key("impls").array(impls)
        .br(4).key("environments").array(envLabels)
        .br(4).key("pipelines").array(pipelines)
        .br(2).end()
        .br(2).key("choices").beginArray();
    for (const auto &c : choices)
        w.br(4).beginObject().field("env", c.envLabel)
            .field("net", c.net)
            .field("pipeline", c.pipeline)
            .field("impl", c.impl)
            .field("score", c.score)
            .field("devices", c.devicesObserved)
            .field("probed", c.probed)
            .end();
    w.br(2, /*evenEmpty=*/true).end().br(0).end();
    return os.str();
}

bool
Plan::fromJson(const std::string &text, Plan *out, std::string *error)
{
    using jsonp::JsonValue;
    Plan plan;
    JsonValue root;
    if (!jsonp::parseJson(text, &root, error))
        return false;
    const auto *doc = root.object();
    if (doc == nullptr) {
        *error = "plan: document is not a JSON object";
        return false;
    }

    std::string format;
    if (!jsonp::getString(*doc, "format", &format, error, "plan"))
        return false;
    if (format != kPlanFormat) {
        *error = "plan: unknown format '" + format + "' (expected "
               + kPlanFormat + ")";
        return false;
    }
    std::string objective_name;
    if (!jsonp::getString(*doc, "objective", &objective_name, error,
                          "plan"))
        return false;
    if (!objectiveFromName(objective_name, &plan.objective)) {
        *error = "plan: unknown objective '" + objective_name + "'";
        return false;
    }

    const auto scenario_it = doc->find("scenario");
    if (scenario_it == doc->end()
        || scenario_it->second.object() == nullptr) {
        *error = "plan: missing \"scenario\" object";
        return false;
    }
    const auto &sc = *scenario_it->second.object();
    std::string seed_text;
    if (!jsonp::getString(sc, "name", &plan.scenario, error,
                          "plan.scenario")
        || !jsonp::getU32(sc, "devices", &plan.devices, error,
                          "plan.scenario")
        || !jsonp::getF64(sc, "horizonSeconds", &plan.horizonSeconds,
                          error, "plan.scenario")
        || !jsonp::getU32(sc, "maxInferencesPerDevice",
                          &plan.maxInferencesPerDevice, error,
                          "plan.scenario")
        || !jsonp::getString(sc, "profile", &plan.profile, error,
                             "plan.scenario")
        || !jsonp::getString(sc, "baseSeed", &seed_text, error,
                             "plan.scenario"))
        return false;
    if (!cli::parseU64(seed_text, &plan.baseSeed)) {
        *error = "plan.scenario: baseSeed is not a decimal u64 "
                 "string";
        return false;
    }
    app::ProfileVariant profile_check;
    if (!app::profileFromName(plan.profile, &profile_check)) {
        *error = "plan.scenario: unknown profile '" + plan.profile
               + "'";
        return false;
    }

    const auto read_strings = [&](const char *key,
                                  std::vector<std::string> *dst) {
        const auto it = sc.find(key);
        if (it == sc.end() || it->second.array() == nullptr) {
            *error = std::string("plan.scenario: missing array \"")
                   + key + "\"";
            return false;
        }
        for (const auto &entry : *it->second.array()) {
            if (entry.string() == nullptr) {
                *error = std::string("plan.scenario: non-string "
                                     "entry in \"")
                       + key + "\"";
                return false;
            }
            dst->push_back(*entry.string());
        }
        if (dst->empty()) {
            *error = std::string("plan.scenario: empty \"") + key
                   + "\" axis";
            return false;
        }
        return true;
    };
    if (!read_strings("nets", &plan.nets)
        || !read_strings("impls", &plan.impls)
        || !read_strings("environments", &plan.envLabels)
        || !read_strings("pipelines", &plan.pipelines))
        return false;

    auto &zoo = dnn::ModelZoo::instance();
    for (const auto &net : plan.nets) {
        if (!zoo.contains(net)) {
            *error = "plan: unknown model '" + net
                   + "'; registered models: " + zoo.availableList();
            return false;
        }
    }
    for (const auto &impl : plan.impls) {
        kernels::Impl id = kernels::Impl::Base;
        if (!kernels::implFromName(impl, &id)) {
            *error = "plan: unknown kernel '" + impl + "'";
            return false;
        }
    }
    auto &envs = env::EnvRegistry::instance();
    for (const auto &label : plan.envLabels) {
        env::EnvRef ref;
        std::string parse_error;
        if (!env::parseEnvRef(label, &ref, &parse_error)) {
            *error = "plan: " + parse_error;
            return false;
        }
        if (!envs.contains(ref.env)) {
            *error = "plan: unknown environment '" + ref.env
                   + "'; registered environments: "
                   + envs.availableList();
            return false;
        }
    }
    for (const auto &pipe : plan.pipelines) {
        if (!pipeline::contains(pipe)) {
            *error = "plan: unknown pipeline '" + pipe + "'";
            return false;
        }
    }

    const auto choices_it = doc->find("choices");
    if (choices_it == doc->end()
        || choices_it->second.array() == nullptr) {
        *error = "plan: missing \"choices\" array";
        return false;
    }
    std::set<std::string> expected;
    for (const auto &env : plan.envLabels)
        for (const auto &net : plan.nets)
            for (const auto &pipe : plan.pipelines)
                expected.insert(
                    fleet::FleetPlan::coordinateKey(env, net, pipe));
    std::set<std::string> seen;
    for (const auto &entry : *choices_it->second.array()) {
        const auto *obj = entry.object();
        if (obj == nullptr) {
            *error = "plan: non-object entry in \"choices\"";
            return false;
        }
        PlanChoice choice;
        u64 observed = 0;
        if (!jsonp::getString(*obj, "env", &choice.envLabel, error,
                              "plan.choice")
            || !jsonp::getString(*obj, "net", &choice.net, error,
                                 "plan.choice")
            || !jsonp::getString(*obj, "pipeline", &choice.pipeline,
                                 error, "plan.choice")
            || !jsonp::getString(*obj, "impl", &choice.impl, error,
                                 "plan.choice")
            || !jsonp::getF64(*obj, "score", &choice.score, error,
                              "plan.choice")
            || !jsonp::getU64(*obj, "devices", &observed, error,
                              "plan.choice")
            || !jsonp::getBool(*obj, "probed", &choice.probed, error,
                               "plan.choice"))
            return false;
        choice.devicesObserved = observed;
        const auto key = fleet::FleetPlan::coordinateKey(
            choice.envLabel, choice.net, choice.pipeline);
        if (expected.find(key) == expected.end()) {
            *error = "plan: choice at '" + key
                   + "' names a coordinate outside the scenario "
                     "cross product";
            return false;
        }
        if (!seen.insert(key).second) {
            *error = "plan: duplicate choice for coordinate '" + key
                   + "'";
            return false;
        }
        if (std::find(plan.impls.begin(), plan.impls.end(),
                      choice.impl)
            == plan.impls.end()) {
            *error = "plan: choice at '" + key + "' picks kernel '"
                   + choice.impl
                   + "' outside the candidate impl list";
            return false;
        }
        plan.choices.push_back(std::move(choice));
    }
    if (seen.size() != expected.size()) {
        *error = "plan: choices cover " + std::to_string(seen.size())
               + " of " + std::to_string(expected.size())
               + " scenario coordinates";
        return false;
    }

    *out = std::move(plan);
    return true;
}

bool
Plan::fromFile(const std::string &path, Plan *out, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (fromJson(text.str(), out, error))
        return true;
    *error = "bad plan " + path + ": " + *error;
    return false;
}

fleet::FleetPlan
Plan::toFleetPlan() const
{
    fleet::FleetPlan out;
    out.devices = devices;
    out.horizonSeconds = horizonSeconds;
    out.maxInferencesPerDevice = maxInferencesPerDevice;
    out.baseSeed = baseSeed;
    SONIC_ASSERT(app::profileFromName(profile, &out.profile),
                 "plan profile was validated at parse time");
    out.nets.assign(nets.begin(), nets.end());
    out.impls.clear();
    for (const auto &impl : impls)
        out.impls.push_back(kernels::implByName(impl));
    out.environments.clear();
    for (const auto &label : envLabels) {
        env::EnvRef ref;
        std::string parse_error;
        SONIC_ASSERT(env::parseEnvRef(label, &ref, &parse_error),
                     "plan environments were validated at parse time");
        out.environments.push_back(std::move(ref));
    }
    out.pipelines.assign(pipelines.begin(), pipelines.end());
    for (const auto &choice : choices)
        out.implByCoordinate[fleet::FleetPlan::coordinateKey(
            choice.envLabel, choice.net, choice.pipeline)] =
            kernels::implByName(choice.impl);
    return out;
}

fleet::FleetPlan
Plan::toBaselineFleetPlan(const std::string &impl) const
{
    // Same scenario, every device on one kernel: a single-entry impl
    // distribution maps the (independent) impl hash lane to `impl` on
    // every device while the env/net/pipeline/seed deals stay those of
    // the planned fleet — device-for-device comparable.
    fleet::FleetPlan out = toFleetPlan();
    out.implByCoordinate.clear();
    out.impls = {kernels::implByName(impl)};
    return out;
}

app::SweepPlan
Plan::toSweepPlan() const
{
    std::vector<std::string> used_nets, used_impls, used_envs;
    const auto add_unique = [](std::vector<std::string> *values,
                               const std::string &v) {
        if (std::find(values->begin(), values->end(), v)
            == values->end())
            values->push_back(v);
    };
    for (const auto &choice : choices) {
        add_unique(&used_nets, choice.net);
        add_unique(&used_impls, choice.impl);
        add_unique(&used_envs, choice.envLabel);
    }
    app::SweepPlan sweep;
    sweep.nets(std::vector<dnn::NetRef>(used_nets.begin(),
                                        used_nets.end()))
        .implNames(used_impls)
        .environmentLabels(used_envs)
        .baseSeed(baseSeed);
    return sweep;
}

} // namespace sonic::plan
