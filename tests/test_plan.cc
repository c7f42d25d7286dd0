/**
 * @file
 * The deployment planner: objective scoring, the per-coordinate
 * argmax against synthetic cells (cross-checked exhaustively), the
 * plan artifact's strict JSON round trip, decision determinism across
 * thread counts, the planned fleet honoring its choices while keeping
 * the hash-dealt env/net/pipeline/seed deals, and the acceptance
 * property the subsystem exists for: a decided plan's confirming run
 * ties-or-beats every uniform single-kernel baseline.
 */

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <sstream>

#include "plan/planner.hh"
#include "telemetry/sonicz.hh"

namespace sonic
{
namespace
{

using plan::Objective;

/** A synthetic probe row scoring `score` under InferencesPerDay
 * (liveSeconds = one day makes the per-device value equal the
 * inference count). */
fleet::DeviceTelemetry
syntheticProbe(const std::string &net, kernels::Impl impl,
               const env::EnvRef &environment,
               const std::string &pipeline, u32 score)
{
    fleet::DeviceTelemetry t;
    t.assignment.net = net;
    t.assignment.impl = impl;
    t.assignment.environment = environment;
    t.assignment.pipeline = pipeline;
    t.inferencesCompleted = score;
    t.liveSeconds = 86400.0;
    return t;
}

fleet::FleetPlan
twoByTwoScenario()
{
    fleet::FleetPlan p;
    p.devices = 10;
    p.nets = {"MNIST", "HAR"};
    p.impls = {kernels::Impl::Sonic, kernels::Impl::Tails};
    p.environments = {{"solar", 1e-3}, {"rf-paper", 100e-6}};
    p.pipelines = {"infer-only"};
    p.maxInferencesPerDevice = 1;
    return p;
}

TEST(PlanObjective, ScoresTheCountersByTheirDefinitions)
{
    // The columnar ingest and the probes score the same counters
    // struct through one function; pin its three definitions.
    std::mt19937_64 rng(0x0b1);
    for (u32 i = 0; i < 200; ++i) {
        fleet::DeviceCounters c;
        c.inferencesCompleted = static_cast<u32>(rng() % 4);
        c.resultsDelivered = static_cast<u32>(rng() % 4);
        c.liveSeconds = static_cast<f64>(rng() % 100000) / 7.0;
        c.deadSeconds = static_cast<f64>(rng() % 100000) / 3.0;
        c.energyJ = static_cast<f64>(rng() % 1000) / 11.0;
        const f64 total = c.totalSeconds();
        EXPECT_EQ(std::bit_cast<u64>(plan::objectiveValue(
                      Objective::DeliveredPerDay, c)),
                  std::bit_cast<u64>(
                      total > 0.0 ? c.resultsDelivered * 86400.0 / total
                                  : 0.0));
        EXPECT_EQ(std::bit_cast<u64>(plan::objectiveValue(
                      Objective::InferencesPerDay, c)),
                  std::bit_cast<u64>(c.inferencesPerDay()));
        if (c.inferencesCompleted > 0) {
            EXPECT_EQ(std::bit_cast<u64>(plan::objectiveValue(
                          Objective::EnergyPerInference, c)),
                      std::bit_cast<u64>(-c.energyPerInferenceJ()));
        }
    }

    // A device that completes nothing must not look energy-efficient:
    // it is charged the fixed dead-device penalty instead of 0 J/inf.
    fleet::DeviceTelemetry dead;
    dead.energyJ = 0.0;
    EXPECT_EQ(plan::objectiveValue(Objective::EnergyPerInference, dead),
              -plan::kDeadDevicePenaltyJ);

    Objective parsed;
    for (const auto objective :
         {Objective::DeliveredPerDay, Objective::InferencesPerDay,
          Objective::EnergyPerInference}) {
        ASSERT_TRUE(plan::objectiveFromName(
            plan::objectiveName(objective), &parsed));
        EXPECT_EQ(parsed, objective);
    }
    EXPECT_FALSE(plan::objectiveFromName("no-such-objective", &parsed));
}

TEST(Planner, ArgmaxMatchesSyntheticCellsAndExhaustiveCheck)
{
    const plan::Scenario scenario{"", twoByTwoScenario()};
    const auto &envs = scenario.plan.environments;

    plan::PlanModel model(Objective::InferencesPerDay);
    const auto feed = [&](const std::string &net, kernels::Impl impl,
                          const env::EnvRef &env, u32 score) {
        // Two devices per cell: accumulation averages them.
        model.addProbe(
            syntheticProbe(net, impl, env, "infer-only", score));
        model.addProbe(
            syntheticProbe(net, impl, env, "infer-only", score));
    };
    feed("MNIST", kernels::Impl::Sonic, envs[0], 5); // SONIC wins
    feed("MNIST", kernels::Impl::Tails, envs[0], 3);
    feed("HAR", kernels::Impl::Sonic, envs[0], 2); // TAILS wins
    feed("HAR", kernels::Impl::Tails, envs[0], 7);
    feed("MNIST", kernels::Impl::Sonic, envs[1], 4); // tie -> first
    feed("MNIST", kernels::Impl::Tails, envs[1], 4);
    feed("HAR", kernels::Impl::Tails, envs[1], 1); // only TAILS has data

    plan::PlannerOptions options;
    options.objective = Objective::InferencesPerDay;
    options.probe = false;
    plan::Plan decided;
    plan::DecideInfo info;
    std::string error;
    ASSERT_TRUE(plan::decide(scenario, &model, options, &decided,
                             &info, &error))
        << error;
    EXPECT_TRUE(info.exhaustiveChecked); // 2^4 = 16 <= limit
    EXPECT_EQ(info.probeFleets, 0u);

    ASSERT_EQ(decided.choices.size(), 4u);
    // Choices are emitted in envLabels x nets x pipelines order.
    EXPECT_EQ(decided.choices[0].impl, "SONIC");
    EXPECT_EQ(decided.choices[0].score, 5.0);
    EXPECT_EQ(decided.choices[0].devicesObserved, 2u);
    EXPECT_TRUE(decided.choices[0].probed);
    EXPECT_EQ(decided.choices[1].impl, "TAILS");
    EXPECT_EQ(decided.choices[2].impl, "SONIC"); // tie-break: first
    EXPECT_EQ(decided.choices[3].impl, "TAILS"); // only candidate

    // A coordinate with no data under any kernel is a hard error
    // naming the hole, not a silent fallback.
    plan::PlanModel sparse(Objective::InferencesPerDay);
    sparse.addProbe(syntheticProbe("MNIST", kernels::Impl::Sonic,
                                   envs[0], "infer-only", 1));
    EXPECT_FALSE(plan::decide(scenario, &sparse, options, &decided,
                              &info, &error));
    EXPECT_NE(error.find("no data for coordinate"), std::string::npos);
}

TEST(Plan, JsonRoundTripIsExact)
{
    plan::Plan p;
    p.objective = Objective::EnergyPerInference;
    p.scenario = "unit";
    p.devices = 42;
    p.horizonSeconds = 86400.0;
    p.maxInferencesPerDevice = 3;
    p.profile = "standard";
    // > 2^53: survives only because the seed serializes as a string.
    p.baseSeed = 0xdeadbeefcafef00dull;
    p.nets = {"MNIST", "HAR"};
    p.impls = {"SONIC", "TAILS"};
    p.envLabels = {"solar@1mF", "rf-paper@100uF"};
    p.pipelines = {"infer-only"};
    u32 flip = 0;
    for (const auto &env : p.envLabels) {
        for (const auto &net : p.nets) {
            plan::PlanChoice choice;
            choice.envLabel = env;
            choice.net = net;
            choice.pipeline = "infer-only";
            choice.impl = p.impls[flip++ % 2];
            choice.score = -1.0 / 3.0; // needs round-trip precision
            choice.devicesObserved = flip;
            choice.probed = flip % 2 == 0;
            p.choices.push_back(std::move(choice));
        }
    }

    const std::string json = p.toJson();
    plan::Plan q;
    std::string error;
    ASSERT_TRUE(plan::Plan::fromJson(json, &q, &error)) << error;
    EXPECT_EQ(q.toJson(), json);
    EXPECT_EQ(q.baseSeed, p.baseSeed);
    EXPECT_EQ(q.objective, p.objective);
    EXPECT_EQ(q.choices.size(), p.choices.size());

    // Strictness: unknown format versions are rejected...
    std::string wrong_format = json;
    wrong_format.replace(wrong_format.find("sonic-plan-v1"), 13,
                         "sonic-plan-v9");
    EXPECT_FALSE(plan::Plan::fromJson(wrong_format, &q, &error));

    // ...as are plans that do not cover the coordinate cross product,
    plan::Plan missing = p;
    missing.choices.pop_back();
    EXPECT_FALSE(plan::Plan::fromJson(missing.toJson(), &q, &error));
    EXPECT_FALSE(error.empty());

    // duplicate coordinates,
    plan::Plan duplicated = p;
    duplicated.choices.back() = duplicated.choices.front();
    EXPECT_FALSE(plan::Plan::fromJson(duplicated.toJson(), &q, &error));

    // and choices naming a kernel outside the candidate list.
    plan::Plan foreign = p;
    foreign.choices[0].impl = "no-such-kernel";
    EXPECT_FALSE(plan::Plan::fromJson(foreign.toJson(), &q, &error));
}

TEST(Plan, FleetPlanHonorsChoicesAndPreservesDeals)
{
    fleet::FleetPlan base = twoByTwoScenario();
    const plan::Scenario scenario{"", base};
    plan::PlanModel model(Objective::InferencesPerDay);
    plan::PlannerOptions options;
    options.objective = Objective::InferencesPerDay;
    options.probeDevices = 0; // full population: exact cells
    plan::Plan decided;
    std::string error;
    ASSERT_TRUE(plan::decide(scenario, &model, options, &decided,
                             nullptr, &error))
        << error;

    const fleet::FleetPlan planned = decided.toFleetPlan();
    ASSERT_EQ(planned.implByCoordinate.size(),
              decided.choices.size());
    for (u32 i = 0; i < base.devices; ++i) {
        const auto dealt = base.assignmentFor(i);
        const auto assigned = planned.assignmentFor(i);
        // Only the kernel lane may differ: same model, environment,
        // pipeline, and seed, so fleets are device-for-device
        // comparable.
        EXPECT_EQ(assigned.net, dealt.net);
        EXPECT_EQ(assigned.environment.label(),
                  dealt.environment.label());
        EXPECT_EQ(assigned.pipeline, dealt.pipeline);
        EXPECT_EQ(assigned.seed, dealt.seed);
        const auto key = fleet::FleetPlan::coordinateKey(
            dealt.environment.label(), dealt.net, dealt.pipeline);
        const auto it = planned.implByCoordinate.find(key);
        ASSERT_NE(it, planned.implByCoordinate.end());
        EXPECT_EQ(assigned.impl, it->second);
    }

    // A baseline fleet is the same deployment pinned to one kernel.
    const auto baseline = decided.toBaselineFleetPlan("TAILS");
    EXPECT_TRUE(baseline.implByCoordinate.empty());
    for (u32 i = 0; i < base.devices; ++i)
        EXPECT_EQ(baseline.assignmentFor(i).impl,
                  kernels::Impl::Tails);

    // The plan-aware sweep covers exactly the axes the choices use.
    const auto sweep = decided.toSweepPlan();
    EXPECT_GT(sweep.size(), 0u);
}

TEST(FleetPlan, ValidateRejectsBrokenPlannedAssignments)
{
    fleet::FleetPlan p = twoByTwoScenario();
    const auto key = [&](u64 env, const char *net) {
        return fleet::FleetPlan::coordinateKey(
            p.environments[env].label(), net, "infer-only");
    };

    fleet::FleetPlan partial = p;
    partial.implByCoordinate[key(0, "MNIST")] = kernels::Impl::Sonic;
    EXPECT_DEATH(partial.validate(), "covers no coordinate");

    fleet::FleetPlan stale = p;
    for (u64 e = 0; e < 2; ++e)
        for (const char *net : {"MNIST", "HAR"})
            stale.implByCoordinate[key(e, net)] = kernels::Impl::Sonic;
    stale.implByCoordinate["mars@1F/LeNet/none"] =
        kernels::Impl::Sonic;
    EXPECT_DEATH(stale.validate(), "no device can land on");

    fleet::FleetPlan foreign = p;
    foreign.impls = {kernels::Impl::Sonic};
    for (u64 e = 0; e < 2; ++e)
        for (const char *net : {"MNIST", "HAR"})
            foreign.implByCoordinate[key(e, net)] =
                kernels::Impl::Tails;
    EXPECT_DEATH(foreign.validate(), "outside the plan's impl");
}

TEST(Planner, DecisionIsDeterministicAcrossThreadCounts)
{
    fleet::FleetPlan base = twoByTwoScenario();
    base.devices = 16;
    const plan::Scenario scenario{"", base};

    const auto decide_with = [&](u32 threads) {
        plan::PlanModel model(Objective::InferencesPerDay);
        plan::PlannerOptions options;
        options.objective = Objective::InferencesPerDay;
        options.probeDevices = 0;
        options.fleet.threads = threads;
        plan::Plan decided;
        std::string error;
        EXPECT_TRUE(plan::decide(scenario, &model, options, &decided,
                                 nullptr, &error))
            << error;
        return decided.toJson();
    };
    const std::string one = decide_with(1);
    EXPECT_EQ(decide_with(4), one);
    EXPECT_EQ(decide_with(1), one);
}

TEST(Planner, PlanTiesOrBeatsEveryUniformBaseline)
{
    // The acceptance property, at test scale: with uncapped probes the
    // cell estimates are the exact per-coordinate populations, so the
    // confirming run CANNOT lose to a uniform baseline (the plan mean
    // is the sum of per-coordinate maxima).
    fleet::FleetPlan base;
    base.devices = 24;
    base.nets = {"MNIST", "HAR"};
    base.impls = {kernels::Impl::Sonic, kernels::Impl::Tails};
    base.environments = {{"solar", 1e-3}, {"rf-paper", 100e-6}};
    base.pipelines = {"wildlife"};
    base.maxInferencesPerDevice = 1;
    const plan::Scenario scenario{"", base};

    plan::PlanModel model(Objective::InferencesPerDay);
    plan::PlannerOptions options;
    options.objective = Objective::InferencesPerDay;
    options.probeDevices = 0;
    plan::Plan decided;
    plan::DecideInfo info;
    std::string error;
    ASSERT_TRUE(plan::decide(scenario, &model, options, &decided,
                             &info, &error))
        << error;
    EXPECT_EQ(info.probeFleets, 2u);

    const auto result = plan::confirm(decided, options.fleet);
    EXPECT_TRUE(result.planWins);
    ASSERT_EQ(result.baselines.size(), 2u);
    for (const auto &baseline : result.baselines)
        EXPECT_GE(result.planObjective, baseline.objective)
            << "loses to all-" << baseline.impl;

    // The confirming summary is a fleet summary: byte-identical
    // across thread counts.
    fleet::FleetOptions threaded = options.fleet;
    threaded.threads = 3;
    const auto re_confirmed = plan::confirm(decided, threaded);
    EXPECT_EQ(re_confirmed.planSummaryJson, result.planSummaryJson);
    EXPECT_EQ(std::bit_cast<u64>(re_confirmed.planObjective),
              std::bit_cast<u64>(result.planObjective));
}

TEST(Planner, IngestedTelemetryFeedsTheModel)
{
    // Round trip through the real pipeline: run the scenario fleet to
    // .sonicz, ingest it, decide WITHOUT probes. Hash-dealt telemetry
    // covers each (coordinate, kernel) cell with a disjoint device
    // subset, so every cell needs at least one device to land on it —
    // 64 devices over 8 cells makes that hold for this seed.
    fleet::FleetPlan base = twoByTwoScenario();
    base.devices = 64;
    const plan::Scenario scenario{"", base};

    std::ostringstream os;
    telemetry::SoniczFleetSink sink(os);
    fleet::runFleet(base, {}, {&sink});

    plan::PlanModel model(Objective::InferencesPerDay);
    std::istringstream in(os.str());
    std::string error;
    ASSERT_TRUE(model.ingestSonicz(in, &error)) << error;
    EXPECT_EQ(model.rowsIngested(), base.devices);

    plan::PlannerOptions options;
    options.objective = Objective::InferencesPerDay;
    options.probe = false;
    plan::Plan decided;
    ASSERT_TRUE(plan::decide(scenario, &model, options, &decided,
                             nullptr, &error))
        << error;
    EXPECT_EQ(decided.choices.size(), 4u);
    for (const auto &choice : decided.choices) {
        EXPECT_FALSE(choice.probed);
        EXPECT_GT(choice.devicesObserved, 0u);
    }
}

} // namespace
} // namespace sonic
