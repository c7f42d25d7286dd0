#include "fleet/fleet.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <ostream>
#include <sstream>
#include <typeinfo>

#include "dnn/device_net.hh"
#include "fleet/round_cache.hh"
#include "trace/trace.hh"
#include "util/progress.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace sonic::fleet
{

// --- FleetPlan ------------------------------------------------------

std::string
FleetPlan::coordinateKey(const std::string &envLabel,
                         const std::string &net,
                         const std::string &pipeline)
{
    return envLabel + "/" + net + "/" + pipeline;
}

void
FleetPlan::validate() const
{
    if (devices == 0)
        fatal("fleet needs at least one device");
    if (nets.empty())
        fatal("empty fleet net distribution");
    if (impls.empty())
        fatal("empty fleet impl distribution");
    if (environments.empty())
        fatal("empty fleet environment distribution");
    if (!(horizonSeconds > 0.0 && std::isfinite(horizonSeconds)))
        fatal("fleet horizon must be positive and finite");
    auto &zoo = dnn::ModelZoo::instance();
    for (const auto &net : nets) {
        if (!zoo.contains(net))
            fatal("unknown model '", net,
                  "' in the fleet net distribution; registered "
                  "models: ",
                  zoo.availableList());
    }
    auto &registry = env::EnvRegistry::instance();
    for (const auto &ref : environments) {
        if (ref.empty() || !registry.contains(ref.env))
            fatal("unknown environment '", ref.env,
                  "' in the fleet environment distribution; "
                  "registered environments: ",
                  registry.availableList());
    }
    for (const auto impl : impls) {
        if (static_cast<u32>(impl) >= std::size(kernels::kAllImpls))
            fatal("unregistered implementation id in the fleet impl "
                  "distribution");
    }
    if (pipelines.empty())
        fatal("empty fleet pipeline distribution");
    for (const auto &name : pipelines) {
        if (!pipeline::contains(name))
            fatal("unknown pipeline '", name,
                  "' in the fleet pipeline distribution; registered "
                  "pipelines:\n",
                  pipeline::availableList());
    }

    if (implByCoordinate.empty())
        return;
    // A planned assignment must name a kernel from `impls` for EVERY
    // coordinate a device can land on — a partial plan would silently
    // fall back to hash-dealt kernels for the holes.
    u64 covered = 0;
    for (const auto &env : environments) {
        for (const auto &net : nets) {
            for (const auto &pipe : pipelines) {
                const auto key = coordinateKey(env.label(), net, pipe);
                const auto it = implByCoordinate.find(key);
                if (it == implByCoordinate.end())
                    fatal("planned assignment covers no coordinate '",
                          key, "' (the plan must assign a kernel to "
                          "every environment x net x pipeline cell)");
                if (std::find(impls.begin(), impls.end(), it->second)
                    == impls.end())
                    fatal("planned assignment at '", key,
                          "' names a kernel outside the plan's impl "
                          "distribution");
                ++covered;
            }
        }
    }
    if (covered != implByCoordinate.size())
        fatal("planned assignment has ",
              implByCoordinate.size() - covered,
              " coordinate(s) no device can land on (stale plan for "
              "a different scenario?)");
}

DeviceAssignment
FleetPlan::assignmentFor(u32 device_index) const
{
    // A pure function of (baseSeed, deviceIndex) and the distribution
    // lists: device 17 is the same deployment no matter how many
    // threads race over the fleet or which worker picks it up.
    const u64 h = mix64(mix64(baseSeed) ^ (0xf1ee7u + device_index));
    DeviceAssignment a;
    a.deviceIndex = device_index;
    a.netIndex = static_cast<u32>(mix64(h ^ 1) % nets.size());
    a.net = nets[a.netIndex];
    a.implIndex = static_cast<u32>(mix64(h ^ 2) % impls.size());
    a.impl = impls[a.implIndex];
    a.envIndex = static_cast<u32>(mix64(h ^ 3) % environments.size());
    a.environment = environments[a.envIndex];
    a.seed = mix64(h ^ 4);
    // h^5 keeps the net/impl/env/seed deals of pre-pipeline plans
    // byte-identical: a single-pipeline plan is the same fleet as
    // before, just with a named execution loop.
    a.pipelineIndex = static_cast<u32>(mix64(h ^ 5) % pipelines.size());
    a.pipeline = pipelines[a.pipelineIndex];

    // A planned assignment overrides ONLY the kernel deal: the impl
    // lane (h^2) is independent of the env/net/pipeline/seed lanes, so
    // the devices landing on each coordinate — and their seeds — are
    // identical to the hash-dealt fleet's. That is the separability
    // the planner's beats-every-baseline guarantee rests on.
    if (!implByCoordinate.empty()) {
        const auto it = implByCoordinate.find(coordinateKey(
            a.environment.label(), a.net, a.pipeline));
        SONIC_ASSERT(it != implByCoordinate.end(),
                     "planned assignment misses a coordinate "
                     "(validate() was skipped?)");
        const auto impl_pos =
            std::find(impls.begin(), impls.end(), it->second);
        SONIC_ASSERT(impl_pos != impls.end(),
                     "planned kernel outside the impl distribution");
        a.implIndex =
            static_cast<u32>(impl_pos - impls.begin());
        a.impl = *impl_pos;
    }
    return a;
}

// --- Device lifetime ------------------------------------------------

namespace
{

/** Execution context threaded through the memoizing device loop; all
 * pointers may be null (plain unmemoized simulation). */
struct SimContext
{
    RoundCache *roundCache = nullptr;
    LifetimeCache *lifetimeCache = nullptr;
    std::atomic<u64> *uncachedRounds = nullptr;
    bool verify = false;
    /** Event recorder when this device is trace-sampled; forces fully
     * unmemoized execution so cache state is untouched. */
    trace::TraceRecorder *recorder = nullptr;
};

/**
 * The plan's names, resolved once per run into rows addressed by the
 * assignment's list positions (netIndex, implIndex, envIndex,
 * pipelineIndex), so devices take no registry lock. Models are built
 * here, flash images and datasets included, on the calling thread, so
 * workers only read immutable artifacts (same discipline as
 * Engine::run).
 */
struct PlanRows
{
    std::vector<const dnn::ModelEntry *> nets;
    std::vector<std::string> implNames;
    std::vector<const env::EnvEntry *> environments;
    std::vector<std::string> envLabels;
    std::vector<const pipeline::PipelineSpec *> pipelines;
};

PlanRows
resolveRows(const FleetPlan &plan)
{
    PlanRows rows;
    for (const auto &net : plan.nets) {
        rows.nets.push_back(&dnn::ModelZoo::instance().get(net));
        rows.nets.back()->flashImage();
        rows.nets.back()->dataset();
    }
    for (const auto impl : plan.impls)
        rows.implNames.emplace_back(kernels::implName(impl));
    for (const auto &ref : plan.environments) {
        rows.environments.push_back(&env::EnvRegistry::instance().get(ref));
        rows.envLabels.push_back(ref.label());
    }
    for (const auto &name : plan.pipelines)
        rows.pipelines.push_back(&pipeline::get(name));
    return rows;
}

/** A real round's full result: the clock-independent trace plus the
 * clock-dependent dead time it observed. */
struct RoundRun
{
    RoundTrace trace;
    f64 deadSeconds = 0.0;
};

void
verifyTracesMatch(const RoundTrace &cached, const RoundTrace &fresh,
                  const DeviceAssignment &a, std::string_view impl_name,
                  u32 round_index)
{
    const auto die = [&](const char *field) {
        fatal("fleet round-cache divergence on '", field, "': device ",
              a.deviceIndex, " (", a.net, " / ", impl_name, " / ",
              a.environment.label(), " / ", a.pipeline, "), round ",
              round_index,
              " — the memoized trace does not match re-execution");
    };
    if (cached.nvmDigest != fresh.nvmDigest)
        die("nvmDigest");
    if (cached.logitsDigest != fresh.logitsDigest)
        die("logitsDigest");
    if (cached.liveSeconds != fresh.liveSeconds)
        die("liveSeconds");
    if (cached.energyJ != fresh.energyJ)
        die("energyJ");
    if (cached.senseEnergyJ != fresh.senseEnergyJ)
        die("senseEnergyJ");
    if (cached.radioEnergyJ != fresh.radioEnergyJ)
        die("radioEnergyJ");
    if (cached.backoffSeconds != fresh.backoffSeconds)
        die("backoffSeconds");
    if (cached.endLevelNj != fresh.endLevelNj)
        die("endLevelNj");
    if (cached.reboots != fresh.reboots)
        die("reboots");
    if (cached.txAttempts != fresh.txAttempts
        || cached.txFailedAttempts != fresh.txFailedAttempts)
        die("txAccounting");
    if (cached.completed != fresh.completed
        || cached.nonTerminating != fresh.nonTerminating
        || cached.delivered != fresh.delivered
        || cached.txGaveUp != fresh.txGaveUp)
        die("flags");
    if (cached.liveDeltas != fresh.liveDeltas)
        die("liveDeltas");
}

void
verifyLifetimesMatch(const DeviceTelemetry &cached,
                     const DeviceTelemetry &fresh)
{
    const DeviceCounters &a = cached, &b = fresh;
    const bool same = a == b
        && cached.inferenceSeconds == fresh.inferenceSeconds
        && cached.deliverySeconds == fresh.deliverySeconds;
    if (!same)
        fatal("fleet lifetime-cache divergence: device ",
              fresh.assignment.deviceIndex,
              " does not replay its memoized always-on lifetime");
}

DeviceTelemetry
simulateDeviceImpl(const FleetPlan &plan, const PlanRows &rows,
                   u32 device_index, const SimContext &ctx)
{
    DeviceTelemetry t;
    t.assignment = plan.assignmentFor(device_index);

    const auto &entry = *rows.nets[t.assignment.netIndex];
    const auto &image = entry.flashImage();
    const auto &data = entry.dataset();
    const auto &spec = *rows.pipelines[t.assignment.pipelineIndex];
    auto supply = rows.environments[t.assignment.envIndex]->make(
        t.assignment.environment, t.assignment.seed);

    // Memoization eligibility. Sharing across devices is sound only
    // when the round outcome cannot see the seed (ackInvariant) and
    // the supply's semantics are the exact ones the replay reproduces.
    // HarvestSupply is final, so the cast admits it alone; the typeid
    // check on ContinuousPower excludes user-registered subclasses
    // with unknown behavior.
    const bool ack_invariant = pipeline::ackInvariant(spec);
    auto *harvest = dynamic_cast<env::HarvestSupply *>(supply.get());
    // Traced devices run every round for real: replaying a memoized
    // round would produce telemetry but no events, and inserting their
    // rounds would be redundant — so sampling leaves the caches
    // exactly as an untraced run would populate them.
    const bool round_cacheable = ctx.recorder == nullptr
        && ctx.roundCache != nullptr
        && harvest != nullptr
        && ack_invariant;

    // Always-on supplies never reboot and never consult a clock: the
    // whole lifetime is one cache entry.
    const bool lifetime_cacheable = ctx.recorder == nullptr
        && ctx.lifetimeCache != nullptr
        && typeid(*supply) == typeid(arch::ContinuousPower)
        && ack_invariant;
    const LifetimeCache::Key life_key{
        t.assignment.netIndex, t.assignment.implIndex,
        t.assignment.envIndex, t.assignment.pipelineIndex};
    DeviceTelemetry memoized_lifetime;
    bool lifetime_hit = false;
    if (lifetime_cacheable
        && ctx.lifetimeCache->find(life_key, &memoized_lifetime)) {
        lifetime_hit = true;
        if (!ctx.verify) {
            memoized_lifetime.assignment = t.assignment;
            return memoized_lifetime;
        }
    }

    // One real (un-memoized) round against the lifetime supply,
    // recording the elapse walk so the trace can be replayed.
    const auto run_real_round = [&](u32 k, bool want_digest) {
        RoundRun run;
        {
            arch::Device dev(
                app::makeProfile(plan.profile),
                std::make_unique<RecordingSupply>(
                    supply.get(), &run.trace.liveDeltas));
            if (ctx.recorder != nullptr) {
                // Each round gets a fresh Device whose clocks restart
                // at zero; the base offsets lift its stamps onto the
                // lifetime timeline accrued so far.
                ctx.recorder->setBase(t.totalSeconds(), t.energyJ);
                dev.setProbe(ctx.recorder);
            }
            dnn::DeviceNetwork net(dev, image);
            const auto round = pipeline::runRound(
                net, t.assignment.impl,
                dnn::DeviceNetwork::quantizeInput(
                    data[k % data.size()].input),
                spec, t.assignment.seed, k);
            dev.power(); // settle the open lease back into the supply
            run.trace.liveSeconds = dev.liveSeconds();
            run.deadSeconds = dev.deadSeconds();
            run.trace.energyJ = dev.consumedJoules();
            const auto &stats = dev.stats();
            run.trace.senseEnergyJ =
                stats.opNanojoules(arch::Op::SenseSample) * 1e-9;
            run.trace.radioEnergyJ =
                (stats.opNanojoules(arch::Op::RadioWake) +
                 stats.opNanojoules(arch::Op::RadioTxByte) +
                 stats.opNanojoules(arch::Op::RadioRxAck)) * 1e-9;
            run.trace.backoffSeconds = round.backoffSeconds;
            run.trace.reboots = round.reboots;
            run.trace.txAttempts = round.txAttempts;
            run.trace.txFailedAttempts = round.txFailedAttempts;
            run.trace.completed = round.completed;
            run.trace.nonTerminating = round.nonTerminating;
            run.trace.delivered = round.delivered;
            run.trace.txGaveUp = round.txGaveUp;
            run.trace.logitsDigest = round.logitsDigest();
            if (want_digest)
                run.trace.nvmDigest = dev.nvmDigest();
        } // ~Device flushes the final elapse into liveDeltas
        run.trace.endLevelNj =
            harvest != nullptr ? harvest->levelNj() : 0.0;
        return run;
    };

    // Accrue one round (memoized or real) into the telemetry with the
    // exact operation sequence the pre-cache loop performed; false
    // means the lifetime ended (DNF or incomplete round).
    const auto accrue_round = [&t](const RoundTrace &tr,
                                   f64 round_dead) {
        t.liveSeconds += tr.liveSeconds;
        t.deadSeconds += round_dead + tr.backoffSeconds;
        t.txBackoffSeconds += tr.backoffSeconds;
        t.energyJ += tr.energyJ;
        t.reboots += tr.reboots;
        t.senseEnergyJ += tr.senseEnergyJ;
        t.radioEnergyJ += tr.radioEnergyJ;
        if (tr.nonTerminating) {
            t.diedNonTerminating = true;
            return false;
        }
        if (!tr.completed) {
            t.failedIncomplete = true;
            return false;
        }
        ++t.inferencesCompleted;
        const f64 round_seconds =
            (tr.liveSeconds + round_dead) + tr.backoffSeconds;
        t.inferenceSeconds.push_back(round_seconds);
        t.inferenceSecondsSum += round_seconds;
        t.txAttempts += tr.txAttempts;
        t.txRetries += tr.txFailedAttempts;
        if (tr.txGaveUp)
            ++t.txGaveUpRounds;
        if (tr.delivered) {
            ++t.resultsDelivered;
            t.deliverySeconds.push_back(round_seconds);
            t.deliverySecondsSum += round_seconds;
        }
        return true;
    };

    for (u32 k = 0; plan.maxInferencesPerDevice == 0
         || k < plan.maxInferencesPerDevice;
         ++k) {
        // Sleep until the harvester refills the buffer — the standard
        // charge-then-burst duty cycle. For the first round this is a
        // no-op (the device boots fully charged; a full buffer
        // recharges in exactly zero seconds), which puts round 0
        // through the identical horizon gate as every later round.
        // Dead time that would overshoot the deployment window is
        // clipped at the horizon, so telemetry never reports more
        // simulated time than the plan deployed.
        const f64 recharge_dead = supply->recharge();
        const f64 remaining = plan.horizonSeconds - t.totalSeconds();
        if (recharge_dead >= remaining) {
            t.deadSeconds += std::max(remaining, 0.0);
            // The horizon-clipped final sleep happens outside any
            // Device, so the recorder takes it directly.
            if (ctx.recorder != nullptr)
                ctx.recorder->record(trace::TraceEventKind::Recharge,
                                     0, t.totalSeconds(), t.energyJ,
                                     std::max(remaining, 0.0));
            break;
        }
        t.deadSeconds += recharge_dead;
        if (ctx.recorder != nullptr && recharge_dead > 0.0)
            ctx.recorder->record(trace::TraceEventKind::Recharge, 0,
                                 t.totalSeconds(), t.energyJ,
                                 recharge_dead);

        bool round_done = false;
        bool keep_going = true;
        RoundKey key;
        if (round_cacheable) {
            key.netIndex = t.assignment.netIndex;
            key.implIndex = t.assignment.implIndex;
            key.pipelineIndex = t.assignment.pipelineIndex;
            key.inputIndex = static_cast<u32>(k % data.size());
            key.capacityNjBits =
                std::bit_cast<u64>(harvest->capacityNj());
            if (const RoundTrace *hit = ctx.roundCache->find(key)) {
                if (ctx.verify) {
                    // Paranoid mode: re-run the round for real and
                    // cross-check the whole trace (including the NVM
                    // digest) against the memoized entry.
                    RoundRun fresh = run_real_round(k, true);
                    verifyTracesMatch(
                        *hit, fresh.trace, t.assignment,
                        rows.implNames[t.assignment.implIndex], k);
                    keep_going =
                        accrue_round(fresh.trace, fresh.deadSeconds);
                } else {
                    const f64 round_dead =
                        replayRound(*harvest, *hit);
                    keep_going = accrue_round(*hit, round_dead);
                }
                round_done = true;
            }
        }
        if (!round_done) {
            RoundRun fresh = run_real_round(k, round_cacheable);
            if (!round_cacheable && !lifetime_cacheable
                && ctx.recorder == nullptr
                && ctx.uncachedRounds != nullptr
                && (ctx.roundCache != nullptr
                    || ctx.lifetimeCache != nullptr)) {
                ctx.uncachedRounds->fetch_add(
                    1, std::memory_order_relaxed);
            }
            keep_going = accrue_round(fresh.trace, fresh.deadSeconds);
            if (round_cacheable)
                ctx.roundCache->insert(key, std::move(fresh.trace));
        }
        if (!keep_going)
            break;
    }

    t.harvestedJ = supply->harvestedNj() * 1e-9;

    if (lifetime_cacheable) {
        if (lifetime_hit)
            verifyLifetimesMatch(memoized_lifetime, t);
        else
            ctx.lifetimeCache->insert(life_key, t);
    }
    return t;
}

} // namespace

DeviceTelemetry
simulateDevice(const FleetPlan &plan, u32 device_index)
{
    return simulateDeviceImpl(plan, resolveRows(plan), device_index,
                              SimContext{});
}

// --- Field table -----------------------------------------------------

const telemetry::FieldTable<DeviceTelemetry> &
deviceFields()
{
    using D = DeviceTelemetry;
    using A = DeviceAssignment;
    using E = env::EnvRef;
    static const auto table =
        telemetry::FieldTable<D>()
            .stored<&D::assignment, &A::deviceIndex>("device")
            .stored<&D::assignment, &A::net>("net")
            .text<kernels::implName, kernels::implFromName, &D::assignment,
                  &A::impl>("impl")
            .stored<&D::assignment, &A::environment, &E::env>("env")
            .stored<&D::assignment, &A::environment,
                    &E::capacitanceFarads>("envCapFarads")
            .derived<[](const D &t) {
                return t.assignment.environment.label();
            }>("environment")
            .stored<&D::assignment, &A::pipeline>("pipeline")
            .stored<&D::assignment, &A::seed>("seed")
            .add({{"status", telemetry::ColType::Str},
                  [](const D &t, telemetry::ColumnCells &col) {
                      col.strs.emplace_back(t.status());
                  },
                  [](D &t, telemetry::ColumnCells &col, u64 i) {
                      t.diedNonTerminating = col.strs[i] == "dnf";
                      t.failedIncomplete = col.strs[i] == "fail";
                      return col.strs[i] == t.status();
                  }})
            .stored<&D::inferencesCompleted>("inferences")
            .stored<&D::reboots>("reboots")
            .stored<&D::liveSeconds>("liveSeconds")
            .stored<&D::deadSeconds>("deadSeconds")
            .derived<&D::totalSeconds>("totalSeconds")
            .stored<&D::energyJ>("energyJ")
            .stored<&D::harvestedJ>("harvestedJ")
            .derived<&D::inferencesPerDay>("inferencesPerDay")
            .derived<&D::rebootsPerInference>("rebootsPerInference")
            .derived<&D::deadFraction>("deadFraction")
            .derived<&D::energyPerInferenceJ>("energyPerInferenceJ")
            .derived<&D::meanInferenceSeconds>("meanInferenceSeconds")
            .stored<&D::resultsDelivered>("resultsDelivered")
            .stored<&D::txGaveUpRounds>("txGaveUpRounds")
            .stored<&D::txAttempts>("txAttempts")
            .stored<&D::txRetries>("txRetries")
            .stored<&D::radioEnergyJ>("radioEnergyJ")
            .stored<&D::senseEnergyJ>("senseEnergyJ")
            .stored<&D::txBackoffSeconds>("txBackoffSeconds")
            .stored<&D::inferenceSecondsSum>("inferenceSecondsSum")
            .stored<&D::deliverySecondsSum>("deliverySecondsSum")
            .derived<&D::meanDeliverySeconds>("meanDeliverySeconds");
    return table;
}

const telemetry::FieldOrder<DeviceTelemetry> &
csvFields()
{
    static const auto order = deviceFields().order(
        {"device", "net", "impl", "environment", "pipeline", "seed",
         "status", "inferences", "reboots", "liveSeconds", "deadSeconds",
         "totalSeconds", "energyJ", "harvestedJ", "inferencesPerDay",
         "rebootsPerInference", "deadFraction", "energyPerInferenceJ",
         "meanInferenceSeconds", "resultsDelivered", "txAttempts",
         "txRetries", "txGaveUpRounds", "radioEnergyJ", "senseEnergyJ",
         "txBackoffSeconds", "meanDeliverySeconds"});
    return order;
}

// --- Aggregation ----------------------------------------------------

void
GroupStats::accumulate(const DeviceCounters &c)
{
    ++devices;
    if (c.diedNonTerminating)
        ++dnfDevices;
    if (c.failedIncomplete)
        ++failedDevices;
    inferences += c.inferencesCompleted;
    reboots += c.reboots;
    liveSeconds += c.liveSeconds;
    deadSeconds += c.deadSeconds;
    energyJ += c.energyJ;
    harvestedJ += c.harvestedJ;
    resultsDelivered += c.resultsDelivered;
    if (c.txGaveUpRounds > 0)
        ++txGaveUpDevices;
    txAttempts += c.txAttempts;
    txRetries += c.txRetries;
    radioEnergyJ += c.radioEnergyJ;
    senseEnergyJ += c.senseEnergyJ;
    txBackoffSeconds += c.txBackoffSeconds;
}

namespace
{

f64
nearestRank(const std::vector<f64> &sorted, f64 percentile)
{
    if (sorted.empty())
        return 0.0;
    const u64 rank = static_cast<u64>(
        std::ceil(percentile / 100.0
                  * static_cast<f64>(sorted.size())));
    return sorted[std::min<u64>(rank > 0 ? rank - 1 : 0,
                                sorted.size() - 1)];
}

void
emitGroup(json::Writer &w, const GroupStats &g)
{
    w.beginObject().field("devices", g.devices)
        .field("dnfDevices", g.dnfDevices)
        .field("failedDevices", g.failedDevices)
        .field("inferences", g.inferences)
        .field("reboots", g.reboots)
        .field("liveSeconds", g.liveSeconds)
        .field("deadSeconds", g.deadSeconds)
        .field("energyJ", g.energyJ)
        .field("harvestedJ", g.harvestedJ)
        .field("resultsDelivered", g.resultsDelivered)
        .field("txGaveUpDevices", g.txGaveUpDevices)
        .field("txAttempts", g.txAttempts)
        .field("txRetries", g.txRetries)
        .field("radioEnergyJ", g.radioEnergyJ)
        .field("senseEnergyJ", g.senseEnergyJ)
        .field("txBackoffSeconds", g.txBackoffSeconds)
        .field("inferencesPerDeviceDay", g.inferencesPerDeviceDay())
        .field("rebootsPerInference", g.rebootsPerInference())
        .field("deadFraction", g.deadFraction())
        .field("energyPerInferenceJ", g.energyPerInferenceJ())
        .field("deliveredPerDeviceDay", g.deliveredPerDeviceDay())
        .field("retriesPerDelivered", g.retriesPerDelivered())
        .field("radioEnergyFraction", g.radioEnergyFraction())
        .end();
}

void
emitGroupMap(json::Writer &w, const char *key,
             const std::map<std::string, GroupStats> &groups)
{
    w.br(2).key(key).beginObject();
    for (const auto &[name, stats] : groups)
        emitGroup(w.br(4).key(name), stats);
    w.br(2).end();
}

} // namespace

std::string
FleetSummary::toJson() const
{
    // Note: `cache` is deliberately not emitted — the artifact must be
    // byte-identical between memoized and --no-cache runs.
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject()
        .br(2).field("devices", devices)
        .br(2).field("horizonSeconds", horizonSeconds)
        .br(2).field("baseSeed", baseSeed)
        .br(2).field("latencyP50Seconds", latencyP50Seconds)
        .br(2).field("latencyP95Seconds", latencyP95Seconds)
        .br(2).field("latencyP99Seconds", latencyP99Seconds)
        .br(2).field("deliveryP50Seconds", deliveryP50Seconds)
        .br(2).field("deliveryP95Seconds", deliveryP95Seconds)
        .br(2).field("deliveryP99Seconds", deliveryP99Seconds)
        .br(2).key("total");
    emitGroup(w, total);
    emitGroupMap(w, "byEnvironment", byEnvironment);
    emitGroupMap(w, "byImpl", byImpl);
    emitGroupMap(w, "byNet", byNet);
    emitGroupMap(w, "byPipeline", byPipeline);
    w.br(0).end();
    return os.str();
}

// --- Fleet execution ------------------------------------------------

FleetSummary
runFleet(const FleetPlan &plan, FleetOptions options,
         const std::vector<FleetSink *> &sinks)
{
    plan.validate();
    const PlanRows rows = resolveRows(plan);

    const u64 total = plan.devices;
    const u32 workers = util::poolSize(total, options.threads);

    std::vector<FleetSink *> live_sinks;
    for (auto *sink : sinks)
        if (sink != nullptr)
            live_sinks.push_back(sink);
    for (auto *sink : live_sinks)
        sink->begin(total);

    // Each worker writes a finishing device's counters at its own
    // index; sinks and the reduction read them back in device order.
    std::vector<DeviceCounters> counters(total);

    RoundCache round_cache;
    LifetimeCache lifetime_cache;
    std::atomic<u64> uncached_rounds{0};
    SimContext ctx;
    if (options.useCache) {
        ctx.roundCache = &round_cache;
        ctx.lifetimeCache = &lifetime_cache;
    }
    ctx.uncachedRounds = &uncached_rounds;
    ctx.verify = options.verifyCache;

    // Trace sampling: device i is traced iff i % traceEvery == 0, a
    // pure function of the index, so the sampled set (and the bytes
    // the collector later writes, in device order) is identical for
    // every thread count.
    const bool tracing =
        options.traces != nullptr && plan.traceEvery > 0;
    const auto context_for = [&](u64 i) {
        SimContext dev_ctx = ctx;
        if (tracing && i % plan.traceEvery == 0)
            dev_ctx.recorder = options.traces->recorderFor(i);
        return dev_ctx;
    };

    std::atomic<u64> devices_done{0};
    util::ProgressMeter progress("fleet", "devices", total,
                                 &devices_done, options.progress);

    // Worker-local latency buffers, merged and sorted after the join:
    // the percentile inputs form the same multiset under every
    // schedule, and sorting a multiset of finite f64s is a pure
    // function of its contents — so percentiles stay bit-identical
    // across thread counts without a serialized collection pass.
    std::vector<std::vector<f64>> worker_latencies(workers);
    std::vector<std::vector<f64>> worker_deliveries(workers);

    // Device i on worker w: its counters go to slot i, its latencies
    // to the worker's buffers.
    const auto simulate = [&](u64 i, u32 w) {
        const DeviceTelemetry t = simulateDeviceImpl(
            plan, rows, static_cast<u32>(i), context_for(i));
        devices_done.fetch_add(1, std::memory_order_relaxed);
        counters[i] = t;
        worker_latencies[w].insert(worker_latencies[w].end(),
                                   t.inferenceSeconds.begin(),
                                   t.inferenceSeconds.end());
        worker_deliveries[w].insert(worker_deliveries[w].end(),
                                    t.deliverySeconds.begin(),
                                    t.deliverySeconds.end());
    };
    // Sinks see a device's counters with its assignment recomputed
    // from the plan; the latency lists stay empty.
    const auto emit = [&](u64 i) {
        if (live_sinks.empty())
            return;
        const DeviceTelemetry view{
            counters[i], plan.assignmentFor(static_cast<u32>(i)), {}, {}};
        for (auto *sink : live_sinks)
            sink->add(view);
    };

    // The pool's shared cursor hands the next device to whichever
    // worker frees up first, so a fleet of wildly uneven lifetimes (a
    // solar device waiting out the night next to a bench device) still
    // load-balances.
    util::parallelFor(total, options.threads, simulate, emit);

    for (auto *sink : live_sinks)
        sink->end();

    // Sequential columnar reduction in device-index order: the summary
    // is a pure function of the per-device telemetry, so it is
    // bit-identical for every thread count.
    FleetSummary summary;
    summary.devices = plan.devices;
    summary.horizonSeconds = plan.horizonSeconds;
    summary.baseSeed = plan.baseSeed;
    for (u64 i = 0; i < total; ++i) {
        const DeviceAssignment a =
            plan.assignmentFor(static_cast<u32>(i));
        const DeviceCounters &c = counters[i];
        summary.total.accumulate(c);
        summary.byEnvironment[rows.envLabels[a.envIndex]].accumulate(c);
        summary.byImpl[rows.implNames[a.implIndex]].accumulate(c);
        summary.byNet[a.net].accumulate(c);
        summary.byPipeline[a.pipeline].accumulate(c);
    }

    std::vector<f64> latencies;
    std::vector<f64> deliveries;
    for (u32 w = 0; w < workers; ++w) {
        latencies.insert(latencies.end(), worker_latencies[w].begin(),
                         worker_latencies[w].end());
        deliveries.insert(deliveries.end(),
                          worker_deliveries[w].begin(),
                          worker_deliveries[w].end());
    }
    std::sort(latencies.begin(), latencies.end());
    summary.latencyP50Seconds = nearestRank(latencies, 50.0);
    summary.latencyP95Seconds = nearestRank(latencies, 95.0);
    summary.latencyP99Seconds = nearestRank(latencies, 99.0);
    std::sort(deliveries.begin(), deliveries.end());
    summary.deliveryP50Seconds = nearestRank(deliveries, 50.0);
    summary.deliveryP95Seconds = nearestRank(deliveries, 95.0);
    summary.deliveryP99Seconds = nearestRank(deliveries, 99.0);

    summary.cache.roundHits = round_cache.hits();
    summary.cache.roundMisses = round_cache.misses();
    summary.cache.lifetimeHits = lifetime_cache.hits();
    summary.cache.lifetimeMisses = lifetime_cache.misses();
    summary.cache.uncachedRounds =
        uncached_rounds.load(std::memory_order_relaxed);
    return summary;
}

// --- Named scenarios ------------------------------------------------

const std::vector<FleetScenario> &
namedScenarios()
{
    static const std::vector<FleetScenario> scenarios = [] {
        std::vector<FleetScenario> out;
        {
            // The CI smoke fleet: small, seconds to run, but mixed
            // enough to cross every kernel with both trace
            // environments.
            FleetPlan plan;
            plan.devices = 200;
            plan.nets = {"MNIST", "HAR", "OkG"};
            plan.impls.assign(std::begin(kernels::kAllImpls),
                              std::end(kernels::kAllImpls));
            plan.environments = {{"trace-rf-office", 1e-3},
                                 {"trace-solar-cloudy", 1e-3},
                                 {"rf-paper", 100e-6},
                                 {"duty-cycle", 1e-3},
                                 {"continuous", 0.0}};
            plan.maxInferencesPerDevice = 2;
            out.push_back({"smoke-200",
                           "200 devices, all kernels, trace + "
                           "synthetic environments (CI smoke)",
                           plan});
        }
        {
            // The acceptance fleet: the paper's three workloads on
            // SONIC/TAILS under mixed solar + RF power. Scales to a
            // million devices with --devices thanks to round-trace
            // memoization.
            FleetPlan plan;
            plan.devices = 1000;
            plan.nets = {"MNIST", "HAR", "OkG"};
            plan.impls = {kernels::Impl::Sonic, kernels::Impl::Tails};
            plan.environments = {{"solar", 1e-3},
                                 {"solar", 100e-6},
                                 {"rf-paper", 1e-3},
                                 {"rf-paper", 100e-6},
                                 {"rf-bursty", 1e-3}};
            plan.maxInferencesPerDevice = 2;
            out.push_back({"mixed-1k",
                           "1,000 devices, MNIST/HAR/OkG x "
                           "SONIC/TAILS, solar + RF mixed power",
                           plan});
        }
        {
            // A day of wildlife cameras: the paper's motivating
            // deployment at fleet scale, solar-powered with
            // cloudy-trace variants.
            FleetPlan plan;
            plan.devices = 500;
            plan.nets = {"MNIST"};
            plan.impls = {kernels::Impl::Sonic, kernels::Impl::Tails,
                          kernels::Impl::Tile8};
            plan.environments = {{"solar", 1e-3},
                                 {"trace-solar-cloudy", 1e-3},
                                 {"trace-solar-cloudy", 100e-6}};
            plan.pipelines = {"wildlife"};
            plan.maxInferencesPerDevice = 3;
            out.push_back({"wildlife-day",
                           "500 solar wildlife cameras running the "
                           "full sense-infer-transmit pipeline, clear "
                           "vs cloudy traces",
                           plan});
        }
        return out;
    }();
    return scenarios;
}

} // namespace sonic::fleet
