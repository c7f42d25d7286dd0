#include "verify/oracle.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "dnn/device_net.hh"
#include "kernels/runner.hh"
#include "trace/trace.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "verify/workload.hh"

namespace sonic::verify
{

namespace
{

/** The ACK-loss draw seed of every oracle pipeline round (round 0). */
constexpr u64 kRoundSeed = 0x909e57;

u64
sumOpInstances(const arch::Device &dev)
{
    u64 total = 0;
    for (u32 o = 0; o < arch::kNumOps; ++o)
        total += dev.stats().opCount(static_cast<arch::Op>(o));
    return total;
}

Observation
toObservation(const app::ExperimentResult &result)
{
    Observation o;
    o.completed = result.completed;
    o.nonTerminating = result.nonTerminating;
    o.reboots = result.reboots;
    o.fired = result.scheduleFired;
    o.opInstances = result.opInstances;
    o.logits = result.logits;
    o.finalNvmDigest = result.finalNvmDigest;
    o.rebootDigests = result.rebootDigests;
    return o;
}

/**
 * Records the draw index of every `instant` (task commits or TX
 * delivery boundaries) on a SchedulePower-driven device. Both are
 * reported just before their first charged operation, so the next
 * draw is the first one of the commit sequence. dev.power() settles
 * the open lease first, so the cursor is exact in either accounting
 * mode.
 */
struct InstantRecorder : arch::TraceProbe
{
    explicit InstantRecorder(arch::ProbeInstant which) : which(which) {}

    void
    onInstant(const arch::Device &dev, arch::ProbeInstant instant,
              u32) override
    {
        if (instant == which)
            draws.push_back(
                static_cast<const arch::SchedulePower &>(dev.power())
                    .drawsSoFar());
    }

    arch::ProbeInstant which;
    std::vector<u64> draws;
};

/** A spec and the image lowered from it, which refers to the spec:
 * the two live and die together. */
struct OwnedImage
{
    explicit OwnedImage(dnn::NetworkSpec net)
        : spec(std::move(net)), image(spec)
    {
    }

    dnn::NetworkSpec spec;
    dnn::FlashImage image;
};

/** The judgment rules the kernel table sets for a kernel. */
OracleOptions
kernelOptions(const LocalWorkload &workload)
{
    const auto &info = kernels::implInfo(workload.impl);
    OracleOptions options;
    options.crashConsistent = info.crashConsistent;
    // The final FRAM image is part of the property for the purely
    // software kernels; TAILS' calibration registers legitimately
    // depend on where failures land.
    options.checkFinalNvmDigest =
        info.crashConsistent && workload.impl != kernels::Impl::Tails;
    options.checkDelivery = workload.round.has_value();
    return options;
}

/**
 * Realistic adversarial schedules: windows of at most
 * config.maxFailures consecutive brown-out coordinates sliced from a
 * handful of seeded runs under the environment. Each window keeps the
 * oracle's invariant (well below the non-termination threshold, so
 * every verdict is a genuine bug) while placing failures exactly
 * where that deployment's physics puts them — the coordinates the
 * synthetic uniform/bursty/commit-targeted generators can only guess
 * at.
 */
std::vector<Schedule>
environmentSchedules(const LocalWorkload &workload,
                     const env::EnvRef &ref, u32 count,
                     const ScheduleGenConfig &config)
{
    if (count == 0)
        return {};
    const auto &environment = env::EnvRegistry::instance().get(ref);
    if (environment.meta.alwaysOn)
        fatal("environment '", ref.env,
              "' never fails — nothing to record for the oracle");
    // A few seeded deployments (distinct phases in the environment
    // cycle) supply the raw brown-out traces; every schedule is a
    // window of consecutive coordinates from one of them, clamped to
    // maxFailures so non-termination verdicts stay genuine.
    // The environment identity folds into the seeds: capacitor size
    // sets where brown-outs land (charge is spent op-by-op, income
    // arrives only while recharging), and the name desynchronizes the
    // window sampling between environments sharing a capacitor.
    u64 env_bits = 0;
    static_assert(sizeof env_bits == sizeof ref.capacitanceFarads);
    std::memcpy(&env_bits, &ref.capacitanceFarads, sizeof env_bits);
    const u64 env_seed =
        mix64(config.seed ^ fnv1a(ref.env) ^ env_bits);

    const u32 runs = std::min<u32>(count, 8);
    std::vector<std::vector<u64>> recorded;
    recorded.reserve(runs);
    u64 total_recorded = 0;
    for (u32 r = 0; r < runs; ++r) {
        // A non-terminating run still yields the coordinates recorded
        // before the scheduler gave up.
        BrownOutRecorder recorder;
        (void)observe(workload,
                      environment.make(ref, mix64(env_seed ^ (0xe2f + r))),
                      &recorder);
        total_recorded += recorder.failures.size();
        recorded.push_back(std::move(recorder.failures));
    }
    // All phases failure-free would make every schedule empty and the
    // whole fuzz pass vacuously — that is a configuration error, not
    // a verification result.
    if (total_recorded == 0)
        fatal("environment '", ref.label(), "' never browned out in ",
              runs, " sampled deployment phases — the fuzz would ",
              "inject nothing; use a smaller capacitor override ",
              "(e.g. '", ref.env, "@20uF')");

    Rng rng(env_seed ^ 0xe2f5eed);
    const u32 max_failures = std::max<u32>(config.maxFailures, 1);
    std::vector<Schedule> schedules;
    schedules.reserve(count);
    for (u32 i = 0; i < count; ++i) {
        const auto &trace = recorded[i % runs];
        if (trace.empty()) {
            // The capacitor never emptied under this phase: the
            // environment behaves continuously, nothing to inject.
            schedules.push_back({});
            continue;
        }
        const u64 len =
            1 + rng.below(std::min<u64>(max_failures, trace.size()));
        const u64 start = rng.below(trace.size() - len + 1);
        schedules.emplace_back(trace.begin() + start,
                               trace.begin() + start + len);
    }
    return schedules;
}

/**
 * The schedules a battery fuzzes: windows of the environment's
 * brown-outs when one is given, else the mixed synthetic battery aimed
 * at the workload's commits. The commit trace (a full instrumented
 * run) only pays off for the synthetic generators that consume it.
 */
std::vector<Schedule>
scheduleBattery(const LocalWorkload &workload,
                const env::EnvRef &environment, u32 count,
                ScheduleGenConfig gen)
{
    if (!environment.empty())
        return environmentSchedules(workload, environment, count, gen);
    const auto commits = recordCommitTrace(workload, &gen.opHorizon);
    return mixedSchedules(count, commits, gen);
}

/** Name a report after its kernel and workload (and environment). */
void
labelReport(OracleReport *report, kernels::Impl impl,
            const std::string &workload, const env::EnvRef &environment)
{
    report->impl = kernels::implName(impl);
    report->workload = environment.empty()
        ? workload
        : workload + " under " + environment.label();
}

std::string
hex64(u64 v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

} // namespace

LocalWorkload::LocalWorkload(dnn::NetworkSpec net, std::vector<i16> input,
                             kernels::Impl impl)
    : input(std::move(input)), impl(impl)
{
    auto owned = std::make_shared<const OwnedImage>(std::move(net));
    image = std::shared_ptr<const dnn::FlashImage>(owned, &owned->image);
}

LocalWorkload::LocalWorkload(app::Engine &engine, const dnn::NetRef &net,
                             kernels::Impl impl)
    // Zoo models live as long as the process: the image is only viewed.
    : image(&engine.model(net).flashImage(),
            [](const dnn::FlashImage *) {}),
      input(dnn::DeviceNetwork::quantizeInput(
          engine.dataset(net)[0].input)),
      impl(impl)
{
}

Observation
observe(const LocalWorkload &workload,
        std::unique_ptr<arch::PowerSupply> supply, arch::TraceProbe *probe)
{
    arch::Device dev(app::makeProfile(app::ProfileVariant::Standard),
                     std::move(supply));
    dev.setProbe(probe);
    dnn::DeviceNetwork net(dev, *workload.image);
    Observation o;
    if (workload.round) {
        const auto out =
            pipeline::runRound(net, workload.impl, workload.input,
                               *workload.round, kRoundSeed, 0);
        o.completed = out.completed;
        o.nonTerminating = out.nonTerminating;
        o.reboots = out.reboots;
        o.logits = out.logits;
        o.delivered = out.delivered ? 1 : 0;
        o.txAttempts = out.txAttempts;
        o.txRetries = out.txFailedAttempts;
    } else {
        net.loadInput(workload.input);
        const auto run = kernels::runInference(net, workload.impl);
        o.completed = run.completed;
        o.nonTerminating = run.nonTerminating;
        o.reboots = run.reboots;
        o.logits = run.logits;
    }
    o.cycles = dev.cycles();
    o.opInstances = sumOpInstances(dev);
    if (const auto *schedule =
            dynamic_cast<const arch::SchedulePower *>(&dev.power())) {
        o.fired = schedule->firedCount();
        o.draws = schedule->drawsSoFar();
    }
    o.finalNvmDigest = dev.nvmDigest();
    return o;
}

RunScheduleFn
localRunner(const LocalWorkload &workload)
{
    return [workload](const Schedule &schedule) {
        std::vector<u64> chain;
        arch::RebootDigestProbe digests(chain);
        Observation o = observe(
            workload, std::make_unique<arch::SchedulePower>(schedule),
            &digests);
        o.rebootDigests = std::move(chain);
        return o;
    };
}

std::vector<u64>
recordCommitTrace(const LocalWorkload &workload, u64 *total_draws)
{
    InstantRecorder recorder(workload.round
                                 ? arch::ProbeInstant::TxBoundary
                                 : arch::ProbeInstant::TaskCommit);
    const Observation o = observe(
        workload, std::make_unique<arch::SchedulePower>(), &recorder);
    SONIC_ASSERT(o.completed, "commit-trace reference run must complete");
    if (total_draws != nullptr)
        *total_draws = o.draws;
    return std::move(recorder.draws);
}

void
BrownOutRecorder::onPowerFailure(const arch::Device &dev)
{
    const auto *harvest =
        dynamic_cast<const env::HarvestSupply *>(&dev.power());
    SONIC_ASSERT(harvest != nullptr,
                 "brown-outs are recorded from a HarvestSupply");
    // The lease was settled before the failing draw, and the supply
    // counts that draw too.
    failures.push_back(harvest->drawsSoFar() - 1);
}

OracleReport
verifyLocal(const LocalWorkload &workload, u32 schedules, u64 seed,
            u32 max_failures, const env::EnvRef &environment)
{
    ScheduleGenConfig gen;
    gen.seed = seed;
    gen.maxFailures = max_failures;
    Oracle oracle(localRunner(workload), kernelOptions(workload));
    OracleReport rep = oracle.verify(
        scheduleBattery(workload, environment, schedules, gen));
    labelReport(&rep, workload.impl,
                workload.round ? "pipeline:" + workload.round->name
                               : workload.image->spec().name,
                environment);
    return rep;
}

// --- Oracle ---------------------------------------------------------

Oracle::Oracle(RunScheduleFn run, OracleOptions options)
    : run_(std::move(run)), options_(options)
{
}

const Observation &
Oracle::reference()
{
    if (!haveReference_) {
        reference_ = run_({});
        SONIC_ASSERT(reference_.completed,
                     "continuous reference run must complete");
        haveReference_ = true;
    }
    return reference_;
}

std::optional<std::string>
Oracle::judge(const Schedule &schedule, const Observation &observed)
{
    if (schedule.empty())
        return std::nullopt;
    const Observation &ref = reference();
    if (observed.nonTerminating) {
        return "declared non-terminating (schedules carry at most "
               "40 failures, far below the no-progress threshold, so "
               "this is a genuine progress bug)";
    }
    if (!observed.completed)
        return "did not complete";
    if (observed.reboots != observed.fired) {
        return "reboot accounting diverges: "
            + std::to_string(observed.reboots) + " reboots for "
            + std::to_string(observed.fired) + " fired failures";
    }
    if (!observed.rebootDigests.empty()
        && observed.rebootDigests.size() != observed.reboots) {
        return "NVM snapshot chain has "
            + std::to_string(observed.rebootDigests.size())
            + " links for " + std::to_string(observed.reboots)
            + " reboots";
    }
    if (observed.logits != ref.logits)
        return "logits diverge from the continuous reference";
    if (options_.checkDelivery) {
        if (observed.delivered != ref.delivered) {
            return observed.delivered < ref.delivered
                ? "delivery accounting diverges: result lost "
                  "(continuous reference delivered it)"
                : "delivery accounting diverges: result duplicated "
                  "(delivered more than the continuous reference)";
        }
        if (observed.txAttempts != ref.txAttempts
            || observed.txRetries != ref.txRetries) {
            return "TX attempt accounting diverges: "
                + std::to_string(observed.txAttempts) + " attempts / "
                + std::to_string(observed.txRetries)
                + " retries vs continuous "
                + std::to_string(ref.txAttempts) + " / "
                + std::to_string(ref.txRetries);
        }
    }
    if (options_.checkFinalNvmDigest && observed.finalNvmDigest != 0
        && ref.finalNvmDigest != 0
        && observed.finalNvmDigest != ref.finalNvmDigest)
        return "final NVM digest diverges from the continuous "
               "reference";
    return std::nullopt;
}

std::optional<std::string>
Oracle::judgeReplay(const Observation &first, const Observation &second)
{
    if (first.completed != second.completed
        || first.nonTerminating != second.nonTerminating)
        return "replay diverges: outcome";
    if (first.reboots != second.reboots
        || first.fired != second.fired)
        return "replay diverges: reboot/failure accounting";
    if (first.opInstances != second.opInstances
        || first.cycles != second.cycles)
        return "replay diverges: op/cycle totals";
    if (first.logits != second.logits)
        return "replay diverges: logits";
    if (first.delivered != second.delivered
        || first.txAttempts != second.txAttempts
        || first.txRetries != second.txRetries)
        return "replay diverges: delivery accounting";
    if (first.finalNvmDigest != second.finalNvmDigest
        || first.rebootDigests != second.rebootDigests)
        return "replay diverges: NVM digest chain";
    return std::nullopt;
}

Schedule
Oracle::shrink(const Schedule &schedule)
{
    u32 runs = 0;
    auto still_fails = [&](const Schedule &candidate) -> bool {
        if (candidate.empty() || runs >= options_.maxShrinkRuns)
            return false; // budget exhausted: keep the last known bad
        ++runs;
        const Observation o = run_(candidate);
        if (!options_.crashConsistent) {
            if (runs >= options_.maxShrinkRuns)
                return false;
            ++runs;
            const Observation o2 = run_(candidate);
            return judgeReplay(o, o2).has_value();
        }
        return judge(candidate, o).has_value();
    };

    // Classic ddmin over the failure-index list: try dropping whole
    // complements, refining granularity until 1-minimal.
    Schedule current = schedule;
    u64 granularity = 2;
    while (current.size() >= 2) {
        const u64 chunk =
            (current.size() + granularity - 1) / granularity;
        bool reduced = false;
        for (u64 start = 0; start < current.size(); start += chunk) {
            Schedule candidate;
            candidate.reserve(current.size());
            for (u64 i = 0; i < current.size(); ++i)
                if (i < start || i >= start + chunk)
                    candidate.push_back(current[i]);
            if (!candidate.empty() && still_fails(candidate)) {
                current = std::move(candidate);
                granularity = std::max<u64>(granularity - 1, 2);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (granularity >= current.size())
                break;
            granularity = std::min<u64>(granularity * 2,
                                        current.size());
        }
    }
    return current;
}

OracleReport
Oracle::verify(const std::vector<Schedule> &schedules)
{
    std::vector<Observation> observed;
    observed.reserve(schedules.size());
    for (const auto &schedule : schedules)
        observed.push_back(run_(schedule));
    std::vector<Observation> replayed;
    if (!options_.crashConsistent) {
        replayed.reserve(schedules.size());
        for (const auto &schedule : schedules)
            replayed.push_back(schedule.empty() ? Observation{}
                                                : run_(schedule));
    }
    return judgeBatch(schedules, observed, replayed);
}

OracleReport
Oracle::judgeBatch(const std::vector<Schedule> &schedules,
                   const std::vector<Observation> &observed,
                   const std::vector<Observation> &replayed)
{
    SONIC_ASSERT(schedules.size() == observed.size()
                     && (options_.crashConsistent
                         || replayed.size() == schedules.size()),
                 "schedule/observation count mismatch");
    OracleReport rep;
    rep.schedulesRun = schedules.size();
    for (u64 i = 0; i < schedules.size(); ++i) {
        const Schedule &schedule = schedules[i];
        const Observation &o = observed[i];
        rep.totalFired += o.fired;
        rep.totalReboots += o.reboots;

        std::optional<std::string> verdict;
        if (options_.crashConsistent) {
            verdict = judge(schedule, o);
        } else if (!schedule.empty()) {
            verdict = judgeReplay(o, replayed[i]);
            // Even without crash consistency, delivery accounting is
            // downstream of completion and a pure function of (seed,
            // round, attempt) — it must match the continuous
            // reference exactly for every kernel.
            if (!verdict && options_.checkDelivery) {
                const Observation &ref = reference();
                if (o.delivered != ref.delivered
                    || o.txAttempts != ref.txAttempts
                    || o.txRetries != ref.txRetries)
                    verdict = "delivery accounting diverges from the "
                              "continuous reference";
            }
        }
        if (!verdict)
            continue;

        Divergence d;
        d.schedule = schedule;
        d.reason = *verdict;
        d.shrunk = options_.shrink ? shrink(schedule) : schedule;
        d.observed = run_(d.shrunk);
        rep.divergences.push_back(std::move(d));
    }
    return rep;
}

// --- Engine path ----------------------------------------------------

OracleReport
verifyWithEngine(app::Engine &engine, const EngineOracleConfig &config)
{
    app::RunSpec base;
    base.net = config.net;
    base.impl = config.impl;
    base.captureNvmDigests = true;

    RunScheduleFn probe = [&engine, base](const Schedule &schedule) {
        app::RunSpec spec = base;
        spec.failureSchedule = schedule;
        return toObservation(engine.runOne(spec));
    };

    // The battery comes from runs of the engine's cached workload on
    // this thread.
    const LocalWorkload workload(engine, config.net, config.impl);
    OracleOptions options = kernelOptions(workload);
    options.shrink = config.shrink;
    Oracle oracle(std::move(probe), options);
    ScheduleGenConfig gen;
    gen.seed = config.seed;
    gen.maxFailures = config.maxFailures;
    const auto schedules = scheduleBattery(
        workload, config.environment, config.schedules, gen);

    // Fan the whole batch across the worker pool via the sweep
    // engine's failure-schedule axis; records stream in plan order,
    // which is exactly the schedule order.
    app::SweepPlan plan;
    plan.nets({config.net})
        .impls({config.impl})
        .failureSchedules(schedules)
        .captureNvmDigests(true);
    const auto runBatch = [&] {
        std::vector<Observation> observed;
        observed.reserve(schedules.size());
        for (const auto &record : engine.run(plan))
            observed.push_back(toObservation(record.result));
        return observed;
    };
    const auto observed = runBatch();
    // A kernel held to deterministic replay runs the batch a second
    // time on the pool rather than replaying it on this thread.
    const auto replayed = options.crashConsistent
        ? std::vector<Observation>{}
        : runBatch();

    OracleReport rep = oracle.judgeBatch(schedules, observed, replayed);
    labelReport(&rep, config.impl, config.net, config.environment);
    return rep;
}

// --- Reports and golden files ---------------------------------------

void
writeReportJson(json::Writer &w, const OracleReport &report, u32 indent)
{
    w.beginObject()
        .br(indent + 2).field("impl", report.impl)
        .br(indent + 2).field("workload", report.workload)
        .br(indent + 2).field("schedulesRun", report.schedulesRun)
        .br(indent + 2).field("totalFired", report.totalFired)
        .br(indent + 2).field("totalReboots", report.totalReboots)
        .br(indent + 2).key("divergences").beginArray();
    for (const Divergence &d : report.divergences) {
        w.br(indent + 4).beginObject().field("reason", d.reason)
            .br(indent + 5).key("schedule").array(d.schedule)
            .br(indent + 5).key("shrunk").array(d.shrunk)
            .br(indent + 5).field("shrunkCompleted", d.observed.completed)
            .field("shrunkReboots", d.observed.reboots)
            .br(indent + 5).key("shrunkLogits").array(d.observed.logits)
            .br(indent + 5).key("shrunkRebootDigests")
            .array(d.observed.rebootDigests, hex64);
        if (!d.tracePath.empty())
            w.br(indent + 5).field("tracePath", d.tracePath);
        w.end();
    }
    w.br(indent + 2).end().br(indent).end();
}

std::string
reportJson(const OracleReport &report)
{
    std::ostringstream os;
    json::Writer w(os);
    writeReportJson(w, report, 0);
    return os.str();
}

// --- Divergence trace dumps -----------------------------------------

bool
dumpScheduleTrace(const LocalWorkload &workload,
                  const Schedule &schedule, const std::string &path,
                  std::string *error)
{
    trace::TraceRecorder recorder(0);
    (void)observe(workload,
                  std::make_unique<arch::SchedulePower>(schedule),
                  &recorder);
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        if (error != nullptr)
            *error = "cannot write " + path;
        return false;
    }
    trace::writeTrace(out, {&recorder});
    if (!out) {
        if (error != nullptr)
            *error = "write to " + path + " failed";
        return false;
    }
    return true;
}

namespace
{

/** Digests every layer's op counts and cycles when inference ends. */
struct LayerDigestRecorder : arch::TraceProbe
{
    void
    onSpanEnd(const arch::Device &dev, arch::ProbeSpan span, u32,
              f64) override
    {
        if (span != arch::ProbeSpan::Infer)
            return;
        layers.clear();
        const auto &stats = dev.stats();
        for (u16 l = 0; l < stats.numLayers(); ++l) {
            arch::NvmDigest d;
            const std::string &name = stats.layerName(l);
            d.word(name.size());
            for (char c : name)
                d.word(static_cast<u64>(static_cast<unsigned char>(c)));
            for (u32 p = 0; p < arch::kNumParts; ++p) {
                const auto &bucket =
                    stats.bucket(l, static_cast<arch::Part>(p));
                for (u32 o = 0; o < arch::kNumOps; ++o) {
                    d.word(bucket.count[o]);
                    d.word(bucket.cycles[o]);
                }
            }
            layers.emplace_back(name, d.value());
        }
    }

    std::vector<std::pair<std::string, u64>> layers;
};

} // namespace

std::string
goldenJson(const GoldenConfig &config)
{
    // Energy (f64 nanojoule sums) is deliberately absent from golden
    // content: batched charging reassociates the floating-point
    // accumulation (the documented ~2e-16 relative TAILS drift), so
    // only exactly-reproducible integers are committed — counts,
    // cycles, logits and digests.
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject()
        .br(2).field("workload", "golden")
        .br(2).field("netSeed", config.netSeed)
        .br(2).field("scheduleSeed", config.scheduleSeed)
        .br(2).key("impls").beginArray();

    LocalWorkload workload(goldenNet(config.netSeed), goldenInput(),
                           kernels::Impl::Base);
    for (const auto impl : kernels::kAllImpls) {
        const auto &info = kernels::implInfo(impl);
        workload.impl = impl;
        LayerDigestRecorder layers;
        const Observation cont = observe(
            workload, std::make_unique<arch::SchedulePower>(), &layers);
        SONIC_ASSERT(cont.completed,
                     "golden continuous run must complete");
        w.br(4).beginObject().field("name", info.name)
            .field("crashConsistent", info.crashConsistent)
            .br(5).key("continuous").beginObject()
            .field("cycles", cont.cycles)
            .field("opInstances", cont.opInstances)
            .field("draws", cont.draws)
            .br(7).key("logits").array(cont.logits)
            .field("finalNvmDigest", hex64(cont.finalNvmDigest))
            .br(7).key("layers").beginArray();
        for (const auto &[name, digest] : layers.layers)
            w.beginObject().field("name", name)
                .field("digest", hex64(digest)).end();
        w.end().end().br(5).key("schedules").beginArray();

        ScheduleGenConfig gen;
        gen.seed = config.scheduleSeed
            ^ (static_cast<u64>(impl) * 0x9e3779b97f4a7c15ull);
        gen.opHorizon = cont.draws;
        gen.maxFailures = config.maxFailures;
        const RunScheduleFn run = localRunner(workload);
        for (const auto &schedule :
             uniformSchedules(config.schedulesPerImpl, gen)) {
            const Observation o = run(schedule);
            w.br(7).beginObject().key("indices").array(schedule)
                .field("fired", o.fired).field("reboots", o.reboots)
                .field("completed", o.completed)
                .field("logitsMatchContinuous",
                       o.completed && o.logits == cont.logits)
                .br(8).field("finalNvmDigest", hex64(o.finalNvmDigest))
                .key("rebootDigests").array(o.rebootDigests, hex64)
                .end();
        }
        w.br(5).end().end();
    }
    w.br(2).end().br(0).end();
    return os.str();
}

} // namespace sonic::verify
