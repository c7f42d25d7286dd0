#include "app/engine.hh"

#include <atomic>
#include <ostream>

#include "arch/memory.hh"
#include "dnn/device_net.hh"
#include "util/parallel.hh"
#include "util/progress.hh"

namespace sonic::app
{

// --- Sinks ----------------------------------------------------------

const telemetry::FieldTable<SweepRecord> &
sweepFields()
{
    using S = SweepRecord;
    using R = RunSpec;
    using X = ExperimentResult;
    using E = env::EnvRef;
    static const auto table =
        telemetry::FieldTable<S>()
            .stored<&S::planIndex>("planIndex")
            .stored<&S::spec, &R::net>("net")
            .text<kernels::implName, kernels::implFromName, &S::spec,
                  &R::impl>("impl")
            .stored<&S::spec, &R::environment, &E::env>("env")
            .stored<&S::spec, &R::environment,
                    &E::capacitanceFarads>("envCapFarads")
            .derived<[](const S &r) {
                return r.spec.environment.label();
            }>("environment")
            .text<profileName, profileFromName, &S::spec, &R::profile>(
                "profile")
            .stored<&S::spec, &R::sampleIndex>("sample")
            .stored<&S::spec, &R::seed>("seed")
            .add({{"status", telemetry::ColType::Str},
                  [](const S &r, telemetry::ColumnCells &col) {
                      col.strs.emplace_back(r.result.status());
                  },
                  [](S &r, telemetry::ColumnCells &col, u64 i) {
                      r.result.completed = col.strs[i] == "ok";
                      r.result.nonTerminating = col.strs[i] == "dnf";
                      return col.strs[i] == r.result.status();
                  }})
            .stored<&S::result, &X::reboots>("reboots")
            .stored<&S::result, &X::tasksExecuted>("tasksExecuted")
            .stored<&S::result, &X::liveSeconds>("liveSeconds")
            .stored<&S::result, &X::deadSeconds>("deadSeconds")
            .stored<&S::result, &X::totalSeconds>("totalSeconds")
            .stored<&S::result, &X::energyJ>("energyJ")
            .stored<&S::result, &X::harvestedJ>("harvestedJ")
            .stored<&S::result, &X::predictedClass>("predictedClass")
            .stored<&S::result, &X::tailsTileWords>("tailsTileWords")
            .stored<&S::result, &X::opInstances>("opInstances")
            .stored<&S::spec, &R::captureNvmDigests>("captureNvmDigests")
            .stored<&S::result, &X::finalNvmDigest>("finalNvmDigest");
    return table;
}

const telemetry::FieldOrder<SweepRecord> &
csvFields()
{
    static const auto order = sweepFields().order(
        {"planIndex", "net", "impl", "environment", "profile", "sample",
         "seed", "status", "reboots", "tasksExecuted", "liveSeconds",
         "deadSeconds", "totalSeconds", "energyJ", "harvestedJ",
         "predictedClass", "tailsTileWords"});
    return order;
}

void
JsonSink::begin(u64)
{
    w_.beginArray();
}

void
JsonSink::add(const SweepRecord &record)
{
    const auto &r = record.result;
    w_.br(2).beginObject().field("planIndex", record.planIndex)
        .field("net", record.spec.net)
        .field("impl", kernels::implName(record.spec.impl))
        .field("environment", record.spec.environment.label())
        .field("profile", profileName(record.spec.profile))
        .field("sample", record.spec.sampleIndex)
        .field("seed", record.spec.seed)
        .field("completed", r.completed)
        .field("nonTerminating", r.nonTerminating)
        .field("reboots", r.reboots)
        .field("tasksExecuted", r.tasksExecuted)
        .field("liveSeconds", r.liveSeconds)
        .field("deadSeconds", r.deadSeconds)
        .field("totalSeconds", r.totalSeconds)
        .field("energyJ", r.energyJ)
        .field("harvestedJ", r.harvestedJ)
        .field("predictedClass", r.predictedClass)
        .field("tailsTileWords", r.tailsTileWords);
    if (record.spec.captureNvmDigests)
        w_.field("finalNvmDigest", r.finalNvmDigest)
            .key("rebootDigests").array(r.rebootDigests);

    w_.key("layers").beginArray();
    for (const auto &layer : r.layers)
        w_.beginObject().field("name", layer.name)
            .field("kernelSeconds", layer.kernelSeconds)
            .field("controlSeconds", layer.controlSeconds)
            .field("energyJ", layer.energyJ).end();
    w_.end().key("energyByOp").beginObject();
    for (const auto &[op, joules] : r.energyByOp)
        w_.field(op, joules);
    w_.end().key("logits").array(r.logits).end();
}

void
JsonSink::end()
{
    w_.br(0, /*evenEmpty=*/true).end();
}

// --- Engine ---------------------------------------------------------

Engine::Engine(EngineOptions options) : options_(options) {}

Engine::~Engine() = default;

u32
Engine::threadCount() const
{
    return util::resolveThreads(options_.threads);
}

ExperimentResult
Engine::runOne(const RunSpec &spec)
{
    // The digest probe must outlive the Device (its destructor settles
    // the lease through the probe).
    ExperimentResult result;
    arch::RebootDigestProbe digests(result.rebootDigests);
    arch::Device dev(makeProfile(spec.profile),
                     env::EnvRegistry::instance().make(spec.environment,
                                                       spec.seed));
    if (spec.captureNvmDigests)
        dev.setProbe(&digests);
    const dnn::ModelEntry &model = dnn::ModelZoo::instance().get(spec.net);
    dnn::DeviceNetwork net(dev, model.flashImage());

    const dnn::Dataset &data = model.dataset();
    const auto &sample = data[spec.sampleIndex % data.size()];
    net.loadInput(dnn::DeviceNetwork::quantizeInput(sample.input));

    const auto run = kernels::runInference(net, spec.impl);

    result.completed = run.completed;
    result.nonTerminating = run.nonTerminating;
    result.reboots = run.reboots;
    result.tasksExecuted = run.tasksExecuted;
    result.tailsTileWords = run.calibTileWords;
    result.liveSeconds = dev.liveSeconds();
    result.deadSeconds = dev.deadSeconds();
    result.totalSeconds = dev.totalSeconds();
    result.energyJ = dev.consumedJoules();
    result.harvestedJ = dev.power().harvestedNj() * 1e-9;
    if (spec.captureNvmDigests)
        result.finalNvmDigest = dev.nvmDigest();

    const auto &stats = dev.stats();
    for (u32 o = 0; o < arch::kNumOps; ++o)
        result.opInstances += stats.opCount(static_cast<arch::Op>(o));
    const f64 hz = arch::kClockHz;
    for (u16 l = 0; l < stats.numLayers(); ++l) {
        LayerBreakdown row;
        row.name = stats.layerName(l);
        row.kernelSeconds =
            static_cast<f64>(
                stats.bucket(l, arch::Part::Kernel).totalCycles())
            / hz;
        row.controlSeconds =
            static_cast<f64>(
                stats.bucket(l, arch::Part::Control).totalCycles())
            / hz;
        row.energyJ = stats.layerNanojoules(l) * 1e-9;
        result.layers.push_back(row);
    }
    for (u32 o = 0; o < arch::kNumOps; ++o) {
        const auto op = static_cast<arch::Op>(o);
        const f64 joules = stats.opNanojoules(op) * 1e-9;
        if (joules > 0.0)
            result.energyByOp[std::string(arch::opName(op))] = joules;
    }

    if (run.completed) {
        result.logits = run.logits;
        u32 best = 0;
        for (u32 i = 1; i < result.logits.size(); ++i)
            if (result.logits[i] > result.logits[best])
                best = i;
        result.predictedClass = best;
    }
    return result;
}

std::vector<SweepRecord>
Engine::run(const SweepPlan &plan,
            const std::vector<ResultSink *> &sinks)
{
    auto specs = plan.expand();
    const u64 total = specs.size();

    // Warm the zoo cache up front, single-threaded, so workers only
    // ever read immutable artifacts (and so cache construction order —
    // hence content — is independent of the thread count).
    for (const auto &net : plan.netAxis()) {
        const auto &model = dnn::ModelZoo::instance().get(net);
        model.flashImage();
        model.dataset();
    }

    std::vector<ResultSink *> live_sinks;
    for (auto *sink : sinks)
        if (sink != nullptr)
            live_sinks.push_back(sink);
    for (auto *sink : live_sinks)
        sink->begin(total);

    std::atomic<u64> specs_done{0};
    util::ProgressMeter progress("sweep", "coordinates", total,
                                 &specs_done, options_.progress);

    // Each spec fills its own slot; sinks see the finished prefix in
    // plan order while later specs still run.
    std::vector<SweepRecord> records(total);
    util::parallelFor(
        total, options_.threads,
        [&](u64 i, u32) {
            SweepRecord &record = records[i];
            record.planIndex = static_cast<u32>(i);
            record.spec = std::move(specs[i]);
            record.result = runOne(record.spec);
            specs_done.fetch_add(1, std::memory_order_relaxed);
        },
        [&](u64 i) {
            for (auto *sink : live_sinks)
                sink->add(records[i]);
        });

    for (auto *sink : live_sinks)
        sink->end();
    return records;
}

} // namespace sonic::app
