/**
 * @file
 * Host-performance microbenchmarks (google-benchmark) of the
 * simulator's hot paths: the charged-operation dispatch (single-op and
 * span-batched, with and without the energy lease), memory-handle
 * accesses (single and bulk span), fixed-point arithmetic, the redo
 * log, the kernel registry, the harvest recharge walk a fleet replays
 * at each reboot, and a full tiny-network inference per
 * implementation. They time how fast experiments run on the host, not
 * the simulated device, and are a tool for finding where host time
 * goes in one layer. The numbers the repo records are perfbench's, in
 * BENCH_ledger.json (`python3 bench/ledger.py`).
 *
 * Three pairs measure what an observer costs. Each runs the same work
 * with no probe and with one attached:
 *  - the consume dispatch, with a no-op probe (the probe pointer is
 *    never read on that path, so the two must time the same; CI gates
 *    the ratio of their medians);
 *  - layer attribution switches, with a no-op probe (one predictable
 *    null check when off, a virtual call per switch when on);
 *  - a tiny SONIC inference, with a real trace::TraceRecorder.
 */

#include <benchmark/benchmark.h>

#include "arch/memory.hh"
#include "dnn/device_net.hh"
#include "env/environment.hh"
#include "fixed/fixed.hh"
#include "kernels/runner.hh"
#include "task/runtime.hh"
#include "tests/test_helpers.hh"
#include "trace/trace.hh"

using namespace sonic;

namespace
{

arch::Device
continuousDevice(bool per_op_draw = false)
{
    arch::DeviceConfig config;
    config.perOpPowerDraw = per_op_draw;
    return arch::Device(arch::EnergyProfile::msp430fr5994(),
                        std::make_unique<arch::ContinuousPower>(),
                        config);
}

/** A probe that overrides nothing: pure virtual-dispatch cost. */
class NullProbe final : public arch::TraceProbe
{
};

void
BM_DeviceConsume(benchmark::State &state)
{
    auto dev = continuousDevice();
    for (auto _ : state)
        dev.consume(arch::Op::FixedMul);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceConsume);

void
BM_DeviceConsumeProbeAttached(benchmark::State &state)
{
    NullProbe probe; // outlives the device, which settles through it
    auto dev = continuousDevice();
    dev.setProbe(&probe);
    for (auto _ : state)
        dev.consume(arch::Op::FixedMul);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceConsumeProbeAttached);

void
BM_DeviceConsumePerOpDraw(benchmark::State &state)
{
    auto dev = continuousDevice(/*per_op_draw=*/true);
    for (auto _ : state)
        dev.consume(arch::Op::FixedMul);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceConsumePerOpDraw);

void
BM_DeviceConsumeBatch32(benchmark::State &state)
{
    auto dev = continuousDevice();
    for (auto _ : state)
        dev.consume(arch::Op::FixedMul, 32);
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_DeviceConsumeBatch32);

void
BM_NvArrayReadWrite(benchmark::State &state)
{
    auto dev = continuousDevice();
    arch::NvArray<i16> arr(dev, 1024, "bench");
    u32 i = 0;
    for (auto _ : state) {
        arr.write(i & 1023, static_cast<i16>(i));
        benchmark::DoNotOptimize(arr.read(i & 1023));
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_NvArrayReadWrite);

void
BM_NvArraySpan64(benchmark::State &state)
{
    auto dev = continuousDevice();
    arch::NvArray<i16> arr(dev, 1024, "bench");
    i16 buf[64] = {};
    u32 i = 0;
    for (auto _ : state) {
        const u64 base = (i & 15) * 64;
        arr.writeRange(base, 64, buf);
        arr.readRange(base, 64, buf);
        benchmark::DoNotOptimize(buf[0]);
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_NvArraySpan64);

/** Alternating layers, the worst case: kernels switch per region. */
void
layerSwitches(benchmark::State &state, arch::TraceProbe *probe)
{
    auto dev = continuousDevice();
    const u16 a = dev.registerLayer("a");
    const u16 b = dev.registerLayer("b");
    dev.setProbe(probe);
    for (auto _ : state) {
        dev.setLayer(a);
        dev.setLayer(b);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}

void
BM_LayerSwitch(benchmark::State &state)
{
    layerSwitches(state, nullptr);
}
BENCHMARK(BM_LayerSwitch);

void
BM_LayerSwitchProbeAttached(benchmark::State &state)
{
    NullProbe probe;
    layerSwitches(state, &probe);
}
BENCHMARK(BM_LayerSwitchProbeAttached);

void
BM_FixedMulAdd(benchmark::State &state)
{
    fixed::Q78 acc;
    fixed::Q78 a = fixed::Q78::fromFloat(0.37);
    fixed::Q78 b = fixed::Q78::fromFloat(1.21);
    for (auto _ : state) {
        acc = acc + a * b;
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FixedMulAdd);

void
BM_RedoLogWriteCommit(benchmark::State &state)
{
    auto dev = continuousDevice();
    task::Program prog;
    arch::NvArray<i16> arr(dev, 64, "a");
    const auto entries = static_cast<u32>(state.range(0));
    const task::TaskId t =
        prog.addTask([&](task::Runtime &rt) {
            for (u32 k = 0; k < entries; ++k)
                rt.logWrite(arr, k % 64, static_cast<i16>(k));
            return task::kDone;
        });
    for (auto _ : state) {
        task::Scheduler sched(dev, prog);
        benchmark::DoNotOptimize(sched.run(t).completed);
    }
    state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_RedoLogWriteCommit)->Arg(8)->Arg(32)->Arg(128);

void
BM_ImplRegistryLookup(benchmark::State &state)
{
    // The kernel table's two lookups: by name (flag parsing, the .sonicz
    // reader) and by id (every telemetry row's impl column).
    kernels::Impl impl = kernels::Impl::Base;
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::implFromName("SONIC", &impl));
        benchmark::DoNotOptimize(kernels::implName(kernels::Impl::Tails));
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ImplRegistryLookup);

void
BM_RedoLogRead(benchmark::State &state)
{
    // Reads against a log holding `entries` uncommitted writes — the
    // Tile-128 shape that used to pay a reverse linear scan per read.
    auto dev = continuousDevice();
    task::Program prog;
    arch::NvArray<i16> arr(dev, 1024, "a");
    const auto entries = static_cast<u32>(state.range(0));
    u64 sink = 0;
    const task::TaskId t =
        prog.addTask([&](task::Runtime &rt) {
            for (u32 k = 0; k < entries; ++k)
                rt.logWrite(arr, k % 1024, static_cast<i16>(k));
            for (u32 k = 0; k < entries; ++k)
                sink += static_cast<u64>(rt.logRead(arr, k % 1024));
            return task::kDone;
        });
    for (auto _ : state) {
        task::Scheduler sched(dev, prog);
        benchmark::DoNotOptimize(sched.run(t).completed);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_RedoLogRead)->Arg(8)->Arg(128)->Arg(1024);

/**
 * One reboot of fleet-replay's hit replay (fleet::replayRound): the
 * uptime since the last reboot, the empty level a brown-out leaves,
 * and the recharge walk through the harvest model. The uptime is what
 * one full buffer buys, about 0.5 ms per 100 uF (mixed-1k's live
 * seconds per reboot).
 */
void
BM_HarvestRecharge(benchmark::State &state)
{
    static const env::EnvRef refs[] = {{"solar", 100e-6},
                                       {"rf-paper", 100e-6},
                                       {"rf-bursty", 1e-3},
                                       {"trace-rf-office", 1e-3}};
    const env::EnvRef &ref = refs[state.range(0)];
    const auto psu = env::EnvRegistry::instance().make(ref, 1);
    auto &supply = dynamic_cast<env::HarvestSupply &>(*psu);
    const f64 live = 5.0 * ref.capacitanceFarads;
    f64 dead = 0.0;
    for (auto _ : state) {
        supply.elapse(live);
        supply.setLevelNjForReplay(0.0);
        dead += supply.recharge();
    }
    benchmark::DoNotOptimize(dead);
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(ref.label());
}
BENCHMARK(BM_HarvestRecharge)->DenseRange(0, 3);

void
BM_TinyInference(benchmark::State &state)
{
    const auto impl = static_cast<kernels::Impl>(state.range(0));
    const auto spec = testutil::tinyNet();
    const auto input = testutil::tinyInput();
    for (auto _ : state) {
        auto dev = continuousDevice();
        dnn::DeviceNetwork net(dev, spec);
        net.loadInput(input);
        benchmark::DoNotOptimize(
            kernels::runInference(net, impl).completed);
    }
}
BENCHMARK(BM_TinyInference)
    ->Arg(static_cast<int>(kernels::Impl::Base))
    ->Arg(static_cast<int>(kernels::Impl::Tile8))
    ->Arg(static_cast<int>(kernels::Impl::Sonic))
    ->Arg(static_cast<int>(kernels::Impl::Tails));

/** BM_TinyInference's SONIC case with a recorder attached, fresh per
 * inference as the fleet attaches one per sampled device. */
void
BM_TinyInferenceRecorder(benchmark::State &state)
{
    const auto spec = testutil::tinyNet();
    const auto input = testutil::tinyInput();
    for (auto _ : state) {
        trace::TraceRecorder recorder(0);
        auto dev = continuousDevice();
        dev.setProbe(&recorder);
        dnn::DeviceNetwork net(dev, spec);
        net.loadInput(input);
        benchmark::DoNotOptimize(
            kernels::runInference(net, kernels::Impl::Sonic).completed);
    }
}
BENCHMARK(BM_TinyInferenceRecorder);

void
BM_TinyIntermittentSonic(benchmark::State &state)
{
    const auto spec = testutil::tinyNet();
    const auto input = testutil::tinyInput();
    for (auto _ : state) {
        arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                         testutil::failEvery(
                             static_cast<u64>(state.range(0))));
        dnn::DeviceNetwork net(dev, spec);
        net.loadInput(input);
        benchmark::DoNotOptimize(
            kernels::runInference(net, kernels::Impl::Sonic)
                .completed);
    }
}
BENCHMARK(BM_TinyIntermittentSonic)->Arg(127)->Arg(1031);

} // namespace

BENCHMARK_MAIN();
