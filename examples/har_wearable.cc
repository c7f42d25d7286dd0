/**
 * @file
 * A battery-less wearable running human-activity recognition (HAR):
 * classifies accelerometer windows continuously on harvested energy.
 * Demonstrates sustained intermittent operation — ten windows on a
 * 100 uF capacitor, declared as a samples-axis sweep — and reports
 * the achieved inference rate and per-inference energy, plus
 * on-device agreement with the float model.
 */

#include <cstdio>
#include <iostream>

#include "app/engine.hh"
#include "util/table.hh"

using namespace sonic;

int
main()
{
    std::printf("%s", banner("HAR wearable on harvested energy")
                          .c_str());

    const u32 kWindows = 10;

    app::Engine engine;
    app::SweepPlan plan;
    plan.nets({"HAR"})
        .impls({kernels::Impl::Sonic})
        .environmentLabels({"rf-paper@100uF"})
        .samples(kWindows);
    const auto records = engine.run(plan);

    const auto &spec = engine.compressed("HAR");
    const auto &data = engine.dataset("HAR");

    u32 agree = 0;
    u64 reboots = 0;
    f64 seconds = 0.0;
    f64 joules = 0.0;
    f64 dead_seconds = 0.0;
    Table table({"window", "label", "device class", "reboots",
                 "window time (s)"});
    for (const auto &record : records) {
        const auto &r = record.result;
        const u32 w = record.spec.sampleIndex;
        if (!r.completed) {
            std::printf("window %u did not complete!\n", w);
            return 1;
        }
        reboots += r.reboots;
        seconds += r.totalSeconds;
        joules += r.energyJ;
        dead_seconds += r.deadSeconds;
        agree += r.predictedClass == spec.classify(data[w].input);
        table.row()
            .cell(static_cast<u64>(w))
            .cell(static_cast<u64>(data[w].label))
            .cell(static_cast<u64>(r.predictedClass))
            .cell(static_cast<u64>(r.reboots))
            .cell(r.totalSeconds, 2);
    }
    table.print(std::cout);

    std::printf("\n%u windows classified across %llu power failures; "
                "device/f32 agreement %u/%u\n",
                kWindows, static_cast<unsigned long long>(reboots),
                agree, kWindows);
    std::printf("avg per inference: %s, %s (%.1f%% of time spent "
                "recharging)\n",
                formatSeconds(seconds / kWindows).c_str(),
                formatEnergy(joules / kWindows).c_str(),
                100.0 * dead_seconds / seconds);
    return 0;
}
