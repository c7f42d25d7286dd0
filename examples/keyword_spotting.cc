/**
 * @file
 * Keyword spotting (the paper's OkG workload) on a battery-less audio
 * sensor, comparing SONIC against TAILS on the same harvested-power
 * budget: TAILS' LEA acceleration buys either lower latency or more
 * inferences per harvested Joule. Also shows TAILS' one-time tile
 * calibration adapting to the power system (the calibrated tile
 * streams out of the sweep as ExperimentResult::tailsTileWords).
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "app/engine.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace sonic;

int
main()
{
    std::printf("%s", banner("Keyword spotting: SONIC vs TAILS")
                          .c_str());

    app::Engine engine;
    app::SweepPlan plan;
    plan.nets({"OkG"})
        .impls({kernels::Impl::Sonic, kernels::Impl::Tails})
        .environmentLabels(
            {"continuous", "rf-paper@1mF", "rf-paper@100uF"});
    const auto records = engine.run(plan);

    Table table({"power", "impl", "latency", "energy", "reboots",
                 "LEA tile"});
    for (const auto &environment : plan.environmentAxis()) {
        for (auto impl : {kernels::Impl::Sonic, kernels::Impl::Tails}) {
            const app::SweepRecord *record = nullptr;
            for (const auto &cand : records) {
                if (cand.spec.impl == impl
                    && cand.spec.environment == environment) {
                    record = &cand;
                    break;
                }
            }
            if (record == nullptr)
                fatal("sweep record missing for ",
                      kernels::implName(impl), "/",
                      environment.label());
            const auto &r = record->result;
            table.row()
                .cell(environment.label())
                .cell(std::string(kernels::implName(impl)))
                .cell(formatSeconds(r.completed ? r.totalSeconds
                                                : 0.0))
                .cell(formatEnergy(r.completed ? r.energyJ : 0.0))
                .cell(static_cast<u64>(r.reboots))
                .cell(impl == kernels::Impl::Tails
                          ? std::to_string(r.tailsTileWords) + " words"
                          : std::string("-"));
        }
    }
    table.print(std::cout);

    std::printf("\nTAILS calibrates its DMA/LEA tile to the energy "
                "buffer: large on bench power, smaller when a 100uF "
                "capacitor cannot complete a full-tile FIR within one "
                "charge cycle.\n");
    return 0;
}
