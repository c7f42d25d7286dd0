/**
 * @file
 * Reproduces Fig. 2: IMpJ vs accuracy when only the inference *result*
 * is communicated. The shrink factor is not hand-entered: it is the
 * image/result TX-attempt energy ratio under the OpenChirp radio
 * profile (~97x; the paper rounds to 98x).
 * Callouts: SONIC & TAILS ~480x over always-send, ~4.6x over naive,
 * within ~2.2x of ideal; ideal/always-send ~110x.
 */

#include "app/wildlife.hh"
#include "bench/bench_common.hh"

using namespace sonic;
using namespace sonic::bench;

int
main()
{
    std::printf("%s", banner("Fig. 2 — wildlife monitoring, sending "
                             "results only").c_str());

    const env::EnvRef cap1mF{"rf-paper", 1e-3};
    app::Engine engine;
    app::SweepPlan measure;
    measure.nets({"MNIST"})
        .impls({kernels::Impl::Tile8, kernels::Impl::Tails})
        .environments({cap1mF});
    const auto records = engine.run(measure);

    auto params = app::WildlifeParams::fromRadio(
        arch::EnergyProfile::openChirpRadio());
    params.naiveInferJ =
        resultFor(records, "MNIST", kernels::Impl::Tile8, cap1mF).energyJ;
    params.tailsInferJ =
        resultFor(records, "MNIST", kernels::Impl::Tails, cap1mF).energyJ;

    std::printf("radio profile: result shrink = %.1fx (paper 98x)\n\n",
                params.resultCommShrink);

    const auto rows = sweepWildlife(params, 11, true);
    Table table({"accuracy", "always-send (IM/kJ)", "ideal (IM/kJ)",
                 "naive (IM/kJ)", "SONIC&TAILS (IM/kJ)"});
    for (const auto &row : rows) {
        table.row()
            .cell(row.accuracy, 2)
            .cell(row.alwaysSend * 1e3, 2)
            .cell(row.ideal * 1e3, 2)
            .cell(row.naive * 1e3, 2)
            .cell(row.sonicTails * 1e3, 2);
    }
    table.print(std::cout);

    const auto &top = rows.back();
    std::printf("\ncallouts at accuracy=1.0:\n");
    std::printf("  SONIC&TAILS vs always-send: %.0fx (paper ~480x)\n",
                top.sonicTails / top.alwaysSend);
    std::printf("  SONIC&TAILS vs naive:       %.2fx (paper ~4.6x)\n",
                top.sonicTails / top.naive);
    std::printf("  ideal vs SONIC&TAILS:       %.2fx (paper ~2.2x)\n",
                top.ideal / top.sonicTails);
    std::printf("  ideal vs always-send:       %.0fx (paper ~110x)\n",
                top.ideal / top.alwaysSend);
    return 0;
}
