/**
 * @file
 * Reproduces Fig. 1: IMpJ vs inference accuracy for the wildlife-
 * monitoring case study when full images are sent. Series: always-send
 * baseline (Eq. 1), ideal oracle (Eq. 2), naive local inference (Eq. 3
 * with the tiled-Alpaca Einfer) and SONIC & TAILS. Einfer values are
 * *measured* on our prototype (MNIST on Tile-8 and TAILS, 1 mF); the
 * communication constants are derived from the OpenChirp radio energy
 * profile via the pipeline subsystem (one full-image TX attempt).
 * Also prints the Sec. 3.1 offload-vs-local comparison (>=360x).
 */

#include "app/wildlife.hh"
#include "bench/bench_common.hh"

using namespace sonic;
using namespace sonic::bench;

int
main()
{
    std::printf("%s", banner("Fig. 1 — wildlife monitoring, sending "
                             "full images").c_str());

    // Measure Einfer on the prototype (MNIST, 1 mF capacitor).
    const env::EnvRef cap1mF{"rf-paper", 1e-3};
    app::Engine engine;
    app::SweepPlan measure;
    measure.nets({"MNIST"})
        .impls({kernels::Impl::Tile8, kernels::Impl::Tails})
        .environments({cap1mF});
    const auto records = engine.run(measure);
    const auto &naive_run =
        resultFor(records, "MNIST", kernels::Impl::Tile8, cap1mF);
    const auto &tails_run =
        resultFor(records, "MNIST", kernels::Impl::Tails, cap1mF);

    auto params = app::WildlifeParams::fromRadio(
        arch::EnergyProfile::openChirpRadio());
    params.naiveInferJ = naive_run.energyJ;
    params.tailsInferJ = tails_run.energyJ;
    std::printf("measured Einfer: naive (Tile-8) = %s, "
                "SONIC&TAILS = %s\n",
                formatEnergy(params.naiveInferJ).c_str(),
                formatEnergy(params.tailsInferJ).c_str());
    std::printf("radio profile: Ecomm(image) = %.2f J, "
                "result shrink = %.1fx (paper 23 J / 98x)\n\n",
                params.commJ, params.resultCommShrink);

    const auto rows = sweepWildlife(params, 11, false);
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
    std::printf("\ncallouts at accuracy=1.0: local-inference gain "
                "%.1fx (paper ~20x), SONIC&TAILS vs naive %.2fx "
                "(paper ~1.1x)\n",
                top.sonicTails / top.alwaysSend,
                top.sonicTails / top.naive);

    const auto cmp = app::offloadVsLocal(
        28 * 28, tails_run.energyJ, env::kRfPaperWatts);
    std::printf("\nSec. 3.1: offloading one 28x28 image over OpenChirp "
                "~= %.0f s of harvest; local inference ~= %.1f s; "
                "speedup %.0fx (paper >=360x)\n",
                cmp.offloadSeconds, cmp.localSeconds, cmp.speedup);
    return 0;
}
