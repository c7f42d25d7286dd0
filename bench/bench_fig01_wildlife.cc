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
 *
 * `--emit-json[=PATH]` instead runs a chrono-timed wildlife-day-style
 * fleet (the motivating deployment at reduced scale) and writes the
 * throughput/delivery numbers to PATH (default BENCH_fleet.json) in
 * the same flat-JSON shape as bench_micro_ops.
 */

#include <chrono>
#include <cstring>

#include "app/wildlife.hh"
#include "bench/bench_common.hh"
#include "bench/bench_json.hh"
#include "fleet/fleet.hh"

using namespace sonic;
using namespace sonic::bench;

namespace
{

/** The --emit-json harness (see file header). */
int
emitJson(const std::string &path)
{
    // The wildlife-day scenario at bench scale: every device runs the
    // full sense-infer-transmit pipeline under solar power.
    fleet::FleetPlan plan;
    plan.devices = 96;
    plan.nets = {"MNIST"};
    plan.impls = {kernels::Impl::Sonic, kernels::Impl::Tails,
                  kernels::Impl::Tile8};
    plan.environments = {{"solar", 1e-3},
                         {"trace-solar-cloudy", 1e-3}};
    plan.pipelines = {"wildlife"};
    plan.maxInferencesPerDevice = 2;

    const auto t0 = std::chrono::steady_clock::now();
    const auto summary = fleet::runFleet(plan);
    const auto t1 = std::chrono::steady_clock::now();
    const f64 wall = std::chrono::duration<f64>(t1 - t0).count();

    std::vector<JsonField> fields;
    fields.push_back({"devices", static_cast<f64>(summary.devices)});
    fields.push_back({"wall_seconds", wall});
    fields.push_back({"devices_per_sec",
                      wall > 0.0 ? summary.devices / wall : 0.0});
    fields.push_back(
        {"inferences",
         static_cast<f64>(summary.total.inferences)});
    fields.push_back({"inferences_per_device_day",
                      summary.total.inferencesPerDeviceDay()});
    fields.push_back(
        {"results_delivered",
         static_cast<f64>(summary.total.resultsDelivered)});
    fields.push_back({"delivered_results_per_device_day",
                      summary.total.deliveredPerDeviceDay()});
    fields.push_back({"tx_retries_per_delivered",
                      summary.total.retriesPerDelivered()});
    fields.push_back({"radio_energy_fraction",
                      summary.total.radioEnergyFraction()});
    fields.push_back({"delivery_p50_seconds",
                      summary.deliveryP50Seconds});
    fields.push_back({"delivery_p99_seconds",
                      summary.deliveryP99Seconds});

    if (!writeFlatJson(path, "fleet_wildlife_day", fields))
        return 1;
    return summary.total.resultsDelivered > 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--emit-json") == 0)
            return emitJson("BENCH_fleet.json");
        if (std::strncmp(argv[i], "--emit-json=", 12) == 0)
            return emitJson(argv[i] + 12);
        std::fprintf(stderr, "unknown flag %s "
                             "(try --emit-json[=PATH])\n",
                     argv[i]);
        return 2;
    }

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
