/**
 * @file
 * Wildlife monitoring (the paper's Sec. 3 case study): a battery-less
 * camera trap that photographs rare animals and uses on-device MNIST-
 * style image inference to decide which events are worth the very
 * expensive radio. Simulates a day of events and reports interesting
 * messages per harvested Joule for three designs: always-send, naive
 * local inference (tiled Alpaca), and SONIC & TAILS.
 */

#include <cstdio>
#include <iostream>

#include "app/engine.hh"
#include "app/wildlife.hh"
#include "util/rng.hh"
#include "util/table.hh"

using namespace sonic;

int
main()
{
    std::printf("%s", banner("Wildlife monitoring camera trap")
                          .c_str());

    // Measure the inference energies of the two designs on the
    // prototype (MNIST on a 1 mF capacitor) with one two-point sweep.
    app::Engine engine;
    app::SweepPlan measure;
    measure.nets({"MNIST"})
        .impls({kernels::Impl::Tile8, kernels::Impl::Tails})
        .environmentLabels({"rf-paper@1mF"});
    const auto records = engine.run(measure);
    const f64 naive_j = records[0].result.energyJ;
    const f64 tails_j = records[1].result.energyJ;

    auto params = app::WildlifeParams::fromRadio(
        arch::EnergyProfile::openChirpRadio());
    params.naiveInferJ = naive_j;
    params.tailsInferJ = tails_j;

    // Simulate a stream of 2000 events at the paper's base rate with
    // a 99%-accurate classifier, sending results only.
    Rng rng(2024);
    const f64 acc = 0.99;
    const f64 comm_j = params.commJ / params.resultCommShrink;
    u64 interesting_sent[3] = {0, 0, 0};
    f64 energy_spent[3] = {0, 0, 0};
    for (int event = 0; event < 2000; ++event) {
        const bool interesting = rng.bernoulli(params.baseRate);
        const bool detected = interesting ? rng.bernoulli(acc)
                                          : !rng.bernoulli(acc);
        // Design 0: always send the full image.
        energy_spent[0] += params.senseJ + params.commJ;
        interesting_sent[0] += interesting;
        // Design 1: naive local inference, send result on detection.
        energy_spent[1] += params.senseJ + naive_j
                         + (detected ? comm_j : 0.0);
        interesting_sent[1] += interesting && detected;
        // Design 2: SONIC & TAILS.
        energy_spent[2] += params.senseJ + tails_j
                         + (detected ? comm_j : 0.0);
        interesting_sent[2] += interesting && detected;
    }

    Table table({"design", "Einfer", "interesting sent",
                 "energy (kJ)", "IMpJ (per kJ)"});
    const char *names[3] = {"always-send", "naive local (Tile-8)",
                            "SONIC&TAILS"};
    const f64 infer_j[3] = {0.0, naive_j, tails_j};
    for (int d = 0; d < 3; ++d) {
        table.row()
            .cell(std::string(names[d]))
            .cell(formatEnergy(infer_j[d]))
            .cell(static_cast<u64>(interesting_sent[d]))
            .cell(energy_spent[d] / 1e3, 2)
            .cell(static_cast<f64>(interesting_sent[d])
                      / (energy_spent[d] / 1e3),
                  1);
    }
    table.print(std::cout);

    const f64 impj0 = static_cast<f64>(interesting_sent[0])
                    / energy_spent[0];
    const f64 impj2 = static_cast<f64>(interesting_sent[2])
                    / energy_spent[2];
    std::printf("\nSONIC&TAILS delivers %.0fx more interesting "
                "messages per Joule than sending everything.\n",
                impj2 / impj0);
    return 0;
}
