/**
 * @file
 * Using GENESIS as a tool: start from the uncompressed HAR network
 * description, sweep separation/pruning configurations, and let the
 * IMpJ application model (not raw accuracy!) choose the configuration
 * to deploy — then verify the chosen network actually runs on the
 * simulated device under intermittent power.
 */

#include <cstdio>
#include <iostream>

#include "app/engine.hh"
#include "dnn/device_net.hh"
#include "genesis/genesis.hh"
#include "util/table.hh"

using namespace sonic;

int
main()
{
    std::printf("%s", banner("GENESIS: compress, choose, deploy")
                          .c_str());

    genesis::GenesisOptions opts;
    opts.denseGrid = false; // quick demonstration sweep
    opts.evalSamples = 48;
    const auto result = genesis::runGenesis("HAR", opts);

    std::printf("original: %llu params, %.0f KB (infeasible: exceeds "
                "the 256 KB FRAM)\n",
                static_cast<unsigned long long>(result.original.params),
                static_cast<f64>(result.original.framBytes) / 1024.0);

    Table table({"technique", "fcKeep", "params", "accuracy",
                 "Einfer (mJ)", "IMpJ/kJ", "picked"});
    for (u32 i = 0; i < result.configs.size(); ++i) {
        const auto &c = result.configs[i];
        table.row()
            .cell(std::string(genesis::techniqueName(c.technique)))
            .cell(std::min(c.knobs.fcKeep, 99.0), 2)
            .cell(static_cast<u64>(c.params))
            .cell(c.accuracy, 3)
            .cell(c.inferJ * 1e3, 2)
            .cell(c.impj * 1e3, 2)
            .cell(std::string(i == result.chosenIndex ? "<==" : ""));
    }
    table.print(std::cout);

    // Deploy the chosen configuration on the simulated device and run
    // one intermittent inference to prove it fits and completes.
    const auto chosen_spec = dnn::ModelZoo::instance().get("HAR")
                                 .withKnobs(result.chosen().knobs,
                                            opts.seed);
    arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                     env::EnvRegistry::instance().make(
                         {"rf-paper", 100e-6}, /*seed=*/0));
    dnn::DeviceNetwork net(dev, chosen_spec);
    const auto &data = dnn::ModelZoo::instance().get("HAR").dataset();
    net.loadInput(dnn::DeviceNetwork::quantizeInput(data[0].input));
    const auto run = kernels::runInference(net, kernels::Impl::Sonic);

    std::printf("\ndeployed chosen config: FRAM %.1f KB used; "
                "intermittent inference %s in %s across %llu power "
                "failures\n",
                static_cast<f64>(dev.framBytesUsed()) / 1024.0,
                run.completed ? "completed" : "FAILED",
                formatSeconds(dev.totalSeconds()).c_str(),
                static_cast<unsigned long long>(run.reboots));
    return run.completed ? 0 : 1;
}
