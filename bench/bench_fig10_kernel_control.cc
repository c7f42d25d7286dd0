/**
 * @file
 * Reproduces Fig. 10: the kernel-vs-control split of live time per
 * layer for Base, Tile-32, SONIC and TAILS on continuous power. SONIC's
 * overhead over Base is almost entirely control (index maintenance and
 * transitions); Tile-32 inflates both kernel (dynamic redo-log
 * buffering) and control (commits + transitions); most of TAILS'
 * control time is the software fixed-point shifts LEA cannot do.
 */

#include "bench/bench_common.hh"

using namespace sonic;
using namespace sonic::bench;

int
main()
{
    std::printf("%s", banner("Fig. 10 — kernel vs control time")
                          .c_str());

    app::Engine engine;
    app::SweepPlan plan;
    plan.allNets()
        .impls({kernels::Impl::Base, kernels::Impl::Tile32,
                kernels::Impl::Sonic, kernels::Impl::Tails});
    const auto records = engine.run(plan);

    Table table({"net", "impl", "layer", "kernel (s)", "control (s)",
                 "control share"});
    for (const auto &record : records) {
        for (const auto &layer : record.result.layers) {
            const f64 total =
                layer.kernelSeconds + layer.controlSeconds;
            if (total <= 0.0)
                continue;
            table.row()
                .cell(record.spec.net)
                .cell(std::string(
                    kernels::implName(record.spec.impl)))
                .cell(layer.name)
                .cell(layer.kernelSeconds, 4)
                .cell(layer.controlSeconds, 4)
                .cell(layer.controlSeconds / total, 2);
        }
    }
    table.print(std::cout);
    return 0;
}
