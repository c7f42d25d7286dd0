/**
 * @file
 * Reproduces Fig. 9a: inference time on continuous power for the three
 * networks across Base, Tile-8/32/128, SONIC and TAILS, stacked by
 * layer (convolutions dominate). Also prints each implementation's
 * slowdown relative to Base — the paper's headline continuous-power
 * ratios (Tile-8 gmean ~13.4x, SONIC ~1.45x, TAILS ~0.83x).
 */

#include "bench/bench_common.hh"

using namespace sonic;
using namespace sonic::bench;

int
main()
{
    std::printf("%s", banner("Fig. 9a — inference time, continuous "
                             "power").c_str());

    app::Engine engine;
    app::SweepPlan plan;
    plan.allNets().allImpls();
    const auto records = engine.run(plan);

    Table table({"net", "impl", "conv1 (s)", "conv2 (s)", "fc (s)",
                 "other (s)", "total live (s)", "vs Base"});

    for (const auto &net : dnn::kPaperNets) {
        const f64 base_live =
            resultFor(records, net, kernels::Impl::Base).liveSeconds;
        for (auto impl : kernels::kAllImpls) {
            const auto &r = resultFor(records, net, impl);
            table.row()
                .cell(net)
                .cell(std::string(kernels::implName(impl)))
                .cell(layerSeconds(r, "conv1"), 4)
                .cell(layerSeconds(r, "conv2"), 4)
                .cell(layerSeconds(r, "fc"), 4)
                .cell(layerSeconds(r, "other"), 4)
                .cell(r.liveSeconds, 4)
                .cell(base_live > 0.0 ? r.liveSeconds / base_live : 0.0,
                      2);
        }
    }
    table.print(std::cout);
    return 0;
}
