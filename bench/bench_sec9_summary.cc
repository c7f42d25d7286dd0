/**
 * @file
 * The Sec. 9.1 headline ratios, computed as in the paper (geometric
 * means across the three networks on continuous power, plus the
 * LEA/DMA ablation):
 *
 *  - Tile-8 is gmean 13.4x slower than Base (up to 19x);
 *  - SONIC is 1.45x slower than Base (25%-75% overhead);
 *  - TAILS is 1.2x *faster* than Base;
 *  - SONIC improves on tiled Alpaca by 6.9x, TAILS by 12.2x;
 *  - vs Tile-128: SONIC 5.2x, TAILS 9.2x;
 *  - LEA contributes ~1.4x, DMA ~14%.
 */

#include <algorithm>
#include <map>

#include "bench/bench_common.hh"

using namespace sonic;
using namespace sonic::bench;

int
main()
{
    std::printf("%s", banner("Sec. 9.1 — headline ratios").c_str());

    app::Engine engine;

    // The continuous-power grid plus the TAILS hardware ablation, as
    // one declarative sweep per axis combination.
    app::SweepPlan grid;
    grid.allNets().allImpls();
    const auto records = engine.run(grid);

    app::SweepPlan ablation;
    ablation.allNets()
        .impls({kernels::Impl::Tails})
        .profiles({app::ProfileVariant::NoLea,
                   app::ProfileVariant::NoDma});
    const auto ablation_records = engine.run(ablation);

    std::map<kernels::Impl, GeoMean> vs_base;
    f64 worst_tile8 = 0.0;

    for (const auto &net : dnn::kPaperNets) {
        const f64 base_live =
            resultFor(records, net, kernels::Impl::Base).liveSeconds;
        for (auto impl : kernels::kAllImpls) {
            const f64 live = resultFor(records, net, impl).liveSeconds;
            const f64 ratio = live / base_live;
            vs_base[impl].add(ratio);
            if (impl == kernels::Impl::Tile8)
                worst_tile8 = std::max(worst_tile8, ratio);
        }
    }

    Table table({"impl", "gmean vs Base", "paper"});
    table.row().cell(std::string("Tile-8"))
        .cell(vs_base[kernels::Impl::Tile8].value(), 2)
        .cell(std::string("13.4x"));
    table.row().cell(std::string("Tile-32"))
        .cell(vs_base[kernels::Impl::Tile32].value(), 2)
        .cell(std::string("~10x avg"));
    table.row().cell(std::string("Tile-128"))
        .cell(vs_base[kernels::Impl::Tile128].value(), 2)
        .cell(std::string("~7.5x"));
    table.row().cell(std::string("SONIC"))
        .cell(vs_base[kernels::Impl::Sonic].value(), 2)
        .cell(std::string("1.45x"));
    table.row().cell(std::string("TAILS"))
        .cell(vs_base[kernels::Impl::Tails].value(), 2)
        .cell(std::string("0.83x"));
    table.print(std::cout);

    const f64 sonic_vs_tile8 = vs_base[kernels::Impl::Tile8].value()
        / vs_base[kernels::Impl::Sonic].value();
    const f64 tails_vs_tile8 = vs_base[kernels::Impl::Tile8].value()
        / vs_base[kernels::Impl::Tails].value();
    const f64 sonic_vs_tile128 =
        vs_base[kernels::Impl::Tile128].value()
        / vs_base[kernels::Impl::Sonic].value();
    const f64 tails_vs_tile128 =
        vs_base[kernels::Impl::Tile128].value()
        / vs_base[kernels::Impl::Tails].value();

    std::printf("\nworst-case tiling slowdown: %.1fx (paper: up to "
                "19x)\n", worst_tile8);
    std::printf("SONIC vs Tile-8:   %.1fx (paper 6.9x)\n",
                sonic_vs_tile8);
    std::printf("TAILS vs Tile-8:   %.1fx (paper 12.2x)\n",
                tails_vs_tile8);
    std::printf("SONIC vs Tile-128: %.1fx (paper 5.2x)\n",
                sonic_vs_tile128);
    std::printf("TAILS vs Tile-128: %.1fx (paper 9.2x)\n",
                tails_vs_tile128);

    // LEA / DMA ablation (software-emulated hardware).
    GeoMean lea_gain, dma_gain;
    for (const auto &net : dnn::kPaperNets) {
        const f64 no_lea =
            resultFor(ablation_records, net, kernels::Impl::Tails, {},
                      app::ProfileVariant::NoLea).liveSeconds;
        const f64 no_dma =
            resultFor(ablation_records, net, kernels::Impl::Tails, {},
                      app::ProfileVariant::NoDma).liveSeconds;
        const f64 with_hw =
            resultFor(records, net, kernels::Impl::Tails).liveSeconds;
        lea_gain.add(no_lea / with_hw);
        dma_gain.add(no_dma / with_hw);
    }
    std::printf("\nLEA speedup over software emulation: %.2fx "
                "(paper 1.4x)\n", lea_gain.value());
    std::printf("DMA speedup over software copies:    %.2fx "
                "(paper ~1.14x)\n", dma_gain.value());
    return 0;
}
