/**
 * @file
 * Reproduces Fig. 9b: inference time on intermittent power with a
 * 100 uF capacitor. Base never completes; Tile-128 never completes;
 * Tile-32 fails on MNIST only; Tile-8, SONIC and TAILS always
 * complete, with SONIC & TAILS far faster.
 */

#include "bench/bench_common.hh"

using namespace sonic;
using namespace sonic::bench;

int
main()
{
    std::printf("%s", banner("Fig. 9b — inference time, intermittent "
                             "(100uF)").c_str());

    app::Engine engine;
    app::SweepPlan plan;
    plan.allNets().allImpls().environmentLabels({"rf-paper@100uF"});
    const auto records = engine.run(plan);

    Table table({"net", "impl", "status", "live (s)", "dead (s)",
                 "total (s)", "reboots"});
    for (const auto &record : records) {
        const auto &r = record.result;
        table.row()
            .cell(record.spec.net)
            .cell(std::string(kernels::implName(record.spec.impl)))
            .cell(statusOf(r))
            .cell(r.liveSeconds, 3)
            .cell(r.deadSeconds, 3)
            .cell(r.totalSeconds, 3)
            .cell(static_cast<u64>(r.reboots));
    }
    table.print(std::cout);
    return 0;
}
