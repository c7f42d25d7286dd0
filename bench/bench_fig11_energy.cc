/**
 * @file
 * Reproduces Fig. 11: inference energy with a 1 mF capacitor for all
 * implementations. Energy is in direct proportion to the dead time of
 * Fig. 9, so SONIC & TAILS improve energy by the same factors as time.
 */

#include "bench/bench_common.hh"

using namespace sonic;
using namespace sonic::bench;

int
main()
{
    std::printf("%s", banner("Fig. 11 — inference energy (1mF)")
                          .c_str());

    app::Engine engine;
    app::SweepPlan plan;
    plan.allNets().allImpls().environmentLabels({"rf-paper@1mF"});
    const auto records = engine.run(plan);

    Table table({"net", "impl", "status", "energy (mJ)", "reboots"});
    for (const auto &record : records) {
        const auto &r = record.result;
        table.row()
            .cell(record.spec.net)
            .cell(std::string(kernels::implName(record.spec.impl)))
            .cell(statusOf(r))
            .cell(r.energyJ * 1e3, 3)
            .cell(static_cast<u64>(r.reboots));
    }
    table.print(std::cout);
    return 0;
}
