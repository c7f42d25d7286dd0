/**
 * @file
 * Reproduces Fig. 12: SONIC's energy broken down by operation class
 * and layer. The paper's observations to check: control instructions
 * ~26% of energy; FRAM writes to loop indices alone ~14%; multiplies,
 * loads and stores are the other large shares.
 */

#include "bench/bench_common.hh"

using namespace sonic;
using namespace sonic::bench;

int
main()
{
    std::printf("%s", banner("Fig. 12 — SONIC energy by operation")
                          .c_str());

    app::Engine engine;
    app::SweepPlan plan;
    plan.allNets().impls({kernels::Impl::Sonic});
    const auto records = engine.run(plan);

    for (const auto &record : records) {
        const auto &r = record.result;
        std::printf("\n%s (total %s):\n",
                    record.spec.net.c_str(),
                    formatEnergy(r.energyJ).c_str());
        Table table({"op", "energy (uJ)", "share", ""});
        for (const auto &[op, joules] : r.energyByOp) {
            const f64 share = joules / r.energyJ;
            if (share < 0.005)
                continue;
            table.row()
                .cell(op)
                .cell(joules * 1e6, 1)
                .cell(share, 3)
                .cell(asciiBar(share, 30));
        }
        table.print(std::cout);
        const f64 store_share =
            (r.energyByOp.count("fram-store")
                 ? r.energyByOp.at("fram-store")
                 : 0.0)
            / r.energyJ;
        std::printf("FRAM-store share (paper: ~14%% from loop "
                    "indices): %.1f%%\n", store_share * 100.0);
    }
    return 0;
}
