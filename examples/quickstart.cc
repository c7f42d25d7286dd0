/**
 * @file
 * Quickstart: declare a two-point sweep — one HAR inference on
 * continuous power and one on harvested RF energy with a 100 uF
 * capacitor — run it through the Engine, and check that the
 * intermittent run, despite dozens of power failures, produces
 * bit-identical logits.
 *
 * This exercises the core promise of SONIC (correct intermittent
 * execution with no hand-tuning and modest overhead) and the minimal
 * SweepPlan/Engine workflow every other bench builds on.
 */

#include <cstdio>

#include "app/engine.hh"
#include "util/table.hh"

using namespace sonic;

int
main()
{
    std::printf("%s", banner("SONIC quickstart: HAR inference").c_str());

    app::SweepPlan plan;
    plan.nets({"HAR"})
        .impls({kernels::Impl::Sonic})
        .environmentLabels({"continuous", "rf-paper@100uF"});

    app::Engine engine;
    const auto records = engine.run(plan);

    const auto &continuous = records[0].result;
    const auto &intermittent = records[1].result;

    std::printf("continuous : completed=%d class=%u live=%s "
                "energy=%s\n",
                continuous.completed, continuous.predictedClass,
                formatSeconds(continuous.liveSeconds).c_str(),
                formatEnergy(continuous.energyJ).c_str());
    std::printf("intermittent: completed=%d class=%u total=%s "
                "(dead %s) energy=%s reboots=%llu\n",
                intermittent.completed, intermittent.predictedClass,
                formatSeconds(intermittent.totalSeconds).c_str(),
                formatSeconds(intermittent.deadSeconds).c_str(),
                formatEnergy(intermittent.energyJ).c_str(),
                static_cast<unsigned long long>(intermittent.reboots));

    if (!continuous.completed || !intermittent.completed) {
        std::printf("FAIL: a run did not complete\n");
        return 1;
    }
    if (continuous.logits != intermittent.logits) {
        std::printf("FAIL: intermittent logits differ from continuous\n");
        return 1;
    }
    std::printf("OK: %llu power failures, bit-identical result\n",
                static_cast<unsigned long long>(intermittent.reboots));
    return 0;
}
