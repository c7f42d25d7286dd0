/**
 * @file
 * Reproduces Table 2: per-layer compression of the three deployed
 * networks — technique, compressed parameter count, compression ratio,
 * and end accuracy — side by side with the paper's reported numbers.
 */

#include "bench/bench_common.hh"
#include "dnn/dataset.hh"

using namespace sonic;
using namespace sonic::bench;

int
main()
{
    std::printf("%s", banner("Table 2 — network compression").c_str());

    for (const auto &name : dnn::kPaperNets) {
        const auto &model = dnn::ModelZoo::instance().get(name);
        const auto &teacher = model.teacher();
        const auto &net = model.compressed();
        const auto &data = model.dataset();

        const auto orig = dnn::accountLayers(teacher);
        const auto comp = dnn::accountLayers(net);

        std::printf("\n--- %s ---\n", name.c_str());
        Table table({"layer", "kind", "params", "MACs"});
        std::printf("original layers:\n");
        for (const auto &l : orig)
            table.row()
                .cell(l.name)
                .cell(l.kind)
                .cell(static_cast<u64>(l.params))
                .cell(static_cast<u64>(l.macs));
        table.print(std::cout);

        std::printf("compressed layers:\n");
        Table table2({"layer", "kind", "params", "MACs"});
        for (const auto &l : comp)
            table2.row()
                .cell(l.name)
                .cell(l.kind)
                .cell(static_cast<u64>(l.params))
                .cell(static_cast<u64>(l.macs));
        table2.print(std::cout);

        const f64 ratio = static_cast<f64>(teacher.paramCount())
                        / static_cast<f64>(net.paramCount());
        const f64 acc = model.meta().scaledAccuracy(
            dnn::agreement(net, data));
        std::printf("total: %llu -> %llu params (%.1fx); accuracy "
                    "%.3f (paper: %.2f); FRAM %.1f KB (cap 256 KB, "
                    "original %.1f KB)\n",
                    static_cast<unsigned long long>(
                        teacher.paramCount()),
                    static_cast<unsigned long long>(net.paramCount()),
                    ratio, acc, model.meta().paperAccuracy,
                    static_cast<f64>(net.framBytesNeeded()) / 1024.0,
                    static_cast<f64>(teacher.framBytesNeeded())
                        / 1024.0);
    }
    return 0;
}
