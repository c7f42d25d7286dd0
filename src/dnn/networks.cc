#include "dnn/networks.hh"

#include <algorithm>
#include <cmath>

#include "tensor/decompose.hh"
#include "tensor/sparse.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace sonic::dnn
{

namespace
{

// ---------------------------------------------------------------------
// Compressible weight generators.
//
// Trained networks are compressible because their filter banks are
// approximately low-rank and their FC weights have heavy-tailed
// magnitude distributions. The teachers are constructed with exactly
// those properties so that GENESIS' separation/pruning trade-offs have
// realistic shapes.
// ---------------------------------------------------------------------

/** Low-rank-dominated 3-way tensor: sum of decaying rank-1 terms. */
tensor::Tensor3
compressibleTensor3(u32 d0, u32 d1, u32 d2, Rng &rng)
{
    tensor::Tensor3 t(d0, d1, d2);
    const f64 lambdas[] = {1.0, 0.10, 0.03};
    for (f64 lambda : lambdas) {
        std::vector<f64> a(d0), b(d1), c(d2);
        for (auto &x : a)
            x = rng.gaussian();
        for (auto &x : b)
            x = rng.gaussian();
        for (auto &x : c)
            x = rng.gaussian();
        for (u32 i = 0; i < d0; ++i)
            for (u32 j = 0; j < d1; ++j)
                for (u32 k = 0; k < d2; ++k)
                    t.at(i, j, k) += lambda * a[i] * b[j] * c[k]
                        / std::sqrt(static_cast<f64>(d0 + d1 + d2));
    }
    for (auto &v : t.data())
        v += rng.gaussian(0.0, 0.003);
    return t;
}

/**
 * Heavy-tailed + low-rank FC weights: a rank-r core plus sparse large
 * "spike" entries plus small dense noise. Pruning keeps the spikes and
 * core peaks; SVD keeps the core.
 */
tensor::Matrix
compressibleMatrix(u32 m, u32 n, Rng &rng)
{
    const u32 r = std::max(4u, std::min({m, n, 12u}));
    tensor::Matrix u = tensor::Matrix::gaussian(m, r, rng);
    tensor::Matrix v = tensor::Matrix::gaussian(r, n, rng);
    // Decaying component magnitudes.
    for (u32 i = 0; i < r; ++i) {
        const f64 s = std::pow(0.6, static_cast<f64>(i));
        for (u32 row = 0; row < m; ++row)
            u.at(row, i) *= s;
    }
    tensor::Matrix w =
        u.matmul(v).scaled(1.0 / std::sqrt(static_cast<f64>(n)));
    // Sparse spikes: ~2% of entries carry independent larger weights.
    const u64 spikes = (u64{m} * n) / 50;
    for (u64 s = 0; s < spikes; ++s) {
        const u32 row = static_cast<u32>(rng.below(m));
        const u32 col = static_cast<u32>(rng.below(n));
        w.at(row, col) += rng.gaussian(0.0, 0.18);
    }
    for (auto &x : w.data())
        x += rng.gaussian(0.0, 0.002);
    return w;
}

/** Convert a (oc, kh, kw) tensor into a single-input-channel bank. */
tensor::FilterBank
bankFromTensor(const tensor::Tensor3 &t)
{
    tensor::FilterBank bank(t.dim0(), 1, t.dim1(), t.dim2());
    for (u32 oc = 0; oc < t.dim0(); ++oc)
        for (u32 y = 0; y < t.dim1(); ++y)
            for (u32 x = 0; x < t.dim2(); ++x)
            bank.at(oc, 0, y, x) = t.at(oc, y, x);
    return bank;
}

/** Extract the (oc, kh, kw) tensor of a single-channel bank. */
tensor::Tensor3
tensorFromBank(const tensor::FilterBank &bank)
{
    SONIC_ASSERT(bank.inChannels == 1);
    tensor::Tensor3 t(bank.outChannels, bank.kh, bank.kw);
    for (u32 oc = 0; oc < bank.outChannels; ++oc)
        for (u32 y = 0; y < bank.kh; ++y)
            for (u32 x = 0; x < bank.kw; ++x)
                t.at(oc, y, x) = bank.at(oc, 0, y, x);
    return t;
}

/** Prune two SVD factors jointly to a total non-zero budget. */
void
pruneFactorsToTotal(tensor::Matrix &u, tensor::Matrix &v, u64 total_nnz)
{
    std::vector<f64> mags;
    mags.reserve(u.size() + v.size());
    for (f64 x : u.data())
        mags.push_back(std::fabs(x));
    for (f64 x : v.data())
        mags.push_back(std::fabs(x));
    if (total_nnz >= mags.size())
        return;
    std::nth_element(mags.begin(), mags.end() - total_nnz, mags.end());
    const f64 cutoff = mags[mags.size() - total_nnz];
    tensor::pruneThreshold(u, cutoff);
    tensor::pruneThreshold(v, cutoff);
}

/** Compressed FC: SVD to rank k, then prune factors to total budget.
 * Emits one or two layers into out (factored form shares the name). */
void
appendCompressedFc(std::vector<LayerSpec> &out, const std::string &name,
                   const tensor::Matrix &w, u32 rank, u64 nnz_budget,
                   bool relu_after)
{
    const u32 max_rank = std::min(w.rows(), w.cols());
    const u32 k = std::max(1u, std::min(rank, max_rank));
    auto svd = tensor::truncatedSvd(w, k);
    // Fold singular values into U.
    tensor::Matrix uf = svd.u;
    for (u32 r = 0; r < uf.rows(); ++r)
        for (u32 c = 0; c < uf.cols(); ++c)
            uf.at(r, c) *= svd.s[c];
    tensor::Matrix vt = svd.v.transpose(); // k x n
    pruneFactorsToTotal(uf, vt, nnz_budget);

    // First stage: x -> V^T x (k outputs), no activation in between.
    out.push_back({name, SparseFcLayer{vt}, false, false});
    // Second stage: U (S folded) -> m outputs.
    out.push_back({name, SparseFcLayer{uf}, relu_after, false});
}

/** Compressed FC by pruning only (no separation). */
void
appendPrunedFc(std::vector<LayerSpec> &out, const std::string &name,
               tensor::Matrix w, u64 nnz_budget, bool relu_after)
{
    const f64 frac = static_cast<f64>(nnz_budget)
                   / static_cast<f64>(w.size());
    tensor::pruneToFraction(w, std::min(1.0, frac));
    out.push_back({name, SparseFcLayer{std::move(w)}, relu_after, false});
}

/** Factored conv from CP rank-1 of a single-channel bank, with the
 * column vector optionally pruned (OkG's tall 98-tap column). */
FactoredConvLayer
factorSingleChannelConv(const tensor::FilterBank &bank, f64 col_keep)
{
    tensor::Tensor3 t = tensorFromBank(bank);
    auto cp = tensor::cpRank1(t);
    FactoredConvLayer f;
    if (bank.kh > 1)
        f.col = cp.b;
    if (bank.kw > 1)
        f.row = cp.c;
    f.scale.resize(bank.outChannels);
    for (u32 oc = 0; oc < bank.outChannels; ++oc)
        f.scale[oc] = cp.lambda * cp.a[oc];
    if (col_keep < 1.0 && !f.col.empty()) {
        tensor::Matrix colm(1, static_cast<u32>(f.col.size()));
        for (u32 i = 0; i < f.col.size(); ++i)
            colm.at(0, i) = f.col[i];
        tensor::pruneToFraction(colm, col_keep);
        for (u32 i = 0; i < f.col.size(); ++i)
            f.col[i] = colm.at(0, i);
    }
    return f;
}

// ---------------------------------------------------------------------
// Teachers (Table 2 "uncompressed" columns).
// ---------------------------------------------------------------------

NetworkSpec
teacherMnist(u64 seed)
{
    Rng rng = Rng(seed).fork(1);
    NetworkSpec net;
    net.name = "MNIST";
    net.input = {1, 28, 28};
    net.numClasses = 10;

    // Conv 20x1x5x5.
    net.layers.push_back({"conv1",
                          DenseConvLayer{bankFromTensor(
                              compressibleTensor3(20, 5, 5, rng))},
                          true, true});

    // Conv 100x20x5x5: trained conv banks concentrate their energy in
    // a few dominant taps per filter (that is what makes the paper's
    // 39.9x pruning possible at 99% accuracy): ~14 strong taps per
    // output channel over a faint dense background.
    tensor::FilterBank conv2(100, 20, 5, 5);
    for (u32 oc = 0; oc < 100; ++oc) {
        for (u32 t = 0; t < 14; ++t) {
            const u32 ic = static_cast<u32>(rng.below(20));
            const u32 y = static_cast<u32>(rng.below(5));
            const u32 x = static_cast<u32>(rng.below(5));
            conv2.at(oc, ic, y, x) += rng.gaussian(0.0, 0.30);
        }
        for (u32 ic = 0; ic < 20; ++ic)
            for (u32 y = 0; y < 5; ++y)
                for (u32 x = 0; x < 5; ++x)
                    conv2.at(oc, ic, y, x) +=
                        rng.gaussian(0.0, 0.004);
    }
    net.layers.push_back({"conv2", DenseConvLayer{conv2}, true, true});

    net.layers.push_back(
        {"fc", DenseFcLayer{compressibleMatrix(200, 1600, rng)}, true,
         false});
    net.layers.push_back(
        {"fc", DenseFcLayer{compressibleMatrix(500, 200, rng)}, true,
         false});
    net.layers.push_back(
        {"fc", DenseFcLayer{compressibleMatrix(10, 500, rng)}, false,
         false});
    return net;
}

NetworkSpec
teacherHar(u64 seed)
{
    Rng rng = Rng(seed).fork(2);
    NetworkSpec net;
    net.name = "HAR";
    net.input = {3, 1, 36};
    net.numClasses = 6;

    // Conv 98x3x1x12 — kh = 1, so the 3-way structure is (oc, ic, kw).
    tensor::Tensor3 t = compressibleTensor3(98, 3, 12, rng);
    tensor::FilterBank bank(98, 3, 1, 12);
    for (u32 oc = 0; oc < 98; ++oc)
        for (u32 ic = 0; ic < 3; ++ic)
            for (u32 x = 0; x < 12; ++x)
                bank.at(oc, ic, 0, x) = t.at(oc, ic, x);
    net.layers.push_back({"conv1", DenseConvLayer{bank}, true, false});

    net.layers.push_back(
        {"fc", DenseFcLayer{compressibleMatrix(192, 2450, rng)}, true,
         false});
    net.layers.push_back(
        {"fc", DenseFcLayer{compressibleMatrix(256, 192, rng)}, true,
         false});
    net.layers.push_back(
        {"fc", DenseFcLayer{compressibleMatrix(6, 256, rng)}, false,
         false});
    return net;
}

NetworkSpec
teacherOkg(u64 seed)
{
    Rng rng = Rng(seed).fork(3);
    NetworkSpec net;
    net.name = "OkG";
    net.input = {1, 98, 16};
    net.numClasses = 12;

    net.layers.push_back({"conv1",
                          DenseConvLayer{bankFromTensor(
                              compressibleTensor3(186, 98, 8, rng))},
                          true, false});

    net.layers.push_back(
        {"fc", DenseFcLayer{compressibleMatrix(96, 1674, rng)}, true,
         false});
    net.layers.push_back(
        {"fc", DenseFcLayer{compressibleMatrix(128, 96, rng)}, true,
         false});
    net.layers.push_back(
        {"fc", DenseFcLayer{compressibleMatrix(128, 128, rng)}, true,
         false});
    net.layers.push_back(
        {"fc", DenseFcLayer{compressibleMatrix(12, 128, rng)}, false,
         false});
    return net;
}

// ---------------------------------------------------------------------
// Knob-driven compression (shared by Table 2 configs and GENESIS).
// ---------------------------------------------------------------------

/** Table 2 per-network budgets at knob = 1.0. */
struct Budgets
{
    u64 conv2Nnz = 0;       // MNIST only
    u64 fc1Nnz, fc2Nnz, fc3Nnz;
    u32 fc1Rank, fc2Rank;
    f64 convColKeep = 1.0;  // OkG column pruning
};

Budgets
tableBudgets(NetId id)
{
    switch (id) {
      case NetId::Mnist:
        return {1253, 5456, 1892, 0, 6, 4, 1.0};
      case NetId::Har:
        return {0, 10804, 3200, 0, 20, 12, 1.0};
      case NetId::Okg:
        return {0, 16362, 2070, 0, 12, 10, 0.60};
    }
    panic("bad NetId");
}

/** OkG's 128x128 FC, which Table 2 separates but does not prune. */
bool
isOkgBottleneck(NetId id, const DenseFcLayer &fc)
{
    return id == NetId::Okg && fc.weights.rows() == 128
        && fc.weights.cols() == 128;
}

/**
 * Compress each teacher layer into its own slot, concurrently (the
 * per-layer decompositions are independent), then append the slots in
 * layer order, so the network does not depend on scheduling.
 * compressLayer(li, out) appends the compressed form of layer li.
 */
template <typename CompressLayer>
NetworkSpec
compressLayers(const NetworkSpec &teacher, CompressLayer compressLayer)
{
    std::vector<std::vector<LayerSpec>> slots(teacher.layers.size());
    util::parallelFor(slots.size(), [&](u64 li) {
        compressLayer(static_cast<u32>(li), slots[li]);
    });

    NetworkSpec net;
    net.name = teacher.name;
    net.input = teacher.input;
    net.numClasses = teacher.numClasses;
    for (auto &slot : slots)
        for (auto &layer : slot)
            net.layers.push_back(std::move(layer));
    return net;
}

/** One paper-teacher layer under its Table 2 rules (see compress()).
 * fc_index picks the fc1/fc2 budget of a hidden FC layer. */
void
compressPaperLayer(NetId id, const Budgets &budgets,
                   const CompressionKnobs &knobs, const LayerSpec &layer,
                   bool is_last, u32 fc_index, std::vector<LayerSpec> &out)
{
    if (const auto *conv = std::get_if<DenseConvLayer>(&layer.op)) {
        const bool is_mnist_conv2 =
            id == NetId::Mnist && layer.name == "conv2";
        if (is_mnist_conv2) {
            // Table 2: pruning only for the multi-channel conv.
            // Balanced (per-output-channel top-k) pruning keeps the
            // per-channel work uniform, which real deployments prefer
            // for predictable task energy.
            tensor::FilterBank bank = conv->filters;
            const u32 per_oc = std::max<u32>(
                1, static_cast<u32>(std::lround(
                       knobs.convKeep
                       * static_cast<f64>(budgets.conv2Nnz)
                       / bank.outChannels)));
            const u64 block = u64{bank.inChannels} * bank.kh * bank.kw;
            for (u32 oc = 0; oc < bank.outChannels; ++oc) {
                tensor::Matrix slice(1, static_cast<u32>(block));
                for (u64 e = 0; e < block; ++e)
                    slice.at(0, static_cast<u32>(e)) =
                        bank.data[oc * block + e];
                tensor::pruneToFraction(
                    slice, std::min(1.0, static_cast<f64>(per_oc)
                                             / static_cast<f64>(block)));
                for (u64 e = 0; e < block; ++e)
                    bank.data[oc * block + e] =
                        slice.at(0, static_cast<u32>(e));
            }
            out.push_back({layer.name, SparseConvLayer{bank},
                           layer.reluAfter, layer.poolAfter});
        } else if (knobs.separateConv) {
            FactoredConvLayer f;
            if (conv->filters.inChannels == 1) {
                f = factorSingleChannelConv(
                    conv->filters,
                    std::min(1.0, budgets.convColKeep * knobs.convKeep));
            } else {
                // (oc, ic, kw) structure (HAR): mix + row + scale.
                tensor::Tensor3 t(conv->filters.outChannels,
                                  conv->filters.inChannels,
                                  conv->filters.kw);
                for (u32 oc = 0; oc < t.dim0(); ++oc)
                    for (u32 ic = 0; ic < t.dim1(); ++ic)
                        for (u32 x = 0; x < t.dim2(); ++x)
                            t.at(oc, ic, x) =
                                conv->filters.at(oc, ic, 0, x);
                auto cp = tensor::cpRank1(t);
                f.mix = cp.b;
                f.row = cp.c;
                f.scale.resize(t.dim0());
                for (u32 oc = 0; oc < t.dim0(); ++oc)
                    f.scale[oc] = cp.lambda * cp.a[oc];
            }
            out.push_back({layer.name, std::move(f), layer.reluAfter,
                           layer.poolAfter});
        } else {
            // Prune-only conv.
            tensor::FilterBank bank = conv->filters;
            tensor::Tensor3 flat(bank.outChannels, bank.inChannels,
                                 bank.kh * bank.kw);
            flat.data() = bank.data;
            tensor::pruneToFraction(flat,
                                    std::min(1.0, 0.15 * knobs.convKeep));
            bank.data = flat.data();
            out.push_back({layer.name, SparseConvLayer{bank},
                           layer.reluAfter, layer.poolAfter});
        }
    } else if (const auto *fc = std::get_if<DenseFcLayer>(&layer.op)) {
        if (is_last) {
            // Final classifier layers stay dense (Table 2 "—").
            out.push_back(layer);
        } else if (isOkgBottleneck(id, *fc)) {
            // Table 2: plain SVD into a 32-rank dense pair.
            const u32 k = std::max(
                1u,
                static_cast<u32>(std::lround(32 * knobs.fcRankScale)));
            auto svd = tensor::truncatedSvd(fc->weights,
                                            std::min(128u, k));
            tensor::Matrix uf = svd.u;
            for (u32 r = 0; r < uf.rows(); ++r)
                for (u32 c = 0; c < uf.cols(); ++c)
                    uf.at(r, c) *= svd.s[c];
            out.push_back({layer.name, DenseFcLayer{svd.v.transpose()},
                           false, false});
            out.push_back({layer.name, DenseFcLayer{uf}, layer.reluAfter,
                           false});
        } else {
            const u64 budget =
                fc_index == 0 ? budgets.fc1Nnz : budgets.fc2Nnz;
            const u32 rank =
                fc_index == 0 ? budgets.fc1Rank : budgets.fc2Rank;
            const u64 nnz = std::max<u64>(
                16, static_cast<u64>(std::llround(
                        knobs.fcKeep * static_cast<f64>(budget))));
            if (knobs.svdFc) {
                const u32 k = std::max(
                    1u, static_cast<u32>(
                            std::lround(rank * knobs.fcRankScale)));
                appendCompressedFc(out, layer.name, fc->weights, k, nnz,
                                   layer.reluAfter);
            } else {
                appendPrunedFc(out, layer.name, fc->weights, nnz,
                               layer.reluAfter);
            }
        }
    } else {
        out.push_back(layer);
    }
}

/** One layer under the generic knob rules (see compressGeneric()). */
void
compressGenericLayer(const CompressionKnobs &knobs, const LayerSpec &layer,
                     bool is_last, std::vector<LayerSpec> &out)
{
    if (const auto *conv = std::get_if<DenseConvLayer>(&layer.op)) {
        if (knobs.separateConv && conv->filters.inChannels == 1) {
            out.push_back(
                {layer.name,
                 factorSingleChannelConv(conv->filters,
                                         std::min(1.0, knobs.convKeep)),
                 layer.reluAfter, layer.poolAfter});
        } else {
            tensor::FilterBank bank = conv->filters;
            tensor::Tensor3 flat(bank.outChannels, bank.inChannels,
                                 bank.kh * bank.kw);
            flat.data() = bank.data;
            tensor::pruneToFraction(flat,
                                    std::min(1.0, 0.25 * knobs.convKeep));
            bank.data = flat.data();
            out.push_back({layer.name, SparseConvLayer{bank},
                           layer.reluAfter, layer.poolAfter});
        }
    } else if (const auto *fc = std::get_if<DenseFcLayer>(&layer.op)) {
        if (is_last) {
            // Final classifier stays dense (the Table 2 "—" rule).
            out.push_back(layer);
            return;
        }
        const u32 max_rank =
            std::min(fc->weights.rows(), fc->weights.cols());
        const u64 nnz = std::max<u64>(
            16, static_cast<u64>(std::llround(
                    0.10 * static_cast<f64>(fc->weights.size())
                    * knobs.fcKeep)));
        if (knobs.svdFc) {
            const u32 rank = std::max(
                1u, std::min(max_rank,
                             static_cast<u32>(std::lround(
                                 static_cast<f64>(max_rank) / 8.0
                                 * knobs.fcRankScale))));
            appendCompressedFc(out, layer.name, fc->weights, rank, nnz,
                               layer.reluAfter);
        } else {
            appendPrunedFc(out, layer.name, fc->weights, nnz,
                           layer.reluAfter);
        }
    } else {
        // Factored / sparse forms are already compressed.
        out.push_back(layer);
    }
}

} // namespace

const char *
netName(NetId id)
{
    switch (id) {
      case NetId::Mnist: return "MNIST";
      case NetId::Har: return "HAR";
      case NetId::Okg: return "OkG";
    }
    return "?";
}

f64
paperAccuracy(NetId id)
{
    switch (id) {
      case NetId::Mnist: return 0.99;
      case NetId::Har: return 0.88;
      case NetId::Okg: return 0.84;
    }
    return 0.0;
}

NetworkSpec
buildTeacher(NetId id, u64 seed)
{
    switch (id) {
      case NetId::Mnist: return teacherMnist(seed);
      case NetId::Har: return teacherHar(seed);
      case NetId::Okg: return teacherOkg(seed);
    }
    panic("bad NetId");
}

NetworkSpec
compress(NetId id, const NetworkSpec &teacher,
         const CompressionKnobs &knobs)
{
    const Budgets budgets = tableBudgets(id);
    const u32 layers = static_cast<u32>(teacher.layers.size());
    // Hidden FC layers take the fc1/fc2 budgets in layer order; the
    // classifier and OkG's bottleneck take none.
    std::vector<u32> fc_index(layers, 0);
    u32 next_fc = 0;
    for (u32 li = 0; li + 1 < layers; ++li) {
        const auto *fc = std::get_if<DenseFcLayer>(&teacher.layers[li].op);
        if (fc != nullptr && !isOkgBottleneck(id, *fc))
            fc_index[li] = next_fc++;
    }
    return compressLayers(teacher, [&](u32 li, std::vector<LayerSpec> &out) {
        compressPaperLayer(id, budgets, knobs, teacher.layers[li],
                           li + 1 == layers, fc_index[li], out);
    });
}

NetworkSpec
buildWithKnobs(NetId id, const CompressionKnobs &knobs, u64 seed)
{
    return compress(id, buildTeacher(id, seed), knobs);
}

NetworkSpec
compressGeneric(const NetworkSpec &teacher, const CompressionKnobs &knobs)
{
    const u32 layers = static_cast<u32>(teacher.layers.size());
    return compressLayers(teacher, [&](u32 li, std::vector<LayerSpec> &out) {
        compressGenericLayer(knobs, teacher.layers[li], li + 1 == layers,
                             out);
    });
}

} // namespace sonic::dnn
