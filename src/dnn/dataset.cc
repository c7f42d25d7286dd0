#include "dnn/dataset.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace sonic::dnn
{

namespace
{

/** One box-blur pass along rows and columns of each channel. */
void
blurInPlace(tensor::FeatureMap &m)
{
    tensor::FeatureMap tmp = m;
    for (u32 c = 0; c < m.channels; ++c) {
        for (u32 y = 0; y < m.height; ++y) {
            for (u32 x = 0; x < m.width; ++x) {
                f64 acc = 0.0;
                u32 cnt = 0;
                for (int dy = -1; dy <= 1; ++dy) {
                    for (int dx = -1; dx <= 1; ++dx) {
                        const int yy = static_cast<int>(y) + dy;
                        const int xx = static_cast<int>(x) + dx;
                        if (yy >= 0 && xx >= 0
                            && yy < static_cast<int>(m.height)
                            && xx < static_cast<int>(m.width)) {
                            acc += tmp.at(c, static_cast<u32>(yy),
                                          static_cast<u32>(xx));
                            ++cnt;
                        }
                    }
                }
                m.at(c, y, x) = acc / static_cast<f64>(cnt);
            }
        }
    }
}

/** Smooth class prototype with per-class deterministic structure. */
tensor::FeatureMap
makePrototype(const ActShape &shape, u32 cls, u64 seed)
{
    Rng rng = Rng(seed).fork(1000 + cls);
    tensor::FeatureMap proto(shape.c, shape.h, shape.w);
    for (auto &v : proto.data)
        v = rng.gaussian();
    blurInPlace(proto);
    blurInPlace(proto);
    // Normalize to unit RMS so all classes have comparable energy.
    f64 rms = 0.0;
    for (f64 v : proto.data)
        rms += v * v;
    rms = std::sqrt(rms / static_cast<f64>(proto.size()));
    if (rms > 1e-12)
        for (auto &v : proto.data)
            v /= rms;
    return proto;
}

} // namespace

Dataset
makeDataset(const NetworkSpec &teacher, u32 n, u64 seed)
{
    const u32 classes = teacher.numClasses;
    std::vector<tensor::FeatureMap> protos;
    protos.reserve(classes);
    for (u32 c = 0; c < classes; ++c)
        protos.push_back(makePrototype(teacher.input, c, seed));

    Rng rng = Rng(seed).fork(7);
    Dataset data(n);
    for (auto &s : data) {
        const u32 proto_cls = static_cast<u32>(rng.below(classes));
        tensor::FeatureMap &x = s.input;
        x = tensor::FeatureMap(teacher.input.c, teacher.input.h,
                               teacher.input.w);
        for (u64 e = 0; e < x.size(); ++e) {
            const f64 v = 0.45 + 0.42 * protos[proto_cls].data[e]
                        + 0.10 * rng.gaussian();
            x.data[e] = std::clamp(v, -1.0, 1.0);
        }
    }
    // The inputs above take the rng's draws in sample order; labelling
    // (one teacher forward pass per sample) is independent per sample
    // and dominates, so it runs concurrently.
    util::parallelFor(n, [&](u64 i) {
        data[i].label = teacher.classify(data[i].input);
    });
    return data;
}

f64
agreement(const NetworkSpec &net, const Dataset &data)
{
    SONIC_ASSERT(!data.empty());
    u64 correct = 0;
    for (const auto &s : data)
        if (net.classify(s.input) == s.label)
            ++correct;
    return static_cast<f64>(correct) / static_cast<f64>(data.size());
}

Rates
detectionRates(const NetworkSpec &net, const Dataset &data,
               u32 interesting_class)
{
    u64 pos = 0, neg = 0, tp = 0, tn = 0;
    for (const auto &s : data) {
        const u32 pred = net.classify(s.input);
        const bool actual = s.label == interesting_class;
        const bool detected = pred == interesting_class;
        if (actual) {
            ++pos;
            if (detected)
                ++tp;
        } else {
            ++neg;
            if (!detected)
                ++tn;
        }
    }
    Rates r;
    r.truePositive = pos ? static_cast<f64>(tp) / static_cast<f64>(pos)
                         : 1.0;
    r.trueNegative = neg ? static_cast<f64>(tn) / static_cast<f64>(neg)
                         : 1.0;
    r.baseRate = static_cast<f64>(pos)
               / static_cast<f64>(data.size());
    return r;
}

u32
dominantClass(const Dataset &data, u32 num_classes)
{
    std::vector<u64> counts(num_classes, 0);
    for (const auto &s : data)
        ++counts[s.label];
    return static_cast<u32>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
}

} // namespace sonic::dnn
