#include "tensor/nnref.hh"

#include <algorithm>

#include "util/logging.hh"

namespace sonic::tensor
{

namespace
{

/**
 * out[x] += w * in[x] for x < n. Elements go two at a time, which the
 * compiler turns into two-lane vector arithmetic at -O2; every lane
 * computes exactly the scalar expression.
 */
void
addScaledRow(f64 *out, const f64 *in, u32 n, f64 w)
{
    u32 x = 0;
    for (; x + 2 <= n; x += 2) {
        const f64 i0 = in[x], i1 = in[x + 1];
        const f64 o0 = out[x], o1 = out[x + 1];
        out[x] = o0 + w * i0;
        out[x + 1] = o1 + w * i1;
    }
    for (; x < n; ++x)
        out[x] += w * in[x];
}

} // namespace

u64
FilterBank::nonZeroCount() const
{
    u64 count = 0;
    for (f64 v : data)
        if (v != 0.0)
            ++count;
    return count;
}

u64
FilterBank::macs(u32 in_h, u32 in_w) const
{
    SONIC_ASSERT(in_h >= kh && in_w >= kw);
    const u64 out_h = in_h - kh + 1;
    const u64 out_w = in_w - kw + 1;
    return out_h * out_w * outChannels * inChannels * kh * kw;
}

FeatureMap
conv2dValid(const FeatureMap &in, const FilterBank &filters)
{
    SONIC_ASSERT(in.channels == filters.inChannels,
                 "conv2dValid channel mismatch");
    SONIC_ASSERT(in.height >= filters.kh && in.width >= filters.kw,
                 "conv2dValid input smaller than kernel");
    const u32 oh = in.height - filters.kh + 1;
    const u32 ow = in.width - filters.kw + 1;
    FeatureMap out(filters.outChannels, oh, ow);
    // Iterate filter taps outermost and skip pruned (zero) taps so
    // sparse banks evaluate in O(nnz * positions).
    for (u32 oc = 0; oc < filters.outChannels; ++oc) {
        for (u32 ic = 0; ic < filters.inChannels; ++ic) {
            for (u32 fy = 0; fy < filters.kh; ++fy) {
                for (u32 fx = 0; fx < filters.kw; ++fx) {
                    const f64 w = filters.at(oc, ic, fy, fx);
                    if (w == 0.0)
                        continue;
                    for (u32 y = 0; y < oh; ++y) {
                        const u64 row = u64{ic} * in.height + y + fy;
                        addScaledRow(&out.at(oc, y, 0),
                                     &in.data[row * in.width + fx], ow,
                                     w);
                    }
                }
            }
        }
    }
    return out;
}

FeatureMap
convRows(const FeatureMap &in, const std::vector<f64> &kernel)
{
    const u32 kw = static_cast<u32>(kernel.size());
    SONIC_ASSERT(in.width >= kw);
    FeatureMap out(in.channels, in.height, in.width - kw + 1);
    for (u32 c = 0; c < in.channels; ++c)
        for (u32 y = 0; y < out.height; ++y)
            for (u32 x = 0; x < out.width; ++x) {
                f64 acc = 0.0;
                for (u32 k = 0; k < kw; ++k)
                    acc += kernel[k] * in.at(c, y, x + k);
                out.at(c, y, x) = acc;
            }
    return out;
}

FeatureMap
convCols(const FeatureMap &in, const std::vector<f64> &kernel)
{
    const u32 kh = static_cast<u32>(kernel.size());
    SONIC_ASSERT(in.height >= kh);
    FeatureMap out(in.channels, in.height - kh + 1, in.width);
    for (u32 c = 0; c < in.channels; ++c)
        for (u32 y = 0; y < out.height; ++y)
            for (u32 x = 0; x < out.width; ++x) {
                f64 acc = 0.0;
                for (u32 k = 0; k < kh; ++k)
                    acc += kernel[k] * in.at(c, y + k, x);
                out.at(c, y, x) = acc;
            }
    return out;
}

FeatureMap
channelMix(const FeatureMap &in, const std::vector<f64> &w)
{
    SONIC_ASSERT(w.size() == in.channels, "channelMix weight mismatch");
    FeatureMap out(1, in.height, in.width);
    for (u32 c = 0; c < in.channels; ++c)
        for (u32 y = 0; y < in.height; ++y)
            for (u32 x = 0; x < in.width; ++x)
                out.at(0, y, x) += w[c] * in.at(c, y, x);
    return out;
}

FeatureMap
channelScale(const FeatureMap &in, const std::vector<f64> &s)
{
    SONIC_ASSERT(in.channels == 1, "channelScale expects one channel");
    FeatureMap out(static_cast<u32>(s.size()), in.height, in.width);
    for (u32 c = 0; c < out.channels; ++c)
        for (u32 y = 0; y < in.height; ++y)
            for (u32 x = 0; x < in.width; ++x)
                out.at(c, y, x) = s[c] * in.at(0, y, x);
    return out;
}

FeatureMap
relu(const FeatureMap &in)
{
    FeatureMap out = in;
    for (f64 &v : out.data)
        v = std::max(0.0, v);
    return out;
}

std::vector<f64>
relu(const std::vector<f64> &in)
{
    std::vector<f64> out = in;
    for (f64 &v : out)
        v = std::max(0.0, v);
    return out;
}

FeatureMap
maxPool2x2(const FeatureMap &in)
{
    FeatureMap out(in.channels, in.height / 2, in.width / 2);
    for (u32 c = 0; c < in.channels; ++c)
        for (u32 y = 0; y < out.height; ++y)
            for (u32 x = 0; x < out.width; ++x) {
                const f64 a = in.at(c, 2 * y, 2 * x);
                const f64 b = in.at(c, 2 * y, 2 * x + 1);
                const f64 d = in.at(c, 2 * y + 1, 2 * x);
                const f64 e = in.at(c, 2 * y + 1, 2 * x + 1);
                out.at(c, y, x) = std::max(std::max(a, b), std::max(d, e));
            }
    return out;
}

std::vector<f64>
flatten(const FeatureMap &in)
{
    return in.data;
}

u32
argmax(const std::vector<f64> &v)
{
    SONIC_ASSERT(!v.empty());
    return static_cast<u32>(
        std::max_element(v.begin(), v.end()) - v.begin());
}

} // namespace sonic::tensor
