#include "dnn/device_net.hh"

#include <map>

#include "fixed/fixed.hh"
#include "util/logging.hh"

namespace sonic::dnn
{

namespace
{

using fixed::Q78;

/** The largest index or pointer the 16-bit device format holds. */
constexpr u64 kMaxDeviceIndex = 0x7fff;

/**
 * Lowers one layer at a time into the image's regions. Every array is
 * appended in flash order, which forEachArray (below) mirrors. An
 * empty index or value list holds one zero, so it still occupies
 * FRAM.
 */
class Lowering
{
  public:
    Lowering(const NetworkSpec &spec,
             std::deque<arch::FlashRegion<i16>> &regions)
        : spec_(spec), regions_(regions)
    {
    }

    void
    beginLayer(u32 li)
    {
        li_ = li;
        base_ = spec_.name + "." + spec_.layers[li].name + "."
              + std::to_string(li);
    }

    DevFactoredConv
    factored(const FactoredConvLayer &f)
    {
        DevFactoredConv out;
        out.mix = sparseVec(f.mix, ".mix");
        out.col = sparseVec(f.col, ".col");
        out.row = sparseVec(f.row, ".row");
        out.scale = sparseVec(f.scale, ".scale");
        return out;
    }

    DevSparseConv
    sparseConv(const tensor::FilterBank &bank, const ActShape &in)
    {
        DevSparseConv out;
        out.kh = bank.kh;
        out.kw = bank.kw;
        std::vector<i16> oc_ptr(bank.outChannels + 1, 0);
        std::vector<i16> ic, ky, kx, w, off;
        const u64 in_plane = u64{in.h} * in.w;
        for (u32 oc = 0; oc < bank.outChannels; ++oc) {
            for (u32 c = 0; c < bank.inChannels; ++c)
                for (u32 y = 0; y < bank.kh; ++y)
                    for (u32 x = 0; x < bank.kw; ++x) {
                        const f64 v = bank.at(oc, c, y, x);
                        if (v == 0.0)
                            continue;
                        ic.push_back(narrow(c, "conv tap channel"));
                        ky.push_back(narrow(y, "conv tap row"));
                        kx.push_back(narrow(x, "conv tap column"));
                        w.push_back(Q78::fromFloat(v).raw());
                        off.push_back(narrow(
                            c * in_plane + u64{y} * in.w + x,
                            "conv tap offset"));
                    }
            oc_ptr[oc + 1] = narrow(w.size(), "conv channel pointer");
        }
        out.nnz = static_cast<u32>(w.size());
        region(".ocPtr", std::move(oc_ptr));
        region(".ic", padded(std::move(ic)));
        region(".ky", padded(std::move(ky)));
        region(".kx", padded(std::move(kx)));
        region(".w", padded(std::move(w)));
        region(".off", padded(std::move(off)));
        return out;
    }

    DevDenseFc
    denseFc(const tensor::Matrix &m)
    {
        DevDenseFc out;
        out.m = m.rows();
        out.n = m.cols();
        std::vector<i16> w(u64{out.m} * out.n);
        for (u32 r = 0; r < out.m; ++r)
            for (u32 c = 0; c < out.n; ++c)
                w[u64{r} * out.n + c] = Q78::fromFloat(m.at(r, c)).raw();
        region(".w", std::move(w));
        return out;
    }

    DevSparseFc
    sparseFc(const tensor::Matrix &m)
    {
        DevSparseFc out;
        out.m = m.rows();
        out.n = m.cols();
        std::vector<i16> col_ptr(m.cols() + 1, 0);
        std::vector<i16> row_idx, val;
        for (u32 c = 0; c < m.cols(); ++c) {
            for (u32 r = 0; r < m.rows(); ++r) {
                if (m.at(r, c) != 0.0) {
                    row_idx.push_back(narrow(r, "sparse-FC row index"));
                    val.push_back(Q78::fromFloat(m.at(r, c)).raw());
                }
            }
            col_ptr[c + 1] = narrow(val.size(), "sparse-FC column pointer");
        }
        out.nnz = static_cast<u32>(val.size());
        region(".colPtr", std::move(col_ptr));
        region(".rowIdx", padded(std::move(row_idx)));
        region(".val", padded(std::move(val)));
        return out;
    }

  private:
    DevSparseVec
    sparseVec(const std::vector<f64> &v, const std::string &stage)
    {
        std::vector<i16> idx;
        std::vector<i16> val;
        for (u32 i = 0; i < v.size(); ++i) {
            if (v[i] != 0.0) {
                idx.push_back(narrow(i, "sparse-vector index"));
                val.push_back(Q78::fromFloat(v[i]).raw());
            }
        }
        DevSparseVec out;
        out.nnz = static_cast<u32>(idx.size());
        region(stage + ".idx", padded(std::move(idx)));
        region(stage + ".val", padded(std::move(val)));
        return out;
    }

    /** Narrow an index or pointer to the device's i16, or exit. */
    i16
    narrow(u64 v, const char *what) const
    {
        if (v > kMaxDeviceIndex) {
            fatal("model '", spec_.name, "' layer ", li_, " '",
                  spec_.layers[li_].name, "': ", what, " ", v,
                  " exceeds the 16-bit device format's limit of ",
                  kMaxDeviceIndex);
        }
        return static_cast<i16>(v);
    }

    static std::vector<i16>
    padded(std::vector<i16> list)
    {
        if (list.empty())
            list.push_back(0);
        return list;
    }

    void
    region(const std::string &suffix, std::vector<i16> data)
    {
        regions_.emplace_back(base_ + suffix, std::move(data));
    }

    const NetworkSpec &spec_;
    std::deque<arch::FlashRegion<i16>> &regions_;
    u32 li_ = 0;
    std::string base_;
};

/** @name An op's array views, in the order Lowering appends them */
/// @{
template <typename F>
void
forEachArray(DevSparseVec &v, F &&f)
{
    f(v.idx);
    f(v.val);
}

template <typename F>
void
forEachArray(DevFactoredConv &c, F &&f)
{
    forEachArray(c.mix, f);
    forEachArray(c.col, f);
    forEachArray(c.row, f);
    forEachArray(c.scale, f);
}

template <typename F>
void
forEachArray(DevSparseConv &c, F &&f)
{
    f(c.ocPtr);
    f(c.tapIc);
    f(c.tapKy);
    f(c.tapKx);
    f(c.tapW);
    f(c.tapOff);
}

template <typename F>
void
forEachArray(DevDenseFc &d, F &&f)
{
    f(d.w);
}

template <typename F>
void
forEachArray(DevSparseFc &s, F &&f)
{
    f(s.colPtr);
    f(s.rowIdx);
    f(s.val);
}
/// @}

} // namespace

// --- FlashImage -----------------------------------------------------

FlashImage::FlashImage(const NetworkSpec &spec) : spec_(spec)
{
    Lowering lower(spec_, regions_);
    ActShape shape = spec_.input;
    for (u32 li = 0; li < spec_.layers.size(); ++li) {
        const auto &layer = spec_.layers[li];
        lower.beginLayer(li);
        DevLayer dl;
        dl.name = layer.name;
        dl.reluAfter = layer.reluAfter;
        dl.poolAfter = layer.poolAfter;
        dl.in = shape;
        dl.out = opOutputShape(layer.op, shape);
        if (const auto *f = std::get_if<FactoredConvLayer>(&layer.op)) {
            dl.op = lower.factored(*f);
        } else if (const auto *s = std::get_if<SparseConvLayer>(&layer.op)) {
            dl.op = lower.sparseConv(s->filters, dl.in);
        } else if (const auto *d = std::get_if<DenseConvLayer>(&layer.op)) {
            // Uncompressed convs are lowered as sparse convs with all
            // taps present (they rarely fit on-device anyway).
            dl.op = lower.sparseConv(d->filters, dl.in);
        } else if (const auto *fc = std::get_if<DenseFcLayer>(&layer.op)) {
            dl.op = lower.denseFc(fc->weights);
        } else if (const auto *sfc = std::get_if<SparseFcLayer>(&layer.op)) {
            dl.op = lower.sparseFc(sfc->weights);
        }

        shape = dl.out;
        if (layer.poolAfter) {
            shape.h /= 2;
            shape.w /= 2;
        }
        layers_.push_back(std::move(dl));
    }
}

// --- DeviceNetwork --------------------------------------------------

DeviceNetwork::DeviceNetwork(arch::Device &dev, const FlashImage &image)
    : dev_(dev), image_(image)
{
    flash();
}

DeviceNetwork::DeviceNetwork(arch::Device &dev, const NetworkSpec &spec)
    : ownSpec_(std::make_unique<const NetworkSpec>(spec)),
      ownImage_(std::make_unique<const FlashImage>(*ownSpec_)), dev_(dev),
      image_(*ownImage_)
{
    flash();
}

void
DeviceNetwork::flash()
{
    const u64 map_elems = spec().maxActivationElems();
    const u64 slice_elems = spec().maxScratchElems();
    acts_[0] = std::make_unique<arch::NvArray<i16>>(dev_, map_elems,
                                                    "act.ping");
    acts_[1] = std::make_unique<arch::NvArray<i16>>(dev_, map_elems,
                                                    "act.pong");
    for (u32 s = 0; s < 3; ++s)
        scratch_[s] = std::make_unique<arch::NvArray<i16>>(
            dev_, slice_elems, "scratch" + std::to_string(s));
    for (const auto &region : image_.regions())
        weights_.emplace_back(dev_, region);

    layers_ = image_.layers();
    std::map<std::string, u16> stat_ids;
    u64 next = 0;
    for (DevLayer &dl : layers_) {
        const auto [it, fresh] = stat_ids.try_emplace(dl.name, 0);
        if (fresh)
            it->second = dev_.registerLayer(dl.name);
        dl.statLayer = it->second;
        std::visit(
            [&](auto &op) {
                forEachArray(op, [&](const WeightArray *&view) {
                    view = &weights_[next++];
                });
            },
            dl.op);
    }
    SONIC_ASSERT(next == weights_.size(),
                 "flash image regions out of step with its layers");
}

void
DeviceNetwork::loadInput(const std::vector<i16> &input_q78)
{
    SONIC_ASSERT(input_q78.size() == spec().input.elems(),
                 "input size mismatch");
    const u32 buf = inputBufferOf(0);
    for (u32 i = 0; i < input_q78.size(); ++i)
        acts_[buf]->poke(i, input_q78[i]);
}

u32
DeviceNetwork::inputBufferOf(u32 layer_index) const
{
    u32 cur = 0;
    for (u32 li = 0; li < layer_index; ++li) {
        if (!layers_[li].poolAfter)
            cur = 1 - cur;
        // Pooled layers write back into `cur` (conv -> 1-cur, pool ->
        // cur), leaving the schedule unchanged.
    }
    return cur;
}

u32
DeviceNetwork::outputBufferOf(u32 layer_index) const
{
    const u32 in = inputBufferOf(layer_index);
    return layers_[layer_index].poolAfter ? in : 1 - in;
}

std::vector<i16>
DeviceNetwork::peekLogits() const
{
    const u32 last = static_cast<u32>(layers_.size()) - 1;
    const u32 buf = outputBufferOf(last);
    std::vector<i16> logits(numClasses());
    for (u32 i = 0; i < logits.size(); ++i)
        logits[i] = acts_[buf]->peek(i);
    return logits;
}

std::vector<i16>
DeviceNetwork::quantizeInput(const tensor::FeatureMap &in)
{
    std::vector<i16> out;
    out.reserve(in.size());
    for (f64 v : in.data)
        out.push_back(Q78::fromFloat(v).raw());
    return out;
}

} // namespace sonic::dnn
