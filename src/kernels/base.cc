/**
 * @file
 * The Base implementation: a conventional, efficient inference loop
 * with volatile loop state and register accumulation. It performs no
 * intermittence bookkeeping at all — on continuous power it is the
 * fastest software implementation, and on harvested power it restarts
 * from the beginning at every failure and never terminates (the
 * paper's Fig. 9b).
 *
 * The whole inference runs as a single task; every local below models a
 * register or stack slot that a power failure clears.
 *
 * Host-performance note: the loops below charge the device in bulk —
 * span reads/writes through readRange/writeRange and batched op-class
 * charges through the kernel_util helpers — with cycle/energy/op-count
 * totals and arithmetic evaluation order identical to the per-element
 * formulation, so logits and every Stats figure are unchanged. Base has
 * no crash-recovery semantics (a failure restarts the inference), so
 * the coarser all-or-nothing charge granularity is always safe here.
 */

#include "kernels/runner.hh"

#include <vector>

#include "arch/memory.hh"
#include "kernels/kernel_util.hh"
#include "task/runtime.hh"
#include "util/logging.hh"

namespace sonic::kernels
{

namespace
{

using arch::Device;
using arch::NvArray;
using arch::Op;
using arch::Part;
using dnn::DevDenseFc;
using dnn::DevFactoredConv;
using dnn::DeviceNetwork;
using dnn::DevLayer;
using dnn::DevSparseConv;
using dnn::DevSparseFc;
using dnn::DevSparseVec;

/** Host-side copy of a sparse tap vector (uncharged peeks; the loops
 * below charge the corresponding FRAM loads in bulk where the
 * per-element code performed them). */
struct HostTaps
{
    std::vector<i16> idx;
    std::vector<i16> val;

    explicit HostTaps(const DevSparseVec &taps)
        : idx(taps.nnz), val(taps.nnz)
    {
        for (u32 t = 0; t < taps.nnz; ++t) {
            idx[t] = taps.idx->peek(t);
            val[t] = taps.val->peek(t);
        }
    }
};

/** Shaped 1-D conv: per-output-element register accumulation.
 * vertical applies taps down columns (stride = width), else along rows. */
void
conv1d(Device &dev, const DevSparseVec &taps, NvArray<i16> &src,
       u32 src_base, u32 in_w, NvArray<i16> &dst, u32 dst_base,
       u32 out_h, u32 out_w, bool vertical)
{
    const u32 nnz = taps.nnz;
    const HostTaps host(taps);
    dev.setPart(Part::Kernel);
    for (u32 y = 0; y < out_h; ++y) {
        for (u32 x = 0; x < out_w; ++x) {
            // Per-element charges, paid once for the whole tap loop:
            // 2 tap loads + addr2 + 1 src load + MAC + loop step per tap.
            dev.consume(Op::FramLoad, 2 * nnz);
            addr2(dev, nnz);
            dev.consume(Op::FramLoad, nnz); // gathered src reads
            chargeMacQ(dev, nnz);
            loopStep(dev, nnz);
            i16 acc = 0;
            for (u32 t = 0; t < nnz; ++t) {
                const i16 off = host.idx[t];
                const u32 si = vertical
                    ? (y + static_cast<u32>(off)) * in_w + x
                    : y * in_w + x + static_cast<u32>(off);
                const i16 s = src.peek(src_base + si);
                acc = addQRaw(acc, mulQRaw(host.val[t], s));
            }
            addr2(dev);
            dst.write(dst_base + y * out_w + x, acc);
            loopStep(dev);
        }
    }
    dev.setPart(Part::Control);
}

/** Channel mix: out(p) = sum_c w[c] * in_c(p), register accumulation. */
void
mixStage(Device &dev, const DevSparseVec &mix, NvArray<i16> &src,
         u32 plane, NvArray<i16> &dst)
{
    const u32 nnz = mix.nnz;
    const HostTaps host(mix);
    dev.setPart(Part::Kernel);
    for (u32 p = 0; p < plane; ++p) {
        dev.consume(Op::FramLoad, 2 * nnz);
        addr2(dev, nnz);
        dev.consume(Op::FramLoad, nnz); // channel-strided src reads
        chargeMacQ(dev, nnz);
        loopStep(dev, nnz);
        i16 acc = 0;
        for (u32 t = 0; t < nnz; ++t) {
            const i16 s =
                src.peek(static_cast<u32>(host.idx[t]) * plane + p);
            acc = addQRaw(acc, mulQRaw(host.val[t], s));
        }
        dst.write(p, acc);
        loopStep(dev);
    }
    dev.setPart(Part::Control);
}

/** Broadcast scale: out[oc * plane + p] = s[oc] * in(p), with fused
 * relu. Write-once; the whole plane moves as charged spans. */
void
scaleStage(Device &dev, const DevSparseVec &scale, NvArray<i16> &src,
           u32 src_base, u32 plane, NvArray<i16> &dst, bool relu)
{
    std::vector<i16> in(plane);
    std::vector<i16> out(plane);
    dev.setPart(Part::Kernel);
    for (u32 t = 0; t < scale.nnz; ++t) {
        const i16 oc = scale.idx->read(t);
        const i16 w = scale.val->read(t);
        const u32 dst_base = static_cast<u32>(oc) * plane;
        dev.consume(Op::AluMul);
        src.readRange(src_base, plane, in.data());
        chargeMulQ(dev, plane);
        if (relu)
            chargeBranch(dev, plane);
        addr1(dev, plane);
        for (u32 p = 0; p < plane; ++p) {
            i16 v = mulQRaw(w, in[p]);
            if (relu)
                v = reluQRaw(v);
            out[p] = v;
        }
        dst.writeRange(dst_base, plane, out.data());
        loopStep(dev, plane);
        loopStep(dev);
    }
    dev.setPart(Part::Control);
}

void
factoredConv(Device &dev, DeviceNetwork &net, const DevLayer &layer,
             const DevFactoredConv &op, NvArray<i16> &src,
             NvArray<i16> &dst)
{
    const u32 in_plane = layer.in.h * layer.in.w;
    u32 h = layer.in.h;
    u32 w = layer.in.w;

    // Stage chaining through scratch slices; Base needs no ping-pong.
    NvArray<i16> *cur = &src;
    u32 cur_base = 0;
    if (op.mix.nnz > 0) {
        mixStage(dev, op.mix, *cur, in_plane, net.scratch(2));
        cur = &net.scratch(2);
        cur_base = 0;
    }
    if (op.col.nnz > 0) {
        const u32 kh = layer.in.h - layer.out.h + 1;
        const u32 oh = h - kh + 1;
        conv1d(dev, op.col, *cur, cur_base, w, net.scratch(0), 0, oh, w,
               true);
        cur = &net.scratch(0);
        cur_base = 0;
        h = oh;
    }
    if (op.row.nnz > 0) {
        const u32 kw = layer.in.w - layer.out.w + 1;
        const u32 ow = w - kw + 1;
        conv1d(dev, op.row, *cur, cur_base, w, net.scratch(1), 0, h, ow,
               false);
        cur = &net.scratch(1);
        cur_base = 0;
        w = ow;
    }
    SONIC_ASSERT(h == layer.out.h && w == layer.out.w,
                 "factored conv shape bug");
    scaleStage(dev, op.scale, *cur, cur_base, h * w, dst,
               layer.reluAfter);
}

/** Pruned 2-D conv: per-(oc, position) register accumulation over the
 * channel's tap list; 3-D source addressing per tap. */
void
sparseConv(Device &dev, const DevLayer &layer, const DevSparseConv &op,
           NvArray<i16> &src, NvArray<i16> &dst, bool relu)
{
    const u32 out_plane = layer.out.h * layer.out.w;
    std::vector<i16> toff;
    std::vector<i16> tw;
    for (u32 oc = 0; oc < layer.out.c; ++oc) {
        dev.setPart(Part::Control);
        const i32 first = op.ocPtr->read(oc);
        const i32 last = op.ocPtr->read(oc + 1);
        const u32 k = static_cast<u32>(last - first);
        toff.resize(k);
        tw.resize(k);
        for (u32 t = 0; t < k; ++t) {
            toff[t] = op.tapOff->peek(static_cast<u32>(first) + t);
            tw[t] = op.tapW->peek(static_cast<u32>(first) + t);
        }
        dev.setPart(Part::Kernel);
        for (u32 oy = 0; oy < layer.out.h; ++oy) {
            for (u32 ox = 0; ox < layer.out.w; ++ox) {
                dev.consume(Op::FramLoad, 2 * k); // tap reads
                addr2(dev, k);
                dev.consume(Op::FramLoad, k); // gathered src reads
                chargeMacQ(dev, k);
                loopStep(dev, k);
                i16 acc = 0;
                for (u32 t = 0; t < k; ++t) {
                    const u32 si = static_cast<u32>(toff[t])
                        + oy * layer.in.w + ox;
                    acc = addQRaw(acc, mulQRaw(tw[t], src.peek(si)));
                }
                if (relu)
                    acc = reluQ(dev, acc);
                addr3(dev);
                dst.write(oc * out_plane + oy * layer.out.w + ox, acc);
                loopStep(dev);
            }
        }
    }
    dev.setPart(Part::Control);
}

/** Dense FC, per-output register accumulation (the classic loop). */
void
denseFc(Device &dev, const DevDenseFc &op, NvArray<i16> &src,
        NvArray<i16> &dst, bool relu)
{
    std::vector<i16> wrow(op.n);
    std::vector<i16> xin(op.n);
    dev.setPart(Part::Kernel);
    for (u32 r = 0; r < op.m; ++r) {
        const u64 row_base = u64{r} * op.n;
        dev.consume(Op::AluMul);
        addr1(dev, op.n);
        op.w->readRange(row_base, op.n, wrow.data());
        src.readRange(0, op.n, xin.data());
        chargeMacQ(dev, op.n);
        loopStep(dev, op.n);
        i16 acc = 0;
        for (u32 c = 0; c < op.n; ++c)
            acc = addQRaw(acc, mulQRaw(wrow[c], xin[c]));
        if (relu)
            acc = reluQ(dev, acc);
        dst.write(r, acc);
        loopStep(dev);
    }
    dev.setPart(Part::Control);
}

/** Sparse FC, CSC column-major in-place accumulation (matches the
 * traversal order SONIC's sparse undo-logging protects). */
void
sparseFc(Device &dev, const DevSparseFc &op, NvArray<i16> &src,
         NvArray<i16> &dst, bool relu)
{
    dev.setPart(Part::Kernel);
    dst.fillRange(0, op.m, 0);
    loopStep(dev, op.m);
    std::vector<i16> rows;
    std::vector<i16> vals;
    for (u32 c = 0; c < op.n; ++c) {
        dev.setPart(Part::Control);
        const i32 first = op.colPtr->read(c);
        const i32 last = op.colPtr->read(c + 1);
        dev.setPart(Part::Kernel);
        if (first == last) {
            loopStep(dev);
            continue;
        }
        const i16 x = src.read(c);
        const u32 k = static_cast<u32>(last - first);
        rows.resize(k);
        vals.resize(k);
        op.rowIdx->readRange(static_cast<u32>(first), k, rows.data());
        op.val->readRange(static_cast<u32>(first), k, vals.data());
        addr1(dev, k);
        chargeMacQ(dev, k);
        loopStep(dev, k);
        // The in-place updates stay per-element: rows are a gather.
        for (u32 t = 0; t < k; ++t) {
            const auto r = static_cast<u32>(rows[t]);
            dev.consume(Op::FramLoad);
            dev.consume(Op::FramStore);
            dst.poke(r, addQRaw(dst.peek(r), mulQRaw(vals[t], x)));
        }
        loopStep(dev);
    }
    if (relu) {
        chargeBranch(dev, op.m);
        dst.accumRange(0, op.m,
                       [](i16 v, u64) { return reluQRaw(v); });
        loopStep(dev, op.m);
    }
    dev.setPart(Part::Control);
}

/** 2x2 max pool, src(out-shape pre-pool) -> dst. */
void
maxPool(Device &dev, const dnn::ActShape &pre, NvArray<i16> &src,
        NvArray<i16> &dst)
{
    dev.setPart(Part::Kernel);
    const u32 oh = pre.h / 2;
    const u32 ow = pre.w / 2;
    std::vector<i16> out(ow);
    for (u32 c = 0; c < pre.c; ++c) {
        for (u32 y = 0; y < oh; ++y) {
            // One output row per span: 4 gathered loads + 3 max
            // branches + 2 addr3 per element, one row-wide store.
            addr3(dev, ow);
            dev.consume(Op::FramLoad, 4 * ow);
            chargeBranch(dev, 3 * ow);
            addr3(dev, ow);
            for (u32 x = 0; x < ow; ++x) {
                const u32 base = c * pre.h * pre.w + 2 * y * pre.w
                               + 2 * x;
                i16 m = src.peek(base);
                m = maxQRaw(m, src.peek(base + 1));
                m = maxQRaw(m, src.peek(base + pre.w));
                m = maxQRaw(m, src.peek(base + pre.w + 1));
                out[x] = m;
            }
            dst.writeRange(c * oh * ow + y * ow, ow, out.data());
            loopStep(dev, ow);
        }
    }
    dev.setPart(Part::Control);
}

} // namespace

RunResult
runBase(DeviceNetwork &net)
{
    task::Program program;

    const task::TaskId entry = program.addTask([&](task::Runtime &rt) {
        Device &d = rt.dev();
        for (u32 li = 0; li < net.layers().size(); ++li) {
            DevLayer &layer = net.layers()[li];
            arch::ScopedLayer attribution(d, layer.statLayer);
            NvArray<i16> &src = net.act(net.inputBufferOf(li));
            NvArray<i16> &conv_dst =
                net.act(1 - net.inputBufferOf(li));

            if (auto *f = std::get_if<DevFactoredConv>(&layer.op)) {
                factoredConv(d, net, layer, *f, src, conv_dst);
            } else if (auto *s = std::get_if<DevSparseConv>(&layer.op)) {
                sparseConv(d, layer, *s, src, conv_dst, layer.reluAfter);
            } else if (auto *fc = std::get_if<DevDenseFc>(&layer.op)) {
                denseFc(d, *fc, src, conv_dst, layer.reluAfter);
            } else if (auto *sfc = std::get_if<DevSparseFc>(&layer.op)) {
                sparseFc(d, *sfc, src, conv_dst, layer.reluAfter);
            }
            if (layer.poolAfter)
                maxPool(d, layer.out, conv_dst, src);
        }
        return task::kDone;
    });

    return runProgram(net, program, entry, task::TransitionStyle::Light);
}

} // namespace sonic::kernels
