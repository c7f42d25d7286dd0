/**
 * @file
 * The SONIC runtime (paper Sec. 6): task-based DNN inference that
 * "breaks the rules" of conventional task-based systems safely.
 *
 *  - Loop continuation: loop index variables live in FRAM and are
 *    written directly (an intentional WAR violation). After a power
 *    failure the task re-enters and resumes from the last completed
 *    iteration instead of restarting.
 *  - Loop-ordered buffering: convolutions and dense FC layers iterate
 *    tap-major, writing partial accumulations to a double buffer that
 *    a small committed task swaps between taps (Listing 1's
 *    Task_Next_Filter `atomic` block maps to the scheduler's logged
 *    commit).
 *  - Sparse undo-logging: sparse FC layers update activations in place
 *    under a two-index (read / write) two-phase protocol with one
 *    canonical save slot.
 *
 * Every iteration of every loop below is idempotent, which is what
 * makes the direct index writes safe. The exhaustive fail-at-every-
 * operation tests in tests/ verify this.
 *
 * Lambdas capture `this` (the builder outlives the scheduler run) and
 * plain values; device data structures are captured as pointers into
 * the DeviceNetwork, which owns them.
 */

#include "kernels/runner.hh"

#include "kernels/sonic_builder.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "arch/memory.hh"
#include "kernels/kernel_util.hh"
#include "task/runtime.hh"
#include "util/logging.hh"

namespace sonic::kernels
{

namespace testhooks
{

bool sonicDisableUndoLogging = false;

} // namespace testhooks

using arch::Device;
using arch::NvArray;
using arch::NvVar;
using arch::Op;
using arch::Part;
using dnn::DevDenseFc;
using dnn::DevFactoredConv;
using dnn::DeviceNetwork;
using dnn::DevLayer;
using dnn::DevSparseConv;
using dnn::DevSparseFc;
using dnn::DevSparseVec;
using task::Runtime;
using task::TaskId;

namespace
{

/** Loop-continuation index write: a direct FRAM store, attributed to
 * control (the paper's Sec. 9.4 measures these at 14% of energy). */
inline void
writeIndex(Device &dev, NvVar<i16> &var, i32 value)
{
    arch::ScopedPart control(dev, Part::Control);
    var.write(static_cast<i16>(value));
}

/**
 * Host-side span width for SONIC's loop-continuation chunking. Within
 * one tap the destination buffer is write-only and the sources are
 * read-only (loop-ordered buffering), so a span of up to kSpanWords
 * iterations is idempotent as a unit: a power failure anywhere inside
 * leaves the index at the span start and re-execution reproduces the
 * same values. The spans charge bit-identical cycle/energy/op totals
 * to the per-element loops (n index stores are coalesced into one
 * n-charged write), they just cross the power-accounting boundary once
 * per span instead of once per word.
 *
 * kSpanWords sizes the stack buffers; the width actually used is the
 * builder's spanWords_ (safeSpanWords-clamped so one atomic span
 * always fits inside the device's energy buffer).
 */
constexpr u32 kSpanWords = SonicBuilder::kMaxSpanWords;

/** Coalesced loop-continuation index writes for an n-iteration span. */
inline void
writeIndexSpan(Device &dev, NvVar<i16> &var, i32 value, u32 n)
{
    arch::ScopedPart control(dev, Part::Control);
    var.writeCoalesced(static_cast<i16>(value), n);
}

} // namespace

TaskId
SonicBuilder::build()
{
    TaskId next = task::kDone;
    for (i32 li = static_cast<i32>(net_.layers().size()) - 1; li >= 0;
         --li) {
        next = buildLayer(static_cast<u32>(li), next);
    }
    return next;
}

TaskId
SonicBuilder::buildLayer(u32 li, TaskId next)
{
    DevLayer &layer = net_.layers()[li];
    NvArray<i16> *src = &net_.act(net_.inputBufferOf(li));
    NvArray<i16> *conv_dst = &net_.act(1 - net_.inputBufferOf(li));

    // Build back to front within the layer: pool last.
    if (layer.poolAfter)
        next = buildPool(layer, conv_dst, src, next);

    if (auto *f = std::get_if<DevFactoredConv>(&layer.op)) {
        // mix -> col -> row -> scale; 1-D stages deposit their result
        // in scratch(2), the scale stage broadcasts into the act map.
        u32 h = layer.in.h;
        u32 w = layer.in.w;
        NvArray<i16> *cur = src;
        u32 cur_base = 0;

        struct Stage
        {
            enum Kind { Mix, Col, Row } kind;
            NvArray<i16> *src;
            u32 srcBase;
            u32 inW, outH, outW;
        };
        std::vector<Stage> stages;
        if (f->mix.nnz > 0) {
            stages.push_back({Stage::Mix, cur, cur_base, w, h, w});
            cur = &net_.scratch(2);
            cur_base = 0;
        }
        if (f->col.nnz > 0) {
            const u32 kh = layer.in.h - layer.out.h + 1;
            stages.push_back({Stage::Col, cur, cur_base, w, h - kh + 1,
                              w});
            h = h - kh + 1;
            cur = &net_.scratch(2);
            cur_base = 0;
        }
        if (f->row.nnz > 0) {
            const u32 kw = layer.in.w - layer.out.w + 1;
            stages.push_back({Stage::Row, cur, cur_base, w, h,
                              w - kw + 1});
            w = w - kw + 1;
            cur = &net_.scratch(2);
            cur_base = 0;
        }
        SONIC_ASSERT(h == layer.out.h && w == layer.out.w,
                     "factored conv shape bug");

        // Reverse-build: scale first.
        TaskId chain = buildScale(layer, f->scale, cur, cur_base, h * w,
                                  conv_dst, layer.reluAfter, next);
        for (i32 si = static_cast<i32>(stages.size()) - 1; si >= 0;
             --si) {
            const Stage &s = stages[static_cast<u32>(si)];
            if (s.kind == Stage::Mix) {
                chain = buildMix(layer, f->mix, s.src, s.inW * s.outH,
                                 chain);
            } else {
                chain = buildConv1d(layer,
                                    s.kind == Stage::Col ? f->col
                                                         : f->row,
                                    s.src, s.srcBase, s.inW, s.outH,
                                    s.outW, s.kind == Stage::Col,
                                    chain);
            }
        }
        return chain;
    }
    if (auto *s = std::get_if<DevSparseConv>(&layer.op))
        return buildSparseConv(layer, *s, src, conv_dst,
                               layer.reluAfter, next);
    if (auto *fc = std::get_if<DevDenseFc>(&layer.op))
        return buildDenseFc(layer, *fc, src, conv_dst, layer.reluAfter,
                            next);
    if (auto *sfc = std::get_if<DevSparseFc>(&layer.op))
        return buildSparseFc(layer, *sfc, src, conv_dst,
                             layer.reluAfter, next);
    panic("unknown layer op");
}

TaskId
SonicBuilder::buildConv1d(const DevLayer &layer, const DevSparseVec &taps,
                          NvArray<i16> *src, u32 src_base, u32 in_w,
                          u32 out_h, u32 out_w, bool vertical,
                          TaskId next)
{
    SONIC_ASSERT(taps.nnz >= 1);
    const u32 nnz = taps.nnz;
    const u16 stat = layer.statLayer;
    const DevSparseVec *tp = &taps;

    auto slot_next = std::make_shared<TaskId>(task::kDone);

    // Finalize: copy the settled result slice into scratch(2),
    // span-at-a-time (write-once copy; spans re-execute idempotently).
    const u32 result_slice = (nnz - 1) % 2;
    const TaskId t_fin = prog_.addTask(
        [this, stat, result_slice, out_h, out_w, next](Runtime &rt) {
            Device &d = rt.dev();
            arch::ScopedLayer al(d, stat);
            const u32 count = out_h * out_w;
            u32 p = static_cast<u32>(st_.x.read());
            d.setPart(Part::Kernel);
            i16 buf[kSpanWords];
            while (p < count) {
                const u32 n = std::min(spanWords_, count - p);
                net_.scratch(result_slice).readRange(p, n, buf);
                net_.scratch(2).writeRange(p, n, buf);
                writeIndexSpan(d, st_.x, static_cast<i32>(p + n), n);
                rt.progress(p);
                loopStep(d, n);
                p += n;
            }
            d.setPart(Part::Control);
            rt.logWrite(st_.x, 0);
            return next;
        });

    const TaskId t_conv = prog_.addTask(
        [this, stat, tp, src, src_base, in_w, out_h, out_w, vertical,
         nnz, t_fin, slot_next](Runtime &rt) -> TaskId {
            Device &d = rt.dev();
            arch::ScopedLayer al(d, stat);
            const i32 t = st_.tap.read();
            if (t >= static_cast<i32>(nnz))
                return t_fin;
            const i32 b = st_.buf.read();
            NvArray<i16> &dest = net_.scratch(static_cast<u32>(b));
            NvArray<i16> &inter = net_.scratch(1 - static_cast<u32>(b));
            // Hoist the tap (one of loop continuation's savings).
            const i16 off = tp->idx->read(static_cast<u32>(t));
            const i16 w = tp->val->read(static_cast<u32>(t));
            u32 y = static_cast<u32>(st_.y.read());
            u32 x = static_cast<u32>(st_.x.read());
            i16 in[kSpanWords];
            i16 acc[kSpanWords];
            while (y < out_h) {
                addr2(d);
                const u32 row_src = vertical
                    ? (y + static_cast<u32>(off)) * in_w
                    : y * in_w + static_cast<u32>(off);
                d.consume(Op::AluMul);
                const u32 row_out = y * out_w;
                d.setPart(Part::Kernel);
                while (x < out_w) {
                    // Span: dest is write-only for this tap, src and
                    // inter read-only — idempotent as a unit.
                    const u32 n = std::min(spanWords_, out_w - x);
                    addr1(d, n);
                    src->readRange(src_base + row_src + x, n, in);
                    chargeMulQ(d, n);
                    chargeBranch(d, n);
                    if (t > 0) {
                        inter.readRange(row_out + x, n, acc);
                        d.consume(Op::FixedAdd, n);
                        for (u32 k = 0; k < n; ++k)
                            acc[k] = addQRaw(acc[k],
                                             mulQRaw(w, in[k]));
                    } else {
                        for (u32 k = 0; k < n; ++k)
                            acc[k] = mulQRaw(w, in[k]);
                    }
                    dest.writeRange(row_out + x, n, acc);
                    writeIndexSpan(d, st_.x, static_cast<i32>(x + n),
                                   n);
                    rt.progress((static_cast<u64>(t) << 32)
                                | (row_out + x));
                    loopStep(d, n);
                    x += n;
                }
                d.setPart(Part::Control);
                // x reset *before* y advance keeps the nest idempotent.
                st_.x.write(0);
                st_.y.write(static_cast<i32>(y + 1));
                x = 0;
                ++y;
            }
            return *slot_next;
        });

    // Next-tap: Listing 1's Task_Next_Filter — atomic swap + advance.
    const TaskId t_next = prog_.addTask([this, nnz, t_conv](Runtime &rt) {
        const i32 t = st_.tap.read();
        const i32 b = st_.buf.read();
        const bool last = t + 1 >= static_cast<i32>(nnz);
        rt.logWrite(st_.tap, last ? static_cast<i32>(nnz) : t + 1);
        rt.logWrite(st_.buf, last ? 0 : 1 - b);
        rt.logWrite(st_.y, 0);
        return t_conv;
    });
    *slot_next = t_next;

    // Entry resets the loop registers for this stage.
    const TaskId t_entry = prog_.addTask([this, t_conv](Runtime &rt) {
        rt.logWrite(st_.tap, 0);
        rt.logWrite(st_.buf, 0);
        rt.logWrite(st_.y, 0);
        rt.logWrite(st_.x, 0);
        return t_conv;
    });
    return t_entry;
}

TaskId
SonicBuilder::buildMix(const DevLayer &layer, const DevSparseVec &mix,
                       NvArray<i16> *src, u32 plane, TaskId next)
{
    // The mix stage is a 1-D "conv" across channels with stride =
    // plane: taps index channels, positions span the plane.
    return buildConv1d(layer, mix, src, 0, plane, 1, plane, true, next);
}

TaskId
SonicBuilder::buildScale(const DevLayer &layer, const DevSparseVec &scale,
                         NvArray<i16> *src, u32 src_base, u32 plane,
                         NvArray<i16> *dst, bool relu, TaskId next)
{
    const u16 stat = layer.statLayer;
    const DevSparseVec *sp = &scale;
    const TaskId t_scale = prog_.addTask(
        [this, stat, sp, src, src_base, plane, dst, relu,
         next](Runtime &rt) {
            Device &d = rt.dev();
            arch::ScopedLayer al(d, stat);
            i32 t = st_.tap.read();
            u32 p = static_cast<u32>(st_.x.read());
            const u32 nnz = sp->nnz;
            i16 in[kSpanWords];
            i16 out[kSpanWords];
            while (t < static_cast<i32>(nnz)) {
                const i16 oc = sp->idx->read(static_cast<u32>(t));
                const i16 w = sp->val->read(static_cast<u32>(t));
                d.consume(Op::AluMul);
                const u32 dst_base = static_cast<u32>(oc) * plane;
                d.setPart(Part::Kernel);
                while (p < plane) {
                    // Write-once broadcast: spans are idempotent.
                    const u32 n = std::min(spanWords_, plane - p);
                    src->readRange(src_base + p, n, in);
                    chargeMulQ(d, n);
                    if (relu)
                        chargeBranch(d, n);
                    addr1(d, n);
                    for (u32 k = 0; k < n; ++k) {
                        i16 v = mulQRaw(w, in[k]);
                        if (relu)
                            v = reluQRaw(v);
                        out[k] = v;
                    }
                    dst->writeRange(dst_base + p, n, out);
                    writeIndexSpan(d, st_.x, static_cast<i32>(p + n),
                                   n);
                    rt.progress((static_cast<u64>(t) << 32) | p);
                    loopStep(d, n);
                    p += n;
                }
                d.setPart(Part::Control);
                st_.x.write(0);
                st_.tap.write(t + 1);
                p = 0;
                ++t;
            }
            rt.logWrite(st_.tap, 0);
            return next;
        });

    const TaskId t_entry = prog_.addTask([this, t_scale](Runtime &rt) {
        rt.logWrite(st_.tap, 0);
        rt.logWrite(st_.x, 0);
        return t_scale;
    });
    return t_entry;
}

TaskId
SonicBuilder::buildSparseConv(const DevLayer &layer,
                              const DevSparseConv &op, NvArray<i16> *src,
                              NvArray<i16> *dst, bool relu, TaskId next)
{
    const u16 stat = layer.statLayer;
    const DevSparseConv *cp = &op;
    const u32 out_plane = layer.out.h * layer.out.w;
    const u32 in_plane = layer.in.h * layer.in.w;
    const u32 oc_count = layer.out.c;
    const u32 out_w = layer.out.w;
    const u32 out_h = layer.out.h;
    const u32 in_w = layer.in.w;
    auto slot_conv = std::make_shared<TaskId>(task::kDone);
    auto slot_next = std::make_shared<TaskId>(task::kDone);

    // Finalize one output channel: copy the settled slice (or zeros
    // for an all-pruned channel) into the activation map, fused relu.
    const TaskId t_fin = prog_.addTask(
        [this, stat, cp, dst, relu, out_plane, slot_conv](Runtime &rt) {
            Device &d = rt.dev();
            arch::ScopedLayer al(d, stat);
            const i32 oc = st_.oc.read();
            const i32 first = cp->ocPtr->read(static_cast<u32>(oc));
            const i32 last = cp->ocPtr->read(static_cast<u32>(oc) + 1);
            const bool empty = first == last;
            const i32 b = st_.buf.read();
            NvArray<i16> &result =
                net_.scratch(1 - static_cast<u32>(b));
            d.consume(Op::AluMul);
            const u32 dst_base = static_cast<u32>(oc) * out_plane;
            u32 p = static_cast<u32>(st_.x.read());
            d.setPart(Part::Kernel);
            i16 buf[kSpanWords];
            while (p < out_plane) {
                const u32 n = std::min(spanWords_, out_plane - p);
                if (empty) {
                    std::fill_n(buf, n, i16{0});
                } else {
                    result.readRange(p, n, buf);
                }
                if (relu) {
                    chargeBranch(d, n);
                    for (u32 k = 0; k < n; ++k)
                        buf[k] = reluQRaw(buf[k]);
                }
                addr1(d, n);
                dst->writeRange(dst_base + p, n, buf);
                writeIndexSpan(d, st_.x, static_cast<i32>(p + n), n);
                rt.progress((static_cast<u64>(oc) << 40) | p);
                loopStep(d, n);
                p += n;
            }
            d.setPart(Part::Control);
            rt.logWrite(st_.oc, oc + 1);
            rt.logWrite(st_.buf, 0);
            rt.logWrite(st_.x, 0);
            rt.logWrite(st_.y, 0);
            return *slot_conv;
        });

    const TaskId t_conv = prog_.addTask(
        [this, stat, cp, src, in_plane, in_w, out_h, out_w, oc_count,
         next, t_fin, slot_next](Runtime &rt) -> TaskId {
            Device &d = rt.dev();
            arch::ScopedLayer al(d, stat);
            const i32 oc = st_.oc.read();
            if (oc >= static_cast<i32>(oc_count)) {
                rt.logWrite(st_.oc, 0);
                rt.logWrite(st_.tap, 0);
                return next;
            }
            const i32 first = cp->ocPtr->read(static_cast<u32>(oc));
            const i32 last = cp->ocPtr->read(static_cast<u32>(oc) + 1);
            i32 t = st_.tap.read();
            if (t < first)
                t = first;
            if (t >= last)
                return t_fin;
            // Hoist the tap.
            const u32 ti = static_cast<u32>(t);
            const i16 ic = cp->tapIc->read(ti);
            const i16 ky = cp->tapKy->read(ti);
            const i16 kx = cp->tapKx->read(ti);
            const i16 w = cp->tapW->read(ti);
            const i32 b = st_.buf.read();
            NvArray<i16> &dest = net_.scratch(static_cast<u32>(b));
            NvArray<i16> &inter =
                net_.scratch(1 - static_cast<u32>(b));
            u32 y = static_cast<u32>(st_.y.read());
            u32 x = static_cast<u32>(st_.x.read());
            i16 in[kSpanWords];
            i16 acc[kSpanWords];
            while (y < out_h) {
                addr3(d);
                const u32 row_src = static_cast<u32>(ic) * in_plane
                    + (y + static_cast<u32>(ky)) * in_w
                    + static_cast<u32>(kx);
                d.consume(Op::AluMul);
                const u32 row_out = y * out_w;
                d.setPart(Part::Kernel);
                while (x < out_w) {
                    // Span: same idempotence argument as conv1d.
                    const u32 n = std::min(spanWords_, out_w - x);
                    addr1(d, n);
                    src->readRange(row_src + x, n, in);
                    chargeMulQ(d, n);
                    chargeBranch(d, n);
                    if (t > first) {
                        inter.readRange(row_out + x, n, acc);
                        d.consume(Op::FixedAdd, n);
                        for (u32 k = 0; k < n; ++k)
                            acc[k] = addQRaw(acc[k],
                                             mulQRaw(w, in[k]));
                    } else {
                        for (u32 k = 0; k < n; ++k)
                            acc[k] = mulQRaw(w, in[k]);
                    }
                    dest.writeRange(row_out + x, n, acc);
                    writeIndexSpan(d, st_.x, static_cast<i32>(x + n),
                                   n);
                    rt.progress((static_cast<u64>(t) << 32)
                                | (row_out + x));
                    loopStep(d, n);
                    x += n;
                }
                d.setPart(Part::Control);
                st_.x.write(0);
                st_.y.write(static_cast<i32>(y + 1));
                x = 0;
                ++y;
            }
            return *slot_next;
        });

    const TaskId t_next = prog_.addTask([this, t_conv](Runtime &rt) {
        const i32 t = st_.tap.read();
        const i32 b = st_.buf.read();
        rt.logWrite(st_.tap, t + 1);
        rt.logWrite(st_.buf, 1 - b);
        rt.logWrite(st_.y, 0);
        return t_conv;
    });
    *slot_next = t_next;
    *slot_conv = t_conv;

    const TaskId t_entry = prog_.addTask([this, t_conv](Runtime &rt) {
        rt.logWrite(st_.oc, 0);
        rt.logWrite(st_.tap, 0);
        rt.logWrite(st_.buf, 0);
        rt.logWrite(st_.y, 0);
        rt.logWrite(st_.x, 0);
        return t_conv;
    });
    return t_entry;
}

TaskId
SonicBuilder::buildDenseFc(const DevLayer &layer, const DevDenseFc &op,
                           NvArray<i16> *src, NvArray<i16> *dst,
                           bool relu, TaskId next)
{
    const u16 stat = layer.statLayer;
    const DevDenseFc *fp = &op;
    const u32 m = op.m;
    const u32 n = op.n;

    auto slot_next = std::make_shared<TaskId>(task::kDone);
    const u32 result_slice = (n - 1) % 2;
    const TaskId t_fin = prog_.addTask(
        [this, stat, dst, relu, m, result_slice, next](Runtime &rt) {
            Device &d = rt.dev();
            arch::ScopedLayer al(d, stat);
            u32 r = static_cast<u32>(st_.x.read());
            d.setPart(Part::Kernel);
            i16 buf[kSpanWords];
            while (r < m) {
                const u32 nn = std::min(spanWords_, m - r);
                net_.scratch(result_slice).readRange(r, nn, buf);
                if (relu) {
                    chargeBranch(d, nn);
                    for (u32 k = 0; k < nn; ++k)
                        buf[k] = reluQRaw(buf[k]);
                }
                dst->writeRange(r, nn, buf);
                writeIndexSpan(d, st_.x, static_cast<i32>(r + nn), nn);
                rt.progress(r);
                loopStep(d, nn);
                r += nn;
            }
            d.setPart(Part::Control);
            rt.logWrite(st_.x, 0);
            return next;
        });

    const TaskId t_tap = prog_.addTask(
        [this, stat, fp, src, m, n, t_fin, slot_next](Runtime &rt)
            -> TaskId {
            Device &d = rt.dev();
            arch::ScopedLayer al(d, stat);
            const i32 c = st_.tap.read();
            if (c >= static_cast<i32>(n))
                return t_fin;
            const i16 xin = src->read(static_cast<u32>(c));
            const i32 b = st_.buf.read();
            NvArray<i16> &dest = net_.scratch(static_cast<u32>(b));
            NvArray<i16> &inter =
                net_.scratch(1 - static_cast<u32>(b));
            u32 r = static_cast<u32>(st_.x.read());
            d.setPart(Part::Kernel);
            i16 wcol[kSpanWords];
            i16 acc[kSpanWords];
            while (r < m) {
                // Span over output rows: the weight column is a
                // strided gather, dest is write-only for this input.
                const u32 nn = std::min(spanWords_, m - r);
                addr2(d, nn);
                fp->w->readStride(u64{r} * n + static_cast<u32>(c), n,
                                  nn, wcol);
                chargeMulQ(d, nn);
                chargeBranch(d, nn);
                if (c > 0) {
                    inter.readRange(r, nn, acc);
                    d.consume(Op::FixedAdd, nn);
                    for (u32 k = 0; k < nn; ++k)
                        acc[k] = addQRaw(acc[k],
                                         mulQRaw(wcol[k], xin));
                } else {
                    for (u32 k = 0; k < nn; ++k)
                        acc[k] = mulQRaw(wcol[k], xin);
                }
                dest.writeRange(r, nn, acc);
                writeIndexSpan(d, st_.x, static_cast<i32>(r + nn), nn);
                rt.progress((static_cast<u64>(c) << 32) | r);
                loopStep(d, nn);
                r += nn;
            }
            d.setPart(Part::Control);
            return *slot_next;
        });

    const TaskId t_next = prog_.addTask([this, n, t_tap](Runtime &rt) {
        const i32 c = st_.tap.read();
        const i32 b = st_.buf.read();
        const bool last = c + 1 >= static_cast<i32>(n);
        rt.logWrite(st_.tap, last ? static_cast<i32>(n) : c + 1);
        rt.logWrite(st_.buf, last ? 0 : 1 - b);
        rt.logWrite(st_.x, 0);
        return t_tap;
    });
    *slot_next = t_next;

    const TaskId t_entry = prog_.addTask([this, t_tap](Runtime &rt) {
        rt.logWrite(st_.tap, 0);
        rt.logWrite(st_.buf, 0);
        rt.logWrite(st_.x, 0);
        return t_tap;
    });
    return t_entry;
}

TaskId
SonicBuilder::buildSparseFc(const DevLayer &layer, const DevSparseFc &op,
                            NvArray<i16> *src, NvArray<i16> *dst,
                            bool relu, TaskId next)
{
    const u16 stat = layer.statLayer;
    const DevSparseFc *fp = &op;
    const u32 m = op.m;
    const u32 nnz = op.nnz;

    // Optional fused relu pass (in-place, idempotent).
    TaskId after = next;
    if (relu) {
        after = prog_.addTask([this, stat, dst, m, next](Runtime &rt) {
            Device &d = rt.dev();
            arch::ScopedLayer al(d, stat);
            u32 r = static_cast<u32>(st_.x.read());
            d.setPart(Part::Kernel);
            while (r < m) {
                // In-place span: relu is idempotent, so a re-run
                // after a mid-span failure converges.
                const u32 nn = std::min(spanWords_, m - r);
                chargeBranch(d, nn);
                dst->accumRange(r, nn, [](i16 v, u64) {
                    return reluQRaw(v);
                });
                writeIndexSpan(d, st_.x, static_cast<i32>(r + nn),
                               nn);
                rt.progress(r);
                loopStep(d, nn);
                r += nn;
            }
            d.setPart(Part::Control);
            rt.logWrite(st_.x, 0);
            return next;
        });
    }

    // Atomic reset of the undo-log indices between layers.
    const TaskId t_reset = prog_.addTask([this, after](Runtime &rt) {
        rt.logWrite(st_.rd, 0);
        rt.logWrite(st_.wr, 0);
        rt.logWrite(st_.col, 0);
        rt.logWrite(st_.x, 0);
        return after;
    });

    // The in-place sparse accumulation under sparse undo-logging.
    const TaskId t_acc = prog_.addTask(
        [this, stat, fp, src, dst, nnz, t_reset](Runtime &rt) {
            Device &d = rt.dev();
            arch::ScopedLayer al(d, stat);
            i32 t = st_.wr.read();
            u32 c = static_cast<u32>(st_.col.read());
            while (t < static_cast<i32>(nnz)) {
                // Advance the CSC column cursor (monotonic; direct
                // writes are safe because c is re-derived from t).
                d.setPart(Part::Control);
                while (fp->colPtr->read(c + 1) <= t) {
                    ++c;
                    st_.col.write(static_cast<i32>(c));
                    loopStep(d);
                }
                d.setPart(Part::Kernel);
                const u32 ti = static_cast<u32>(t);
                const i16 r = fp->rowIdx->read(ti);
                i16 base;
                if (testhooks::sonicDisableUndoLogging) [[unlikely]] {
                    // Oracle self-test fault: naive in-place RMW. A
                    // failure between the dst store below and the wr
                    // index advance re-applies this tap on restart.
                    d.consume(Op::Branch);
                    base = dst->read(static_cast<u32>(r));
                } else {
                    // Phase 1: save the original value once per tap.
                    d.consume(Op::Branch);
                    if (st_.rd.read() <= t) {
                        st_.saved.write(
                            dst->read(static_cast<u32>(r)));
                        st_.rd.write(t + 1);
                    }
                    // Phase 2: recompute from the canonical save.
                    base = st_.saved.read();
                }
                const i16 w = fp->val->read(ti);
                const i16 xin = src->read(c);
                const i16 v = addQ(d, base, mulQ(d, w, xin));
                dst->write(static_cast<u32>(r), v);
                writeIndex(d, st_.wr, t + 1);
                rt.progress(static_cast<u64>(t));
                loopStep(d);
                ++t;
            }
            d.setPart(Part::Control);
            return t_reset;
        });

    // Zero the output map (idempotent write-once loop, span-filled).
    const TaskId t_zero = prog_.addTask(
        [this, stat, dst, m, t_acc](Runtime &rt) {
            Device &d = rt.dev();
            arch::ScopedLayer al(d, stat);
            u32 r = static_cast<u32>(st_.x.read());
            d.setPart(Part::Kernel);
            while (r < m) {
                const u32 nn = std::min(spanWords_, m - r);
                dst->fillRange(r, nn, 0);
                writeIndexSpan(d, st_.x, static_cast<i32>(r + nn), nn);
                rt.progress(r);
                loopStep(d, nn);
                r += nn;
            }
            d.setPart(Part::Control);
            rt.logWrite(st_.x, 0);
            rt.logWrite(st_.rd, 0);
            rt.logWrite(st_.wr, 0);
            rt.logWrite(st_.col, 0);
            return t_acc;
        });

    const TaskId t_entry = prog_.addTask([this, t_zero](Runtime &rt) {
        rt.logWrite(st_.x, 0);
        return t_zero;
    });
    return t_entry;
}

TaskId
SonicBuilder::buildPool(const DevLayer &layer, NvArray<i16> *src,
                        NvArray<i16> *dst, TaskId next)
{
    const u16 stat = layer.statLayer;
    const dnn::ActShape pre = layer.out;
    const u32 oh = pre.h / 2;
    const u32 ow = pre.w / 2;
    const u32 out_plane = oh * ow;

    const TaskId t_pool = prog_.addTask(
        [this, stat, src, dst, pre, ow, out_plane, next](Runtime &rt) {
            Device &d = rt.dev();
            arch::ScopedLayer al(d, stat);
            i32 oc = st_.oc.read();
            u32 p = static_cast<u32>(st_.x.read());
            while (oc < static_cast<i32>(pre.c)) {
                d.setPart(Part::Kernel);
                while (p < out_plane) {
                    divmod(d);
                    const u32 y = p / ow;
                    const u32 x = p % ow;
                    addr3(d);
                    const u32 base =
                        static_cast<u32>(oc) * pre.h * pre.w
                        + 2 * y * pre.w + 2 * x;
                    i16 v = src->read(base);
                    v = maxQ(d, v, src->read(base + 1));
                    v = maxQ(d, v, src->read(base + pre.w));
                    v = maxQ(d, v, src->read(base + pre.w + 1));
                    addr3(d);
                    dst->write(static_cast<u32>(oc) * out_plane + p, v);
                    writeIndex(d, st_.x, static_cast<i32>(p + 1));
                    rt.progress((static_cast<u64>(oc) << 32) | p);
                    loopStep(d);
                    ++p;
                }
                d.setPart(Part::Control);
                st_.x.write(0);
                st_.oc.write(oc + 1);
                p = 0;
                ++oc;
            }
            rt.logWrite(st_.oc, 0);
            rt.logWrite(st_.x, 0);
            return next;
        });

    const TaskId t_entry = prog_.addTask([this, t_pool](Runtime &rt) {
        rt.logWrite(st_.oc, 0);
        rt.logWrite(st_.x, 0);
        return t_pool;
    });
    return t_entry;
}

RunResult
runSonic(DeviceNetwork &net)
{
    SonicState state(net.dev());
    task::Program program;
    SonicBuilder builder(net, program, state);
    const TaskId entry = builder.build();

    return runProgram(net, program, entry, task::TransitionStyle::Light);
}

} // namespace sonic::kernels
