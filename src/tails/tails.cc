#include "tails/tails.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "arch/memory.hh"
#include "kernels/kernel_util.hh"
#include "kernels/sonic_builder.hh"
#include "tails/lea.hh"
#include "task/runtime.hh"
#include "util/logging.hh"

namespace sonic::tails
{

namespace
{

using arch::Device;
using arch::NvArray;
using arch::NvVar;
using arch::Op;
using arch::Part;
using dnn::DevDenseFc;
using dnn::DeviceNetwork;
using dnn::DevLayer;
using dnn::DevSparseConv;
using dnn::DevSparseVec;
using kernels::addQ;
using kernels::addr1;
using kernels::addr2;
using kernels::divmod;
using kernels::loopStep;
using kernels::mulQ;
using kernels::reluQ;
using task::Runtime;
using task::TaskId;

constexpr u32 kMinTileWords = 16;
constexpr u32 kMaxTileWords = 1800;

/**
 * Charged densification of a sparse tap vector: LEA needs dense
 * coefficients, so zeros are padded in (the paper's "making filters
 * dense"). The dense buffer lives in SRAM for the LEA command.
 */
std::vector<i16>
densify(Device &dev, const DevSparseVec &v, u32 klen)
{
    std::vector<i16> coeffs(klen, 0);
    dev.consume(Op::SramStore, klen);
    for (u32 t = 0; t < v.nnz; ++t) {
        const i16 idx = v.idx->read(t);
        const i16 val = v.val->read(t);
        dev.consume(Op::SramStore);
        coeffs[static_cast<u32>(idx)] = val;
    }
    return coeffs;
}

/** TAILS builder: SONIC with the dense stages re-bound to LEA. */
class TailsBuilder : public kernels::SonicBuilder
{
  public:
    TailsBuilder(DeviceNetwork &net, task::Program &program,
                 kernels::SonicState &st)
        : SonicBuilder(net, program, st), lea_(net.dev()),
          tileWords_(net.dev(), "tails.tileWords", kMaxTileWords),
          calAttempted_(net.dev(), "tails.calAttempted", 0),
          calDone_(net.dev(), "tails.calDone", 0)
    {
    }

    /**
     * Prefix the network entry with the one-time calibration task
     * (Sec. 7.1): try a tile; every re-execution after a power failure
     * halves it; the first tile that completes within one charge cycle
     * is bound for the rest of the run.
     */
    TaskId
    buildWithCalibration()
    {
        const TaskId net_entry = build();
        const TaskId t_cal = prog_.addTask([this, net_entry](Runtime &rt) {
            Device &d = rt.dev();
            d.consume(Op::Branch);
            if (calDone_.read() != 0)
                return net_entry;
            if (calAttempted_.read() != 0) {
                const i32 t = tileWords_.read();
                tileWords_.write(
                    std::max<i32>(kMinTileWords, t / 2));
            }
            calAttempted_.write(1);
            const u32 tile =
                static_cast<u32>(tileWords_.read());
            rt.progress(tile);
            // Probe: a representative DMA-in / 8-tap FIR /
            // DMA-out round trip over `tile` elements.
            d.consume(Op::DmaWord, tile);
            d.consume(Op::SramLoad, tile);
            d.consume(Op::AluShift,
                      u64{tile} * kPreShiftBits);
            d.consume(Op::SramStore, tile);
            d.consume(Op::LeaInvoke);
            d.consume(Op::LeaMac, u64{tile} * 8);
            d.consume(Op::AluShift,
                      u64{tile} * kPostShiftBits);
            d.consume(Op::DmaWord, tile);
            rt.logWrite(calDone_, 1);
            rt.logWrite(calAttempted_, 0);
            return net_entry;
        });
        return t_cal;
    }

    u32 calibratedTile() const { return static_cast<u32>(
        tileWords_.peek()); }

  protected:
    /** Row (horizontal) 1-D conv: FIR-DTC per output row; column
     * (vertical) 1-D conv and channel mix: dot product per output.
     * Results go straight to scratch(2) — FIR covers all taps in one
     * command, so no loop-ordered double buffer is needed. */
    TaskId
    buildConv1d(const DevLayer &layer, const DevSparseVec &taps,
                NvArray<i16> *src, u32 src_base, u32 in_w, u32 out_h,
                u32 out_w, bool vertical, TaskId next) override
    {
        // Column (vertical) 1-D convs use LEA's dot product (the
        // paper's choice for 1 x p x 1 factored layers); row convs use
        // FIR-DTC.
        if (vertical) {
            const u32 klen = layer.in.h - out_h + 1;
            return dotStage(layer, taps, klen, src, src_base, in_w,
                            in_w, out_h, out_w, next);
        }
        const u16 stat = layer.statLayer;
        const DevSparseVec *tp = &taps;
        const u32 klen = in_w - out_w + 1;
        const TaskId fin = copyStage(layer, out_h * out_w, next);
        const TaskId t_fir = prog_.addTask(
            [this, stat, tp, src, src_base, in_w, out_h, out_w, klen,
             fin](Runtime &rt) -> TaskId {
                Device &d = rt.dev();
                arch::ScopedLayer al(d, stat);
                auto coeffs = densify(d, *tp, klen);
                u32 y = static_cast<u32>(st_.y.read());
                while (y < out_h) {
                    d.setPart(Part::Kernel);
                    lea_.firDtc(*src, src_base + y * in_w, in_w,
                                coeffs, net_.scratch(0), y * out_w,
                                out_w, nullptr, 0);
                    d.setPart(Part::Control);
                    st_.y.write(static_cast<i32>(y + 1));
                    rt.progress(y);
                    loopStep(d);
                    ++y;
                }
                rt.logWrite(st_.y, 0);
                return fin;
            });
        const TaskId t_entry = prog_.addTask([this, t_fir](Runtime &rt) {
            rt.logWrite(st_.y, 0);
            return t_fir;
        });
        return t_entry;
    }

    /** Channel mix: a dot product across channels, stride = plane. */
    TaskId
    buildMix(const DevLayer &layer, const DevSparseVec &mix,
             NvArray<i16> *src, u32 plane, TaskId next) override
    {
        return dotStage(layer, mix, layer.in.c, src, 0, plane, plane,
                        1, plane, next);
    }

    /** Copy scratch(0) into scratch(2) (stage-chaining contract). */
    TaskId
    copyStage(const DevLayer &layer, u32 count, TaskId next)
    {
        const u16 stat = layer.statLayer;
        const TaskId t_copy = prog_.addTask(
            [this, stat, count, next](Runtime &rt) {
                Device &d = rt.dev();
                arch::ScopedLayer al(d, stat);
                u32 p = static_cast<u32>(st_.x.read());
                d.setPart(Part::Kernel);
                while (p < count) {
                    const i16 v = net_.scratch(0).read(p);
                    net_.scratch(2).write(p, v);
                    {
                        arch::ScopedPart ctl(d, Part::Control);
                        st_.x.write(static_cast<i32>(p + 1));
                    }
                    rt.progress(p);
                    loopStep(d);
                    ++p;
                }
                d.setPart(Part::Control);
                rt.logWrite(st_.x, 0);
                return next;
            });
        return t_copy;
    }

    /**
     * LEA dot-product stage: one vector MAC per output element over a
     * strided source window. Output element (y, x) reads from
     * src_base + y * in_w + x with the given stride.
     */
    TaskId
    dotStage(const DevLayer &layer, const DevSparseVec &taps, u32 klen,
             NvArray<i16> *src, u32 src_base, u32 in_w, u32 stride,
             u32 out_h, u32 out_w, TaskId next)
    {
        const u16 stat = layer.statLayer;
        const DevSparseVec *tp = &taps;
        const TaskId fin = copyStage(layer, out_h * out_w, next);
        const TaskId t_dot = prog_.addTask(
            [this, stat, tp, src, src_base, in_w, stride, klen, out_h,
             out_w, fin](Runtime &rt) -> TaskId {
                Device &d = rt.dev();
                arch::ScopedLayer al(d, stat);
                auto coeffs = densify(d, *tp, klen);
                u32 y = static_cast<u32>(st_.y.read());
                u32 x = static_cast<u32>(st_.x.read());
                while (y < out_h) {
                    d.setPart(Part::Kernel);
                    while (x < out_w) {
                        addr2(d);
                        const u32 base = src_base + y * in_w + x;
                        const i16 v =
                            lea_.dotProduct(coeffs, *src, base, stride);
                        net_.scratch(0).write(y * out_w + x, v);
                        {
                            arch::ScopedPart ctl(d, Part::Control);
                            st_.x.write(static_cast<i32>(x + 1));
                        }
                        rt.progress((static_cast<u64>(y) << 32) | x);
                        loopStep(d);
                        ++x;
                    }
                    d.setPart(Part::Control);
                    st_.x.write(0);
                    st_.y.write(static_cast<i32>(y + 1));
                    x = 0;
                    ++y;
                }
                rt.logWrite(st_.y, 0);
                return fin;
            });
        const TaskId t_entry = prog_.addTask([this, t_dot](Runtime &rt) {
            rt.logWrite(st_.y, 0);
            rt.logWrite(st_.x, 0);
            return t_dot;
        });
        return t_entry;
    }

    /**
     * Pruned 2-D conv: filters densified one (ic, ky) row at a time,
     * FIR across the whole (contiguous) input row band — computing
     * some invalid positions as waste — and accumulated across filter
     * rows with loop-ordered buffering (Sec. 7.2).
     */
    TaskId
    buildSparseConv(const DevLayer &layer, const DevSparseConv &op,
                    NvArray<i16> *src, NvArray<i16> *dst, bool relu,
                    TaskId next) override
    {
        const u16 stat = layer.statLayer;
        const DevSparseConv *cp = &op;
        const u32 out_plane = layer.out.h * layer.out.w;
        const u32 in_plane = layer.in.h * layer.in.w;
        const u32 oc_count = layer.out.c;
        const u32 out_w = layer.out.w;
        const u32 out_h = layer.out.h;
        const u32 in_w = layer.in.w;
        const u32 kw = op.kw;

        auto slot_conv = std::make_shared<TaskId>(task::kDone);
        auto slot_next = std::make_shared<TaskId>(task::kDone);

        // Per-channel finalize: identical role to SONIC's.
        const TaskId t_fin = prog_.addTask(
            [this, stat, cp, dst, relu, out_plane,
             slot_conv](Runtime &rt) {
                Device &d = rt.dev();
                arch::ScopedLayer al(d, stat);
                const i32 oc = st_.oc.read();
                const i32 first =
                    cp->ocPtr->read(static_cast<u32>(oc));
                const i32 last =
                    cp->ocPtr->read(static_cast<u32>(oc) + 1);
                const bool empty = first == last;
                const i32 b = st_.buf.read();
                NvArray<i16> &result =
                    net_.scratch(1 - static_cast<u32>(b));
                d.consume(Op::AluMul);
                const u32 dst_base =
                    static_cast<u32>(oc) * out_plane;
                u32 p = static_cast<u32>(st_.x.read());
                d.setPart(Part::Kernel);
                while (p < out_plane) {
                    i16 v = empty ? i16{0} : result.read(p);
                    if (relu)
                        v = reluQ(d, v);
                    addr1(d);
                    dst->write(dst_base + p, v);
                    {
                        arch::ScopedPart ctl(d, Part::Control);
                        st_.x.write(static_cast<i32>(p + 1));
                    }
                    rt.progress((static_cast<u64>(oc) << 40) | p);
                    loopStep(d);
                    ++p;
                }
                d.setPart(Part::Control);
                rt.logWrite(st_.oc, oc + 1);
                rt.logWrite(st_.buf, 0);
                rt.logWrite(st_.x, 0);
                return *slot_conv;
            });

        // One task execution = one densified filter row applied by FIR
        // across the input band, accumulated loop-ordered.
        const TaskId t_row = prog_.addTask(
            [this, stat, cp, src, in_plane, in_w, out_h, out_w,
             out_plane, oc_count, kw, next, t_fin,
             slot_next](Runtime &rt) -> TaskId {
                Device &d = rt.dev();
                arch::ScopedLayer al(d, stat);
                const i32 oc = st_.oc.read();
                if (oc >= static_cast<i32>(oc_count)) {
                    rt.logWrite(st_.oc, 0);
                    rt.logWrite(st_.tap, 0);
                    return next;
                }
                const i32 first =
                    cp->ocPtr->read(static_cast<u32>(oc));
                const i32 last =
                    cp->ocPtr->read(static_cast<u32>(oc) + 1);
                i32 t = st_.tap.read();
                if (t < first)
                    t = first;
                if (t >= last)
                    return t_fin;

                // Densify the (ic, ky) filter row starting at tap t.
                const i16 ic = cp->tapIc->read(static_cast<u32>(t));
                const i16 ky = cp->tapKy->read(static_cast<u32>(t));
                std::vector<i16> coeffs(kw, 0);
                d.consume(Op::SramStore, kw);
                i32 row_end = t;
                while (row_end < last
                       && cp->tapIc->read(static_cast<u32>(row_end))
                           == ic
                       && cp->tapKy->read(static_cast<u32>(row_end))
                           == ky) {
                    const i16 kx = cp->tapKx->read(
                        static_cast<u32>(row_end));
                    coeffs[static_cast<u32>(kx)] = cp->tapW->read(
                        static_cast<u32>(row_end));
                    d.consume(Op::SramStore);
                    loopStep(d);
                    ++row_end;
                }

                const i32 b = st_.buf.read();
                NvArray<i16> &dest =
                    net_.scratch(static_cast<u32>(b));
                NvArray<i16> &inter =
                    net_.scratch(1 - static_cast<u32>(b));
                const bool accumulate = t > first;

                // FIR row by row over the band (the per-row windows
                // are contiguous; out-of-band columns are wasted work
                // the densification implies).
                d.setPart(Part::Kernel);
                for (u32 oy = 0; oy < out_h; ++oy) {
                    const u32 band = static_cast<u32>(ic) * in_plane
                        + (oy + static_cast<u32>(ky)) * in_w;
                    lea_.firDtc(*src, band, out_w + kw - 1, coeffs,
                                dest, oy * out_w, out_w,
                                accumulate ? &inter : nullptr,
                                oy * out_w);
                }
                d.setPart(Part::Control);
                rt.progress((static_cast<u64>(oc) << 32)
                            | static_cast<u64>(t));
                return *slot_next;
            });

        const TaskId t_next = prog_.addTask(
            [this, cp, slot_conv](Runtime &rt) {
                Device &d = rt.dev();
                const i32 t = st_.tap.read();
                const i32 b = st_.buf.read();
                // Skip to the next filter row (same scan as t_row).
                const i16 ic = cp->tapIc->read(static_cast<u32>(t));
                const i16 ky = cp->tapKy->read(static_cast<u32>(t));
                const i32 oc = st_.oc.read();
                const i32 last =
                    cp->ocPtr->read(static_cast<u32>(oc) + 1);
                i32 row_end = t;
                while (row_end < last
                       && cp->tapIc->read(static_cast<u32>(row_end))
                           == ic
                       && cp->tapKy->read(static_cast<u32>(row_end))
                           == ky) {
                    loopStep(d);
                    ++row_end;
                }
                rt.logWrite(st_.tap, row_end);
                rt.logWrite(st_.buf, 1 - b);
                return *slot_conv;
            });
        *slot_next = t_next;
        *slot_conv = t_row;

        const TaskId t_entry = prog_.addTask([this, t_row](Runtime &rt) {
            rt.logWrite(st_.oc, 0);
            rt.logWrite(st_.tap, 0);
            rt.logWrite(st_.buf, 0);
            rt.logWrite(st_.y, 0);
            rt.logWrite(st_.x, 0);
            return t_row;
        });
        return t_entry;
    }

    /** Dense FC: per-output-row vector MACs over calibrated chunks;
     * the row's partial sums accumulate in a register and the row
     * result is written once (idempotent under restart). */
    TaskId
    buildDenseFc(const DevLayer &layer, const DevDenseFc &op,
                 NvArray<i16> *src, NvArray<i16> *dst, bool relu,
                 TaskId next) override
    {
        const u16 stat = layer.statLayer;
        const DevDenseFc *fp = &op;
        const u32 m = op.m;
        const u32 n = op.n;

        const TaskId t_fc = prog_.addTask(
            [this, stat, fp, src, dst, relu, m, n, next](Runtime &rt)
                -> TaskId {
                Device &d = rt.dev();
                arch::ScopedLayer al(d, stat);
                const u32 tile = static_cast<u32>(std::min<i32>(
                    tileWords_.read(),
                    static_cast<i32>((kLeaBufferWords - 2) / 2)));
                u32 r = static_cast<u32>(st_.x.read());
                while (r < m) {
                    i16 acc = 0;
                    d.setPart(Part::Kernel);
                    for (u32 c0 = 0; c0 < n; c0 += tile) {
                        const u32 len = std::min(tile, n - c0);
                        addr2(d);
                        const i16 part = lea_.dotProductFram(
                            *fp->w, u64{r} * n + c0, *src, c0, len);
                        acc = addQ(d, acc, part);
                    }
                    if (relu)
                        acc = reluQ(d, acc);
                    dst->write(r, acc);
                    {
                        arch::ScopedPart ctl(d, Part::Control);
                        st_.x.write(static_cast<i32>(r + 1));
                    }
                    rt.progress(r);
                    loopStep(d);
                    ++r;
                    d.setPart(Part::Control);
                }
                rt.logWrite(st_.x, 0);
                return next;
            });
        const TaskId t_entry = prog_.addTask([this, t_fc](Runtime &rt) {
            rt.logWrite(st_.x, 0);
            return t_fc;
        });
        return t_entry;
    }

    // Sparse FC, scale, mix-free pooling and relu are inherited from
    // SonicBuilder (software), per the paper.

  private:
    LeaUnit lea_;
    NvVar<i32> tileWords_;
    NvVar<i32> calAttempted_;
    NvVar<i32> calDone_;

  public:
    NvVar<i32> &tileVar() { return tileWords_; }
};

} // namespace

kernels::RunResult
runTails(dnn::DeviceNetwork &net)
{
    kernels::SonicState state(net.dev());
    task::Program program;
    TailsBuilder builder(net, program, state);
    const TaskId entry = builder.buildWithCalibration();

    auto result = kernels::runProgram(net, program, entry,
                                      task::TransitionStyle::Light);
    result.calibTileWords = builder.calibratedTile();
    return result;
}

} // namespace sonic::tails
