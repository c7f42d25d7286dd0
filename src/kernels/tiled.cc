/**
 * @file
 * Task-tiled baselines on the Alpaca-style runtime (the paper's
 * Tile-8 / Tile-32 / Tile-128, Sec. 6.2 and Fig. 6).
 *
 * Every layer's loop nest is flattened into a single iteration space;
 * each task executes a fixed number of iterations (the tile). All loop
 * state and written data are task-shared: writes go through the redo
 * log, reads of possibly-written locations through privatization, and
 * restarting a task re-derives its loop coordinates from the flattened
 * logged index (software divide/modulo — the MSP430 has no divide
 * unit). Each task pays the full task-based-runtime transition.
 *
 * Too large a tile demands more energy than the device buffers and the
 * program never terminates; too small a tile drowns in transition
 * overheads. Exactly the paper's trade-off.
 */

#include "kernels/runner.hh"

#include <algorithm>
#include <functional>
#include <memory>
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

/** One flattened, tiled loop nest. */
struct TiledStage
{
    u16 statLayer = 0;
    u64 total = 0;
    std::function<void(Runtime &, u64)> body;
};

/**
 * Collects the stages of a network in execution order and lowers them
 * into tiled tasks around a shared logged loop index.
 */
class TiledBuilder
{
  public:
    TiledBuilder(DeviceNetwork &net, u32 tile)
        : net_(net), tile_(tile),
          flat_(net.dev(), "tiled.flatIndex", 0)
    {
        for (u32 li = 0; li < net_.layers().size(); ++li)
            buildLayer(li);
    }

    /** Lower stages to tasks; returns the entry task id. */
    TaskId
    lower(task::Program &prog)
    {
        SONIC_ASSERT(!stages_.empty());
        // Create tasks in reverse so each knows its successor.
        TaskId next = task::kDone;
        for (i32 si = static_cast<i32>(stages_.size()) - 1; si >= 0;
             --si) {
            next = lowerStage(prog, stages_[static_cast<u32>(si)], next);
        }
        return next;
    }

  private:
    TaskId
    lowerStage(task::Program &prog, const TiledStage &stage, TaskId next)
    {
        const u32 tile = tile_;
        auto self = std::make_shared<TaskId>(task::kDone);
        const TaskId id = prog.addTask(
            [this, &stage, tile, next, self](Runtime &rt) -> TaskId {
                Device &d = rt.dev();
                arch::ScopedLayer al(d, stage.statLayer);
                u64 i = static_cast<u64>(rt.logRead(flat_));
                d.setPart(Part::Kernel);
                for (u32 k = 0; k < tile && i < stage.total; ++k, ++i)
                    stage.body(rt, i);
                d.setPart(Part::Control);
                const bool done = i >= stage.total;
                rt.logWrite(flat_, done ? 0 : static_cast<i32>(i));
                // This task is its own successor while work remains.
                return done ? next : *self;
            });
        *self = id;
        return id;
    }

    void buildLayer(u32 li);

    void conv1dStage(const DevLayer &layer, const DevSparseVec &taps,
                     NvArray<i16> *src, u32 src_base, u32 in_w,
                     u32 out_h, u32 out_w, bool vertical,
                     NvArray<i16> *dst);
    void scaleStage(const DevLayer &layer, const DevSparseVec &scale,
                    NvArray<i16> *src, u32 plane, NvArray<i16> *dst,
                    bool relu);
    void reluStage(const DevLayer &layer, NvArray<i16> *buf, u32 m);

    DeviceNetwork &net_;
    u32 tile_;
    NvVar<i32> flat_;
    std::vector<TiledStage> stages_;
    std::vector<std::shared_ptr<NvVar<i32>>> colVars_;
};

void
TiledBuilder::conv1dStage(const DevLayer &layer, const DevSparseVec &taps,
                          NvArray<i16> *src, u32 src_base, u32 in_w,
                          u32 out_h, u32 out_w, bool vertical,
                          NvArray<i16> *dst)
{
    const u64 plane = u64{out_h} * out_w;
    TiledStage stage;
    stage.statLayer = layer.statLayer;
    stage.total = u64{taps.nnz} * plane;
    stage.body = [this, &taps, src, src_base, in_w, out_w, vertical, dst,
                  plane](Runtime &rt, u64 i) {
        Device &d = rt.dev();
        divmod(d);
        const u32 t = static_cast<u32>(i / plane);
        const u32 p = static_cast<u32>(i % plane);
        const i16 off = taps.idx->read(t);
        const i16 w = taps.val->read(t);
        u32 si;
        if (vertical) {
            d.consume(Op::AluMul);
            d.consume(Op::AluAdd);
            si = p + static_cast<u32>(off) * in_w;
        } else {
            divmod(d);
            addr2(d);
            const u32 y = p / out_w;
            const u32 x = p % out_w;
            si = y * in_w + x + static_cast<u32>(off);
        }
        const i16 s = src->read(src_base + si);
        i16 v = mulQ(d, w, s);
        d.consume(Op::Branch);
        if (t > 0)
            v = addQ(d, rt.logRead(*dst, p), v);
        rt.logWrite(*dst, p, v);
        loopStep(d);
    };
    stages_.push_back(std::move(stage));
}

void
TiledBuilder::scaleStage(const DevLayer &layer, const DevSparseVec &scale,
                         NvArray<i16> *src, u32 plane, NvArray<i16> *dst,
                         bool relu)
{
    TiledStage stage;
    stage.statLayer = layer.statLayer;
    stage.total = u64{scale.nnz} * plane;
    stage.body = [&scale, src, plane, dst, relu](Runtime &rt, u64 i) {
        Device &d = rt.dev();
        divmod(d);
        const u32 t = static_cast<u32>(i / plane);
        const u32 p = static_cast<u32>(i % plane);
        const i16 oc = scale.idx->read(t);
        const i16 w = scale.val->read(t);
        addr2(d);
        const i16 s = src->read(p);
        i16 v = mulQ(d, w, s);
        if (relu)
            v = reluQ(d, v);
        rt.logWrite(*dst, static_cast<u32>(oc) * plane + p, v);
        loopStep(d);
    };
    stages_.push_back(std::move(stage));
}

void
TiledBuilder::reluStage(const DevLayer &layer, NvArray<i16> *buf, u32 m)
{
    TiledStage stage;
    stage.statLayer = layer.statLayer;
    stage.total = m;
    stage.body = [buf](Runtime &rt, u64 i) {
        Device &d = rt.dev();
        const i16 v = rt.logRead(*buf, static_cast<u32>(i));
        rt.logWrite(*buf, static_cast<u32>(i), reluQ(d, v));
        loopStep(d);
    };
    stages_.push_back(std::move(stage));
}

void
TiledBuilder::buildLayer(u32 li)
{
    DevLayer &layer = net_.layers()[li];
    NvArray<i16> *src = &net_.act(net_.inputBufferOf(li));
    NvArray<i16> *conv_dst = &net_.act(1 - net_.inputBufferOf(li));

    if (auto *f = std::get_if<DevFactoredConv>(&layer.op)) {
        u32 h = layer.in.h;
        u32 w = layer.in.w;
        NvArray<i16> *cur = src;
        if (f->mix.nnz > 0) {
            // Channel mix as a vertical conv with stride = plane.
            conv1dStage(layer, f->mix, cur, 0, h * w, 1, h * w, true,
                        &net_.scratch(2));
            cur = &net_.scratch(2);
        }
        if (f->col.nnz > 0) {
            const u32 kh = layer.in.h - layer.out.h + 1;
            conv1dStage(layer, f->col, cur, 0, w, h - kh + 1, w, true,
                        &net_.scratch(0));
            cur = &net_.scratch(0);
            h = h - kh + 1;
        }
        if (f->row.nnz > 0) {
            const u32 kw = layer.in.w - layer.out.w + 1;
            conv1dStage(layer, f->row, cur, 0, w, h, w - kw + 1, false,
                        &net_.scratch(1));
            cur = &net_.scratch(1);
            w = w - kw + 1;
        }
        scaleStage(layer, f->scale, cur, h * w, conv_dst,
                   layer.reluAfter);
    } else if (auto *sc = std::get_if<DevSparseConv>(&layer.op)) {
        // Per-output-element iteration; the tap loop of one element
        // runs in registers inside one iteration.
        const u32 out_w = layer.out.w;
        const u32 out_h = layer.out.h;
        const u32 in_w = layer.in.w;
        const u64 out_plane = u64{out_h} * out_w;
        const bool relu = layer.reluAfter;
        TiledStage stage;
        stage.statLayer = layer.statLayer;
        stage.total = u64{layer.out.c} * out_plane;
        stage.body = [sc, src, conv_dst, out_plane, out_w, in_w,
                      relu](Runtime &rt, u64 i) {
            Device &d = rt.dev();
            divmod(d);
            const u32 oc = static_cast<u32>(i / out_plane);
            const u32 p = static_cast<u32>(i % out_plane);
            divmod(d);
            const u32 oy = p / out_w;
            const u32 ox = p % out_w;
            const i32 first = sc->ocPtr->read(oc);
            const i32 last = sc->ocPtr->read(oc + 1);
            i16 acc = 0;
            // Tap runs charge in bulk spans (identical totals); the
            // whole body re-executes after a failure, so batching
            // inside one iteration never changes recovery behavior.
            constexpr u32 kTapSpan = 32;
            i16 toff[kTapSpan];
            i16 tw[kTapSpan];
            for (i32 t = first; t < last;) {
                const u32 k = std::min<u32>(
                    kTapSpan, static_cast<u32>(last - t));
                sc->tapOff->readRange(static_cast<u32>(t), k, toff);
                sc->tapW->readRange(static_cast<u32>(t), k, tw);
                addr2(d, k);
                d.consume(Op::FramLoad, k); // gathered src reads
                chargeMacQ(d, k);
                loopStep(d, k);
                for (u32 j = 0; j < k; ++j) {
                    const u32 si = static_cast<u32>(toff[j])
                        + oy * in_w + ox;
                    acc = addQRaw(acc,
                                  mulQRaw(tw[j], src->peek(si)));
                }
                t += static_cast<i32>(k);
            }
            if (relu)
                acc = reluQ(d, acc);
            rt.logWrite(*conv_dst,
                        static_cast<u32>(oc * out_plane + p), acc);
            loopStep(d);
        };
        stages_.push_back(std::move(stage));
    } else if (auto *fc = std::get_if<DevDenseFc>(&layer.op)) {
        // Input-major per-tap iteration with memory accumulation
        // (Fig. 6's dot-product loop).
        const u32 m = fc->m;
        const u32 n = fc->n;
        TiledStage stage;
        stage.statLayer = layer.statLayer;
        stage.total = u64{m} * n;
        stage.body = [fc, src, conv_dst, m, n](Runtime &rt, u64 i) {
            Device &d = rt.dev();
            divmod(d);
            const u32 c = static_cast<u32>(i / m);
            const u32 r = static_cast<u32>(i % m);
            addr2(d);
            const i16 w = fc->w->read(u64{r} * n + c);
            const i16 x = src->read(c);
            i16 v = mulQ(d, w, x);
            d.consume(Op::Branch);
            if (c > 0)
                v = addQ(d, rt.logRead(*conv_dst, r), v);
            rt.logWrite(*conv_dst, r, v);
            loopStep(d);
        };
        stages_.push_back(std::move(stage));
        if (layer.reluAfter)
            reluStage(layer, conv_dst, m);
    } else if (auto *sfc = std::get_if<DevSparseFc>(&layer.op)) {
        // Zero init, then one iteration per stored weight.
        const u32 m = sfc->m;
        TiledStage zero;
        zero.statLayer = layer.statLayer;
        zero.total = m;
        zero.body = [conv_dst](Runtime &rt, u64 i) {
            rt.logWrite(*conv_dst, static_cast<u32>(i), 0);
            loopStep(rt.dev());
        };
        stages_.push_back(std::move(zero));

        TiledStage acc;
        acc.statLayer = layer.statLayer;
        acc.total = sfc->nnz;
        // The CSC column cursor is task-shared state, logged like
        // every other loop variable.
        auto col = std::make_shared<NvVar<i32>>(net_.dev(),
                                                layer.name + ".col", 0);
        colVars_.push_back(col);
        acc.body = [sfc, src, conv_dst, col](Runtime &rt, u64 i) {
            Device &d = rt.dev();
            u32 c = static_cast<u32>(rt.logRead(*col));
            while (static_cast<i32>(i) >= sfc->colPtr->read(c + 1)) {
                ++c;
                loopStep(d);
            }
            rt.logWrite(*col, static_cast<i32>(c));
            const u32 ti = static_cast<u32>(i);
            const i16 r = sfc->rowIdx->read(ti);
            const i16 w = sfc->val->read(ti);
            const i16 x = src->read(c);
            const i16 old = rt.logRead(*conv_dst, static_cast<u32>(r));
            rt.logWrite(*conv_dst, static_cast<u32>(r),
                        addQ(d, old, mulQ(d, w, x)));
            loopStep(d);
        };
        stages_.push_back(std::move(acc));
        // Reset the column cursor for the next inference.
        TiledStage reset;
        reset.statLayer = layer.statLayer;
        reset.total = 1;
        reset.body = [col](Runtime &rt, u64) {
            rt.logWrite(*col, 0);
        };
        stages_.push_back(std::move(reset));
        if (layer.reluAfter)
            reluStage(layer, conv_dst, m);
    }

    if (layer.poolAfter) {
        const dnn::ActShape pre = layer.out;
        const u32 oh = pre.h / 2;
        const u32 ow = pre.w / 2;
        const u64 out_plane = u64{oh} * ow;
        TiledStage stage;
        stage.statLayer = layer.statLayer;
        stage.total = u64{pre.c} * out_plane;
        NvArray<i16> *pool_src = conv_dst;
        NvArray<i16> *pool_dst = src;
        stage.body = [pool_src, pool_dst, pre, ow, out_plane](
                         Runtime &rt, u64 i) {
            Device &d = rt.dev();
            divmod(d);
            const u32 c = static_cast<u32>(i / out_plane);
            const u32 p = static_cast<u32>(i % out_plane);
            divmod(d);
            const u32 y = p / ow;
            const u32 x = p % ow;
            addr3(d);
            const u32 base = c * pre.h * pre.w + 2 * y * pre.w + 2 * x;
            i16 v = pool_src->read(base);
            v = maxQ(d, v, pool_src->read(base + 1));
            v = maxQ(d, v, pool_src->read(base + pre.w));
            v = maxQ(d, v, pool_src->read(base + pre.w + 1));
            rt.logWrite(*pool_dst, static_cast<u32>(i), v);
            loopStep(d);
        };
        stages_.push_back(std::move(stage));
    }
}

} // namespace

RunResult
runTiled(DeviceNetwork &net, u32 tile)
{
    SONIC_ASSERT(tile >= 1);
    TiledBuilder builder(net, tile);
    task::Program program;
    const TaskId entry = builder.lower(program);

    return runProgram(net, program, entry,
                      task::TransitionStyle::Alpaca);
}

} // namespace sonic::kernels
