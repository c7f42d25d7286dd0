#include "pipeline/pipeline.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "arch/memory.hh"
#include "task/runtime.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace sonic::pipeline
{

namespace
{

void
notifyBoundary(arch::Device &dev, TxBoundary boundary)
{
    if (auto *p = dev.probe())
        p->onInstant(dev, arch::ProbeInstant::TxBoundary,
                     static_cast<u32>(boundary));
}

/**
 * Emits a span-begin now and the matching end on scope exit, so a
 * PowerFailure unwinding out of a stage still leaves balanced spans
 * (the re-executed stage opens a fresh one).
 */
class SpanGuard
{
  public:
    SpanGuard(arch::Device &dev, arch::ProbeSpan span, u32 arg)
        : dev_(dev), span_(span), arg_(arg)
    {
        if (auto *p = dev_.probe())
            p->onSpanBegin(dev_, span_, arg_);
    }

    ~SpanGuard()
    {
        if (auto *p = dev_.probe())
            p->onSpanEnd(dev_, span_, arg_, dev_.consumedJoules());
    }

    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    arch::Device &dev_;
    arch::ProbeSpan span_;
    u32 arg_;
};

/**
 * The per-round FRAM journal. Constructed fresh for each round (a
 * round is one delivered sample, the natural idempotence unit); every
 * member is a single word, so each write is all-or-nothing under the
 * NvVar charge-before-assign contract.
 */
struct Journal
{
    explicit Journal(arch::Device &dev)
        : senseIdx(dev, "pipe.senseIdx", 0),
          inferStarted(dev, "pipe.inferStarted", 0),
          committed(dev, "pipe.committed", -1),
          acked(dev, "pipe.acked", 0),
          attempts(dev, "pipe.attempts", 0)
    {
    }

    arch::NvVar<i16> senseIdx;     ///< next un-acquired sense chunk
    arch::NvVar<i16> inferStarted; ///< inference may have clobbered acts
    arch::NvVar<i16> committed;    ///< -1, or the class in the TX buffer
    arch::NvVar<i16> acked;        ///< 1 once the uplink acknowledged
    arch::NvVar<i16> attempts;     ///< completed un-acknowledged attempts
};

/** Uncharged digest of the journal, the driver's progress measure. */
u64
journalProgress(const Journal &j)
{
    u64 h = mix64(static_cast<u64>(static_cast<u16>(j.senseIdx.peek())));
    h = mix64(h ^ static_cast<u16>(j.inferStarted.peek()));
    h = mix64(h ^ static_cast<u16>(j.committed.peek()));
    h = mix64(h ^ static_cast<u16>(j.acked.peek()));
    h = mix64(h ^ static_cast<u16>(j.attempts.peek()));
    return h;
}

/**
 * Whether attempt `attempt` of round `round_index` is acknowledged — a
 * pure function of its coordinates, so an attempt interrupted by a
 * brown-out re-executes with the identical outcome and delivery
 * accounting matches the continuous reference exactly.
 */
bool
ackArrives(const RadioConfig &radio, u64 seed, u64 round_index,
           u32 attempt)
{
    if (radio.ackLossProbability <= 0.0)
        return true;
    if (radio.ackLossProbability >= 1.0)
        return false;
    const u64 h =
        mix64(mix64(seed ^ 0xacced5a1u) ^
              (round_index * 0x9e3779b97f4a7c15ull) ^ attempt);
    const f64 u = static_cast<f64>(h >> 11) * 0x1.0p-53;
    return u >= radio.ackLossProbability;
}

i16
argmaxClass(const std::vector<i16> &logits)
{
    SONIC_ASSERT(!logits.empty(), "argmax of empty logits");
    u32 best = 0;
    for (u32 i = 1; i < logits.size(); ++i)
        if (logits[i] > logits[best])
            best = i;
    return static_cast<i16>(best);
}

/**
 * Acquire the input sample chunk by chunk. Each chunk charges
 * Op::SenseSample per element, lands in the kernel's input activation
 * buffer via an all-or-nothing writeRange, and then advances the
 * journaled cursor — so a brown-out mid-sample resumes at the first
 * un-acquired chunk instead of restarting the whole sample.
 */
void
senseStage(dnn::DeviceNetwork &net, Journal &j,
           const std::vector<i16> &input, const SenseConfig &sense,
           u16 layer)
{
    arch::Device &dev = net.dev();
    arch::ScopedLayer attribution(dev, layer);
    SpanGuard span(dev, arch::ProbeSpan::Sense, 0);
    arch::NvArray<i16> &buf = net.act(net.inputBufferOf(0));
    const u64 total = input.size();
    const u64 chunk = std::max<u32>(1, sense.chunkElements);
    const u64 chunks = (total + chunk - 1) / chunk;
    for (;;) {
        const u64 idx = static_cast<u16>(j.senseIdx.read());
        if (idx >= chunks)
            return;
        const u64 base = idx * chunk;
        const u64 n = std::min(chunk, total - base);
        dev.consume(arch::Op::SenseSample, n);
        buf.writeRange(base, n, input.data() + base);
        j.senseIdx.write(static_cast<i16>(idx + 1));
    }
}

/**
 * Transmit the committed result until acknowledged or out of attempts.
 * One attempt = wake, chunked payload bytes, ACK listen; only the
 * journal writes after a completed attempt (acked / attempts) are
 * delivery-visible, so a brown-out anywhere inside an attempt simply
 * re-executes it with the same deterministic outcome.
 */
void
transmitStage(arch::Device &dev, Journal &j, const RadioConfig &radio,
              u64 seed, u64 round_index, RoundOutcome &out, u16 layer)
{
    arch::ScopedLayer attribution(dev, layer);
    SpanGuard span(dev, arch::ProbeSpan::Transmit, 0);
    for (;;) {
        if (j.acked.read() != 0)
            return;
        const u32 a = static_cast<u16>(j.attempts.read());
        if (a >= radio.maxAttempts) {
            out.txGaveUp = true;
            return;
        }
        dev.consume(arch::Op::RadioWake);
        const u32 chunk = std::max<u32>(1, radio.chunkBytes);
        for (u32 sent = 0; sent < radio.payloadBytes;) {
            const u32 n = std::min(chunk, radio.payloadBytes - sent);
            dev.consume(arch::Op::RadioTxByte, n);
            sent += n;
        }
        dev.consume(arch::Op::RadioRxAck);
        if (ackArrives(radio, seed, round_index, a)) {
            notifyBoundary(dev, TxBoundary::AckCommit);
            if (auto *p = dev.probe())
                p->onInstant(dev, arch::ProbeInstant::AckDelivered, a);
            j.acked.write(1);
        } else {
            notifyBoundary(dev, TxBoundary::AttemptAdvance);
            j.attempts.write(static_cast<i16>(a + 1));
            out.backoffSeconds +=
                radio.backoffSeconds *
                std::pow(radio.backoffMultiplier, static_cast<f64>(a));
        }
    }
}

} // namespace

u64
RoundOutcome::logitsDigest() const
{
    // FNV-1a over the element count and the raw i16 values: the flat
    // scalar the fleet round cache stores and cross-checks.
    u64 h = 0xcbf29ce484222325ull;
    const auto fold = [&h](u64 v) {
        for (u32 byte = 0; byte < 8; ++byte) {
            h ^= (v >> (byte * 8)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    fold(logits.size());
    for (const i16 v : logits)
        fold(static_cast<u64>(static_cast<u16>(v)));
    return h;
}

f64
attemptEnergyJ(const RadioConfig &radio, const arch::EnergyProfile &profile)
{
    f64 nj = profile.nanojoules(arch::Op::RadioWake) +
             profile.nanojoules(arch::Op::RadioRxAck) +
             static_cast<f64>(radio.payloadBytes) *
                 profile.nanojoules(arch::Op::RadioTxByte);
    return nj * 1e-9;
}

RoundOutcome
runRound(dnn::DeviceNetwork &net, kernels::Impl impl,
         const std::vector<i16> &input, const PipelineSpec &spec,
         u64 seed, u64 round_index)
{
    arch::Device &dev = net.dev();
    RoundOutcome out;
    SpanGuard round_span(dev, arch::ProbeSpan::Round,
                         static_cast<u32>(round_index));

    // A bare-inference pipeline is exactly the pre-pipeline execution
    // path: no journal, no extra charged ops.
    if (spec.inferOnly()) {
        net.loadInput(input);
        const auto run = kernels::runInference(net, impl);
        out.completed = run.completed;
        out.nonTerminating = run.nonTerminating;
        out.reboots = run.reboots;
        out.logits = run.logits;
        if (run.completed)
            out.resultClass = argmaxClass(run.logits);
        return out;
    }

    const u16 senseLayer = dev.registerLayer("sense");
    const u16 radioLayer = dev.registerLayer("radio");
    Journal j(dev);

    u64 fails_since_progress = 0;
    bool restart_phase_a = false;
    for (;;) {
        const u64 progress_before = journalProgress(j);
        try {
            if (j.committed.read() < 0) {
                if (restart_phase_a) {
                    // A failure struck after inference may have begun
                    // but before the result committed: the ping-pong
                    // activation buffers are clobbered, so the only
                    // correct recovery is to re-sense and re-infer
                    // (deterministic, hence the same class).
                    j.senseIdx.write(0);
                    j.inferStarted.write(0);
                    restart_phase_a = false;
                }
                if (spec.sense.enabled)
                    senseStage(net, j, input, spec.sense, senseLayer);
                else
                    net.loadInput(input);
                j.inferStarted.write(1);
                const auto run = kernels::runInference(net, impl);
                out.reboots += run.reboots;
                if (!run.completed) {
                    out.nonTerminating = run.nonTerminating;
                    return out;
                }
                out.logits = run.logits;
                const i16 cls = argmaxClass(run.logits);
                notifyBoundary(dev, TxBoundary::ResultCommit);
                j.committed.write(cls);
            }
            out.resultClass = j.committed.read();
            if (spec.radio.enabled)
                transmitStage(dev, j, spec.radio, seed, round_index,
                              out, radioLayer);
            out.completed = true;
            out.delivered = j.acked.peek() != 0;
            out.txFailedAttempts = static_cast<u16>(j.attempts.peek());
            out.txAttempts =
                out.txFailedAttempts + (out.delivered ? 1u : 0u);
            return out;
        } catch (const arch::PowerFailure &) {
            dev.reboot();
            ++out.reboots;
            if (j.committed.peek() < 0 && j.inferStarted.peek() != 0)
                restart_phase_a = true;
            if (journalProgress(j) != progress_before)
                fails_since_progress = 0;
            else
                ++fails_since_progress;
            if (fails_since_progress > task::kMaxFailuresWithoutProgress) {
                out.nonTerminating = true;
                return out;
            }
        }
    }
}

namespace
{

/** The pipelines, in list order. */
std::span<const PipelineSpec>
specs()
{
    static const PipelineSpec list[] = {
        {.name = "infer-only",
         .description = "bare inference, no sense or radio stages",
         .sense = {},
         .radio = {}},
        {.name = "wildlife",
         .description = "sense a full sample, infer, radio the class on "
                        "a lossless link",
         .sense = {.enabled = true},
         .radio = {.enabled = true,
                   .payloadBytes = 8,
                   .chunkBytes = 4,
                   .maxAttempts = 4}},
        {.name = "sense-infer",
         .description = "sense a full sample and infer; result stays local",
         .sense = {.enabled = true},
         .radio = {}},
        {.name = "result-tx",
         .description = "infer a flashed sample and radio the class",
         .sense = {},
         .radio = {.enabled = true,
                   .payloadBytes = 8,
                   .chunkBytes = 4,
                   .maxAttempts = 4}},
        {.name = "lossy-uplink",
         .description = "sense + infer + radio on a lossy link (25% ACK "
                        "loss, 6 attempts, exponential backoff)",
         .sense = {.enabled = true},
         .radio = {.enabled = true,
                   .payloadBytes = 8,
                   .chunkBytes = 4,
                   .maxAttempts = 6,
                   .ackLossProbability = 0.25}},
    };
    return list;
}

const PipelineSpec *
find(std::string_view name)
{
    for (const PipelineSpec &spec : specs())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

} // namespace

bool
contains(std::string_view name)
{
    return find(name) != nullptr;
}

const PipelineSpec &
get(std::string_view name)
{
    if (const PipelineSpec *spec = find(name))
        return *spec;
    std::string list;
    for (const PipelineSpec &spec : specs())
        list += (list.empty() ? "" : ", ") + spec.name;
    fatal("unknown pipeline '", name, "'; registered pipelines: ", list);
}

std::vector<std::string>
names()
{
    std::vector<std::string> out;
    for (const PipelineSpec &spec : specs())
        out.push_back(spec.name);
    return out;
}

std::string
availableList()
{
    std::string out;
    for (const PipelineSpec &spec : specs())
        out += "  " + spec.name + " - " + spec.description + "\n";
    return out;
}

} // namespace sonic::pipeline
