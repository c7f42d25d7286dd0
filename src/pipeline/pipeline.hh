/**
 * @file
 * Sense-infer-transmit pipelines.
 *
 * The paper's motivating deployments (Sec. 2's wildlife camera) never
 * run inference alone: a device samples a sensor, infers, and radios
 * the answer off-device. This subsystem makes that whole loop a
 * first-class workload, addressed by name — a PipelineSpec names
 * which stages surround the inference kernel and how they are costed:
 *
 *  - sense:    acquires the input sample chunk by chunk, charging
 *    Op::SenseSample per element through the normal lease protocol and
 *    journaling a chunk cursor in FRAM, so a brown-out mid-sample
 *    resumes at the next un-acquired chunk;
 *  - infer:    the existing kernels::runInference (SONIC/TAILS/...),
 *    untouched;
 *  - transmit: a radio model with payload-size-proportional draw
 *    (Op::RadioWake / RadioTxByte / RadioRxAck), a bounded
 *    retry/backoff policy, and an idempotent two-phase delivery
 *    boundary in FRAM: "result committed to the TX buffer" and
 *    "result acknowledged" are each a single-word atomic NvVar write,
 *    so a reboot mid-transmission either retries or skips — it can
 *    never double-send or silently drop a result.
 *
 * The round driver (runRound) mirrors task::Scheduler::run: it catches
 * arch::PowerFailure, reboots the device, and resumes from the FRAM
 * journal. All retry/ack randomness is a pure function of (seed, round,
 * attempt), so an attempt interrupted by a brown-out re-executes with
 * the identical outcome and the delivered-results accounting of an
 * intermittent run is bit-identical to the continuous reference — the
 * differential property the oracle's TX-boundary schedules verify.
 */

#ifndef SONIC_PIPELINE_PIPELINE_HH
#define SONIC_PIPELINE_PIPELINE_HH

#include <string>
#include <string_view>
#include <vector>

#include "arch/device.hh"
#include "dnn/device_net.hh"
#include "kernels/runner.hh"

namespace sonic::pipeline
{

/** Sense-stage configuration (disabled: input is flashed uncharged). */
struct SenseConfig
{
    bool enabled = false;

    /** Elements acquired per journaled chunk (the restart granule). */
    u32 chunkElements = 64;
};

/** Transmit-stage configuration (disabled: the result stays local). */
struct RadioConfig
{
    bool enabled = false;

    /** Bytes of payload per TX attempt (result packets are small). */
    u32 payloadBytes = 4;

    /** Bytes charged per RadioTxByte consume call. */
    u32 chunkBytes = 4;

    /** Total TX attempts before the round gives up on delivery. */
    u32 maxAttempts = 4;

    /** Probability one attempt's acknowledgment is lost. */
    f64 ackLossProbability = 0.0;

    /** Exponential backoff between attempts (wall-clock accounting). */
    f64 backoffSeconds = 0.5;
    f64 backoffMultiplier = 2.0;
};

/** A named sense-infer-transmit pipeline. */
struct PipelineSpec
{
    std::string name;
    std::string description;
    SenseConfig sense;
    RadioConfig radio;

    /** Pure inference, identical to the pre-pipeline execution path. */
    bool inferOnly() const { return !sense.enabled && !radio.enabled; }
};

/**
 * Energy of one complete TX attempt (wake + chunked payload + ACK
 * listen) under a profile, in joules. The analytical benches (Fig. 1/2)
 * use this instead of hand-rolled send-energy constants.
 */
f64 attemptEnergyJ(const RadioConfig &radio,
                   const arch::EnergyProfile &profile);

/**
 * Whether a pipeline has this name. The pipelines are one constant
 * list, in this order:
 *
 *  - "infer-only":   no sense, no radio (the FleetPlan default);
 *  - "wildlife":     sense + result TX on a lossless link;
 *  - "sense-infer":  sense only;
 *  - "result-tx":    result TX only;
 *  - "lossy-uplink": sense + result TX with 25% ACK loss and retries.
 */
bool contains(std::string_view name);

/** Lookup by name; an unknown name is fatal, listing the five. */
const PipelineSpec &get(std::string_view name);

/** The pipeline names, in list order. */
std::vector<std::string> names();

/** One-per-line "name - description" list (CLI help). */
std::string availableList();

/**
 * What one pipeline round observed (the fleet/oracle surface).
 *
 * The struct is cache-serializable: every field is either a scalar or
 * reducible to one through logitsDigest(), so the fleet round cache
 * (src/fleet/round_cache.hh) can store an outcome as a flat
 * clock-independent trace and replay it for every device that shares
 * the same (net, impl, pipeline, capacitor, input) coordinate.
 */
struct RoundOutcome
{
    /** The round ran to the end of its stage list. */
    bool completed = false;

    /** The driver or kernel stopped making progress (DNF). */
    bool nonTerminating = false;

    /** The result was acknowledged by the uplink. */
    bool delivered = false;

    /** The radio exhausted maxAttempts without an acknowledgment. */
    bool txGaveUp = false;

    u64 reboots = 0;

    /** Completed TX attempts, including the acknowledged one. */
    u32 txAttempts = 0;

    /** Completed TX attempts that ended without an acknowledgment. */
    u32 txFailedAttempts = 0;

    /** Wall-clock spent in retry backoff (not device live time). */
    f64 backoffSeconds = 0.0;

    std::vector<i16> logits;

    /** argmax of the logits; -1 until inference commits. */
    i16 resultClass = -1;

    /**
     * FNV-1a digest of the logits (and their count): the scalar stand-
     * in the round cache stores and cross-checks instead of the vector.
     */
    u64 logitsDigest() const;
};

/**
 * True when the round outcome cannot depend on (seed, round index):
 * the radio is off, or the ACK-loss draw is degenerate (p <= 0 always
 * acknowledges, p >= 1 never does). This is the soundness gate for
 * sharing one memoized round trace across devices with different
 * seeds — a genuinely lossy link re-randomizes per round and must run
 * unmemoized.
 */
inline bool
ackInvariant(const PipelineSpec &spec)
{
    return !spec.radio.enabled || spec.radio.ackLossProbability <= 0.0
        || spec.radio.ackLossProbability >= 1.0;
}

/**
 * Run one sense-infer-transmit round on a freshly prepared device.
 * `input` is the quantized Q7.8 sample in device order; `seed` and
 * `round_index` parameterize the deterministic ACK-loss draw. The
 * caller owns device/power lifetime; the journal NvVars live only for
 * the duration of the call. PowerFailure never escapes.
 */
RoundOutcome runRound(dnn::DeviceNetwork &net, kernels::Impl impl,
                      const std::vector<i16> &input,
                      const PipelineSpec &spec, u64 seed,
                      u64 round_index);

/**
 * The delivery boundaries, reported as arch::ProbeInstant::TxBoundary
 * (arg = the boundary) immediately before each delivery-boundary
 * NvVar write — the pipeline analogue of the task layer's TaskCommit
 * instant. The oracle records them with a probe to aim
 * commit-targeted schedules at the delivery atomicity surface.
 */
enum class TxBoundary : u8
{
    ResultCommit,   ///< just before the committed-class NvVar write
    AttemptAdvance, ///< just before the failed-attempt-count write
    AckCommit       ///< just before the acknowledged-flag write
};

} // namespace sonic::pipeline

#endif // SONIC_PIPELINE_PIPELINE_HH
