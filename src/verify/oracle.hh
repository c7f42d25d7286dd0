/**
 * @file
 * The adversarial intermittence oracle.
 *
 * The paper's central claim — intermittent execution is
 * indistinguishable from continuous execution — is a differential
 * property, so the oracle checks it differentially: run a kernel under
 * an adversarial power-failure schedule, compare every observable
 * (completion, logits, reboot accounting, optionally the final FRAM
 * digest) against the continuous-power reference, and when a schedule
 * diverges, shrink it with delta debugging to a minimal failing
 * failure-index set that a human can replay in a unit test.
 *
 * Every run the oracle makes itself goes through one helper, observe():
 * it builds a device on the given supply with the given probe
 * attached, flashes the workload's image, runs the inference (or the
 * pipeline round around it) and fills the Observation. Runs differ
 * only in supply and probe: a SchedulePower with a reboot-digest probe
 * for judged runs, a commit or brown-out recorder for the schedule
 * generators, a trace recorder for divergence dumps. A workload lowers
 * its network to a FlashImage once and its copies share it; on the
 * engine path it views the zoo model's image. The judge is fed by:
 *  - the local path (verifyLocal), used by unit tests and the CLI's
 *    built-in platform-stable workload (verify/workload.hh);
 *  - the engine path (verifyWithEngine), which fans the schedule batch
 *    across app::Engine's worker pool via the SweepPlan failure-
 *    schedule axis — (kernel x network x schedule) coordinates in
 *    parallel.
 *
 * Implementations without the crashConsistent claim (Base) in the
 * kernel table cannot promise logit equality under failures; for them the oracle
 * checks deterministic replay instead: the same schedule twice must
 * produce bit-identical observables including the per-reboot NVM
 * digest chain.
 */

#ifndef SONIC_VERIFY_ORACLE_HH
#define SONIC_VERIFY_ORACLE_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/engine.hh"
#include "pipeline/pipeline.hh"
#include "verify/schedule.hh"

namespace sonic::verify
{

/** Everything the judge compares from one schedule run. */
struct Observation
{
    bool completed = false;
    bool nonTerminating = false;
    u64 reboots = 0;
    u64 fired = 0;       ///< schedule indices that actually failed a draw
    u64 draws = 0;       ///< schedule draw calls (local path only)
    u64 opInstances = 0; ///< total charged op instances
    u64 cycles = 0;      ///< device cycles (local path only)
    std::vector<i16> logits;
    u64 finalNvmDigest = 0;
    std::vector<u64> rebootDigests; ///< FRAM digest at each reboot

    /** @name Pipeline delivery accounting (pipeline runs only). */
    /// @{
    u64 delivered = 0;  ///< 1 iff the result was acknowledged
    u64 txAttempts = 0; ///< completed TX attempts, incl. the acked one
    u64 txRetries = 0;  ///< completed attempts without an ACK
    /// @}
};

/** Runs one schedule and observes it (the oracle's probe). */
using RunScheduleFn = std::function<Observation(const Schedule &)>;

/** A workload the local path can execute without the engine. */
struct LocalWorkload
{
    /** Lower `net` to its flash image once; copies share the image. */
    LocalWorkload(dnn::NetworkSpec net, std::vector<i16> input,
                  kernels::Impl impl);

    /** The engine path's workload: the zoo model's flash image and
     * its dataset's sample 0. */
    LocalWorkload(app::Engine &engine, const dnn::NetRef &net,
                  kernels::Impl impl);

    std::shared_ptr<const dnn::FlashImage> image;
    std::vector<i16> input; ///< raw Q7.8 input activations
    kernels::Impl impl;
    /** When set, each run is one round of this pipeline (sense,
     * infer, transmit) instead of the bare inference. */
    std::optional<pipeline::PipelineSpec> round;
};

/**
 * Run the workload once on a fresh device powered by `supply`, with
 * `probe` attached (null for none; it must outlive the call), and
 * observe it. The reboot digest chain is left empty: attach an
 * arch::RebootDigestProbe to capture it.
 */
Observation observe(const LocalWorkload &workload,
                    std::unique_ptr<arch::PowerSupply> supply,
                    arch::TraceProbe *probe = nullptr);

/** A RunScheduleFn over a local workload that captures the reboot
 * digest chain. */
RunScheduleFn localRunner(const LocalWorkload &workload);

/**
 * Record the draw coordinates of every commit in a continuous run:
 * each two-phase task commit of an inference, or each delivery
 * boundary (result commit, attempt advance, ACK commit) of a pipeline
 * round. These are the aim points of commit-targeted schedules;
 * total_draws (if non-null) receives the run's draw-call count — the
 * natural schedule horizon.
 */
std::vector<u64> recordCommitTrace(const LocalWorkload &workload,
                                   u64 *total_draws = nullptr);

/** Records the draw coordinate of every brown-out of an
 * env::HarvestSupply (where a real capacitor under that power trace
 * actually empties). */
struct BrownOutRecorder : arch::TraceProbe
{
    void onPowerFailure(const arch::Device &dev) override;

    std::vector<u64> failures;
};

/** Oracle judgment configuration. */
struct OracleOptions
{
    /**
     * Hold the kernel to the paper's property (complete + logits equal
     * to continuous). False selects the deterministic-replay check.
     */
    bool crashConsistent = true;

    /**
     * Additionally require the final FRAM digest to equal the
     * continuous reference's. Sound for kernels whose recovery
     * re-writes identical values everywhere (SONIC, Tile-k); not for
     * TAILS, whose calibrated LEA tile is legitimately a function of
     * the power system.
     */
    bool checkFinalNvmDigest = false;

    /**
     * Hold the delivery accounting (delivered / txAttempts /
     * txRetries) exactly equal to the continuous reference — the
     * no-lost-no-duplicated-deliveries property of pipeline runs.
     */
    bool checkDelivery = false;

    bool shrink = true;       ///< ddmin-shrink every divergent schedule
    u32 maxShrinkRuns = 256;  ///< probe budget per shrink
};

/** One schedule the kernel failed, plus its shrunk counterexample. */
struct Divergence
{
    Schedule schedule;
    Schedule shrunk; ///< minimal failing subset (== schedule if unshrunk)
    std::string reason;
    Observation observed; ///< observation of the shrunk schedule
    /** .sonictrace of the shrunk schedule's re-execution, written next
     * to the --artifact JSON (empty when no trace was dumped). */
    std::string tracePath;
};

/** Outcome of an oracle battery. */
struct OracleReport
{
    std::string impl;
    std::string workload;
    u64 schedulesRun = 0;
    u64 totalFired = 0;
    u64 totalReboots = 0;
    std::vector<Divergence> divergences;

    bool ok() const { return divergences.empty(); }
};

/**
 * Verify a workload on the local path against `schedules` schedules:
 * windows of the environment's brown-outs when one is given (it must
 * be intermittent), else the mixed uniform / bursty /
 * commit-targeted battery. crashConsistent and the final-digest rule
 * come from the kernel table; a pipeline round is also held
 * to exact delivery accounting.
 */
OracleReport verifyLocal(const LocalWorkload &workload, u32 schedules,
                         u64 seed, u32 max_failures = 8,
                         const env::EnvRef &environment = {});

/**
 * The oracle proper: judges observations against the continuous
 * reference and shrinks divergent schedules.
 */
class Oracle
{
  public:
    Oracle(RunScheduleFn run, OracleOptions options = {});

    /** The continuous-power reference (runs the empty schedule once). */
    const Observation &reference();

    /**
     * Judge one observation; nullopt means consistent. The empty
     * schedule is judged trivially consistent (it is the reference).
     */
    std::optional<std::string> judge(const Schedule &schedule,
                                     const Observation &observed);

    /** Run and judge a batch sequentially, shrinking divergences. */
    OracleReport verify(const std::vector<Schedule> &schedules);

    /**
     * Judge pre-computed observations (the engine path runs them in
     * parallel first), shrinking divergences via the probe function.
     * A kernel held to deterministic replay compares each observation
     * with replayed[i], a second run of the same schedule; a
     * crash-consistent kernel ignores replayed.
     */
    OracleReport judgeBatch(const std::vector<Schedule> &schedules,
                            const std::vector<Observation> &observed,
                            const std::vector<Observation> &replayed);

    /**
     * Delta-debug a failing schedule to a minimal failing subset:
     * every index can be removed only at the cost of the divergence
     * disappearing (1-minimality, up to the probe budget).
     */
    Schedule shrink(const Schedule &schedule);

  private:
    /** Deterministic-replay judgment for non-crash-consistent impls. */
    std::optional<std::string>
    judgeReplay(const Observation &first, const Observation &second);

    RunScheduleFn run_;
    OracleOptions options_;
    bool haveReference_ = false;
    Observation reference_;
};

/** Engine-path configuration. */
struct EngineOracleConfig
{
    dnn::NetRef net = "HAR"; ///< any registered zoo model
    kernels::Impl impl = kernels::Impl::Sonic;
    u32 schedules = 200;
    u64 seed = 1;
    u32 maxFailures = 8;
    bool shrink = true;

    /**
     * When non-empty, fuzz with realistic schedules recorded under
     * this registered environment (environmentSchedules) instead of
     * the synthetic mixed battery. The capacitor override of the
     * EnvRef applies; the environment must be intermittent.
     */
    env::EnvRef environment;
};

/**
 * Verify one (kernel, network) coordinate against `schedules` mixed
 * adversarial schedules, fanned across the engine's worker pool via
 * the SweepPlan failure-schedule axis. crashConsistent is taken from
 * the kernel table.
 */
OracleReport verifyWithEngine(app::Engine &engine,
                              const EngineOracleConfig &config);

/** Write a report as one JSON object whose lines are indented past
 * `indent` (sonic_oracle --artifact writes an array of them). */
void writeReportJson(json::Writer &w, const OracleReport &report,
                     u32 indent);

/** One report as a JSON document. */
std::string reportJson(const OracleReport &report);

/**
 * Re-execute one schedule of a workload with a trace recorder attached
 * and write the event trace as a .sonictrace file: every reboot,
 * lease, task commit, delivery boundary and layer switch of the
 * minimal failing run, ready for `sonic_trace --export=chrome`. The
 * probe adds no charged operations, so the traced run is the judged
 * one.
 */
bool dumpScheduleTrace(const LocalWorkload &workload,
                       const Schedule &schedule,
                       const std::string &path, std::string *error);

/** @name Golden digest files */
/// @{

struct GoldenConfig
{
    u64 netSeed = 0x601d;       ///< goldenNet weight seed
    u64 scheduleSeed = 0xd16e57; ///< fixed-schedule seed
    u32 schedulesPerImpl = 3;
    u32 maxFailures = 6;
};

/**
 * Render the golden digest report for every implementation in the
 * kernel table on the platform-stable golden workload: continuous logits, cycle and
 * op-instance totals, the final FRAM digest, per-layer op digests, and
 * for crash-consistent kernels the full per-reboot digest chain of a
 * fixed set of seeded schedules. Byte-stable across hosts, so
 * verification is an exact string comparison against the committed
 * file (tests/golden/) — any intermittent-semantics regression is one
 * diff away.
 */
std::string goldenJson(const GoldenConfig &config = {});
/// @}

} // namespace sonic::verify

#endif // SONIC_VERIFY_ORACLE_HH
