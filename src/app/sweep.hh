/**
 * @file
 * Declarative experiment grids. A SweepPlan names the axes of a
 * cross-product sweep — workloads, implementations, power
 * environments, energy-profile ablations, input samples — and expands
 * to the ordered RunSpec list the Engine executes:
 *
 *     app::SweepPlan plan;
 *     plan.allNets().allImpls().environmentLabels({"rf-paper@100uF"});
 *     app::Engine engine;
 *     const auto records = engine.run(plan);
 *
 * Expansion order is fixed and documented (nets outermost, then
 * impls, environments, profiles, samples, failure schedules
 * innermost) so figure code can rely on record ordering, and each
 * expanded spec gets a deterministic seed derived from the plan's base
 * seed and the spec's coordinates — independent of plan shape and of
 * how many worker threads run it. (Seeds are recorded into every spec
 * and streamed by the sinks; an environment uses its seed only to
 * pick the deployment phase, and the workloads are deterministic.)
 */

#ifndef SONIC_APP_SWEEP_HH
#define SONIC_APP_SWEEP_HH

#include <string>
#include <vector>

#include "app/experiment.hh"

namespace sonic::app
{

/** Builder for a cross-product grid of RunSpecs. */
class SweepPlan
{
  public:
    /** @name Axis setters (each replaces the axis; default = the
     * RunSpec default as a single point). An empty axis is a fatal
     * configuration error. */
    /// @{
    /**
     * Workloads by registered model name. Every name is validated
     * against the ModelZoo here, at plan-build time: an unknown name
     * is a fatal configuration error reporting the available models.
     */
    SweepPlan &nets(std::vector<dnn::NetRef> values);
    /** The paper's three workloads (dnn::kPaperNets). */
    SweepPlan &allNets();

    SweepPlan &impls(std::vector<kernels::Impl> values);
    /** Lookup implementations by registry name; unknown names are a
     * fatal configuration error. */
    SweepPlan &implNames(const std::vector<std::string> &names);
    /** The paper's six implementations (kAllImpls). */
    SweepPlan &allImpls();

    /**
     * Power-supply axis. Each value names a registered environment
     * (env::EnvRegistry) with an optional capacitor-size override;
     * names are validated here, at plan-build time. The empty EnvRef
     * (the default single point) is continuous wall power and keeps
     * the seeds plans had before the axis existed; the paper's
     * capacitors are rf-paper@50mF, rf-paper@1mF and rf-paper@100uF.
     */
    SweepPlan &environments(std::vector<env::EnvRef> values);
    /** Environments by label ("solar", "rf-paper@50mF"); bad labels
     * and unknown names are fatal configuration errors. */
    SweepPlan &environmentLabels(const std::vector<std::string> &labels);

    SweepPlan &profiles(std::vector<ProfileVariant> values);

    /** Sample indices 0..n-1 (n = 0 is fatal). */
    SweepPlan &samples(u32 n);
    SweepPlan &sampleIndices(std::vector<u32> values);

    /**
     * Failure-schedule axis (innermost). Each value is an explicit
     * draw-index trace executed under arch::SchedulePower; the empty
     * schedule (the default single point) means "use the environment
     * axis".
     */
    SweepPlan &failureSchedules(std::vector<std::vector<u64>> values);
    /// @}

    /** Capture per-reboot/final NVM digests on every expanded spec. */
    SweepPlan &captureNvmDigests(bool enabled);

    /**
     * Base seed mixed into every expanded spec's seed (recorded
     * metadata — see the file comment; it does not change today's
     * deterministic results).
     */
    SweepPlan &baseSeed(u64 seed);

    /** Number of specs the plan expands to. */
    u64 size() const;

    /**
     * Expand the cross product in the documented order, assigning
     * each spec its deterministic per-coordinate seed.
     */
    std::vector<RunSpec> expand() const;

    /** @name Axis inspection (used by the engine and tests). */
    /// @{
    const std::vector<dnn::NetRef> &netAxis() const { return nets_; }
    const std::vector<kernels::Impl> &implAxis() const { return impls_; }
    const std::vector<env::EnvRef> &environmentAxis() const
    {
        return environments_;
    }
    /// @}

    /**
     * The seed an expanded spec receives: a splitmix64 mix of the
     * base seed and the spec coordinates. Exposed so tests can check
     * shape-independence.
     */
    static u64 specSeed(u64 baseSeed, const RunSpec &spec);

  private:
    std::vector<dnn::NetRef> nets_{"MNIST"};
    std::vector<kernels::Impl> impls_{kernels::Impl::Sonic};
    std::vector<env::EnvRef> environments_{{}};
    std::vector<ProfileVariant> profiles_{ProfileVariant::Standard};
    std::vector<u32> samples_{0};
    std::vector<std::vector<u64>> schedules_{{}};
    bool captureNvmDigests_ = false;
    u64 baseSeed_ = 0x5eed;
};

} // namespace sonic::app

#endif // SONIC_APP_SWEEP_HH
