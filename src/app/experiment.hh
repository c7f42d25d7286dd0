/**
 * @file
 * The experiment vocabulary shared by the sweep engine, the benchmark
 * binaries, the test suite, and the examples: what one run is (RunSpec)
 * and what it measures (ExperimentResult — the live/dead/energy
 * breakdowns the paper's figures need).
 *
 * Execution lives in the Engine (app/engine.hh): single runs via
 * Engine::runOne, grids via SweepPlan + Engine::run.
 */

#ifndef SONIC_APP_EXPERIMENT_HH
#define SONIC_APP_EXPERIMENT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/device.hh"
#include "dnn/dataset.hh"
#include "dnn/zoo.hh"
#include "env/environment.hh"
#include "kernels/runner.hh"
#include "util/types.hh"

namespace sonic::app
{

/** Energy-profile ablations (Sec. 9.1's LEA/DMA software emulation). */
enum class ProfileVariant : u8
{
    Standard,
    NoLea,
    NoDma
};

inline constexpr ProfileVariant kAllProfiles[] = {
    ProfileVariant::Standard, ProfileVariant::NoLea,
    ProfileVariant::NoDma};

const char *profileName(ProfileVariant variant);

/** Inverse of profileName (telemetry decode); false if unknown. */
bool profileFromName(const std::string &name, ProfileVariant *out);

/** One experiment specification. */
struct RunSpec
{
    /** Registered model name, resolved through dnn::ModelZoo. */
    dnn::NetRef net = "MNIST";
    kernels::Impl impl = kernels::Impl::Sonic;
    ProfileVariant profile = ProfileVariant::Standard;
    u32 sampleIndex = 0;
    /**
     * Per-run seed, assigned deterministically by SweepPlan::expand
     * and recorded by every sink. The environment uses it to pick the
     * deployment phase (env::EnvRegistry::make); the workloads are
     * deterministic and do not consume it.
     */
    u64 seed = 0x5eed;

    /**
     * The supply: a registered env::EnvRegistry environment, seeded
     * with this spec's `seed` and honoring the capacitor override
     * (the paper's capacitors are "rf-paper@50mF|1mF|100uF"). The
     * empty EnvRef (the default) is continuous wall power.
     */
    env::EnvRef environment;

    /**
     * Explicit failure-index trace. When non-empty the run is powered
     * by arch::SchedulePower over these draw indices and `environment`
     * is ignored.
     */
    std::vector<u64> failureSchedule;

    /**
     * Snapshot the FRAM digest at every reboot boundary and at run
     * end (ExperimentResult::rebootDigests / finalNvmDigest). Off by
     * default: a capacitor run can reboot hundreds of thousands of
     * times, and each digest walks every FRAM region the run can
     * write (the read-only weights fold in one step each).
     */
    bool captureNvmDigests = false;
};

/** Per-layer timing/energy breakdown row. */
struct LayerBreakdown
{
    std::string name;
    f64 kernelSeconds = 0.0;
    f64 controlSeconds = 0.0;
    f64 energyJ = 0.0;
};

/** Everything a figure needs from one run. */
struct ExperimentResult
{
    bool completed = false;
    bool nonTerminating = false;
    u64 reboots = 0;
    u64 tasksExecuted = 0;

    f64 liveSeconds = 0.0;
    f64 deadSeconds = 0.0;
    f64 totalSeconds = 0.0;
    f64 energyJ = 0.0;    ///< total consumed (includes re-execution)
    f64 harvestedJ = 0.0;

    std::vector<LayerBreakdown> layers;
    std::map<std::string, f64> energyByOp; ///< op name -> Joules

    std::vector<i16> logits;
    u32 predictedClass = 0;
    u32 tailsTileWords = 0; ///< TAILS' calibrated LEA tile (0 if n/a)

    /** @name Observables of RunSpec::failureSchedule runs */
    /// @{
    u64 scheduleFired = 0; ///< scheduled failure indices that fired
    u64 opInstances = 0;   ///< total charged op instances (all kinds)
    u64 finalNvmDigest = 0; ///< FRAM digest at run end (capture only)
    std::vector<u64> rebootDigests; ///< FRAM digest per reboot (capture)
    /// @}

    /** "ok", "dnf" or "fail". */
    const char *
    status() const
    {
        return completed ? "ok" : (nonTerminating ? "dnf" : "fail");
    }
};

/**
 * Build the supply a spec runs under: the failure schedule when one
 * is set, else the environment.
 */
std::unique_ptr<arch::PowerSupply> makeSupply(const RunSpec &spec);

/** Build the energy profile for an ablation variant. */
arch::EnergyProfile makeProfile(ProfileVariant variant);

} // namespace sonic::app

#endif // SONIC_APP_EXPERIMENT_HH
