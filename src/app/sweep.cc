#include "app/sweep.hh"

#include <cstring>

#include "util/logging.hh"
#include "util/rng.hh"

namespace sonic::app
{

namespace
{

/** FNV-1a over the model name: the net coordinate for seeding. */
u64
nameHash(const std::string &name)
{
    return fnv1a(name);
}

} // namespace

SweepPlan &
SweepPlan::nets(std::vector<dnn::NetRef> values)
{
    if (values.empty())
        fatal("empty net axis");
    // Validate at plan-build, not mid-sweep: a typo should fail before
    // any worker thread spins up, with the remedy in the message.
    auto &zoo = dnn::ModelZoo::instance();
    for (const auto &name : values) {
        if (!zoo.contains(name))
            fatal("unknown model '", name,
                  "' in the sweep net axis; registered models: ",
                  zoo.availableList());
    }
    nets_ = std::move(values);
    return *this;
}

SweepPlan &
SweepPlan::allNets()
{
    return nets({std::begin(dnn::kPaperNets), std::end(dnn::kPaperNets)});
}

SweepPlan &
SweepPlan::impls(std::vector<kernels::Impl> values)
{
    if (values.empty())
        fatal("empty impl axis");
    impls_ = std::move(values);
    return *this;
}

SweepPlan &
SweepPlan::implNames(const std::vector<std::string> &names)
{
    std::vector<kernels::Impl> ids;
    ids.reserve(names.size());
    for (const auto &name : names)
        ids.push_back(kernels::implByName(name));
    return impls(std::move(ids));
}

SweepPlan &
SweepPlan::allImpls()
{
    return impls({std::begin(kernels::kAllImpls),
                  std::end(kernels::kAllImpls)});
}

SweepPlan &
SweepPlan::environments(std::vector<env::EnvRef> values)
{
    if (values.empty())
        fatal("empty environment axis");
    // Validate at plan-build: a typo should fail before any worker
    // spins up, naming the registered environments.
    auto &registry = env::EnvRegistry::instance();
    for (const auto &ref : values) {
        if (!ref.empty() && !registry.contains(ref.env))
            fatal("unknown environment '", ref.env,
                  "' in the sweep environment axis; registered "
                  "environments: ",
                  registry.availableList());
    }
    environments_ = std::move(values);
    return *this;
}

SweepPlan &
SweepPlan::environmentLabels(const std::vector<std::string> &labels)
{
    std::vector<env::EnvRef> refs;
    refs.reserve(labels.size());
    for (const auto &label : labels) {
        env::EnvRef ref;
        std::string error;
        if (!env::parseEnvRef(label, &ref, &error))
            fatal(error);
        refs.push_back(std::move(ref));
    }
    return environments(std::move(refs));
}

SweepPlan &
SweepPlan::profiles(std::vector<ProfileVariant> values)
{
    if (values.empty())
        fatal("empty profile axis");
    profiles_ = std::move(values);
    return *this;
}

SweepPlan &
SweepPlan::samples(u32 n)
{
    if (n == 0)
        fatal("samples(n) needs n > 0");
    std::vector<u32> indices(n);
    for (u32 i = 0; i < n; ++i)
        indices[i] = i;
    return sampleIndices(std::move(indices));
}

SweepPlan &
SweepPlan::sampleIndices(std::vector<u32> values)
{
    if (values.empty())
        fatal("empty sample axis");
    samples_ = std::move(values);
    return *this;
}

SweepPlan &
SweepPlan::captureNvmDigests(bool enabled)
{
    captureNvmDigests_ = enabled;
    return *this;
}

SweepPlan &
SweepPlan::baseSeed(u64 seed)
{
    baseSeed_ = seed;
    return *this;
}

u64
SweepPlan::size() const
{
    return static_cast<u64>(nets_.size()) * impls_.size()
         * environments_.size() * profiles_.size() * samples_.size();
}

u64
SweepPlan::specSeed(u64 baseSeed, const RunSpec &spec)
{
    // Coordinate-hash, not index-hash: adding points to one axis does
    // not reseed the specs shared with a smaller plan. The model
    // coordinate is a hash of its registered name, so a model keeps
    // its seeds no matter what else is in the zoo.
    u64 coord = static_cast<u64>(spec.impl) << 48
              | static_cast<u64>(spec.profile) << 32
              | static_cast<u64>(spec.sampleIndex);
    u64 h = mix64(baseSeed) ^ mix64(nameHash(spec.net)) ^ coord;
    // An environment is a coordinate too: fold its name and capacitor
    // override so distinct environments reseed — which is what makes
    // per-device deployment phases diverge — while the empty EnvRef
    // keeps the seed values plans produced before the axis existed.
    if (!spec.environment.empty()) {
        h = mix64(h ^ nameHash(spec.environment.env));
        u64 cap_bits = 0;
        static_assert(sizeof cap_bits
                      == sizeof spec.environment.capacitanceFarads);
        std::memcpy(&cap_bits, &spec.environment.capacitanceFarads,
                    sizeof cap_bits);
        h = mix64(h ^ cap_bits);
    }
    return mix64(h);
}

std::vector<RunSpec>
SweepPlan::expand() const
{
    std::vector<RunSpec> specs;
    specs.reserve(size());
    for (const auto &net : nets_) {
        for (auto impl : impls_) {
            for (const auto &environment : environments_) {
                for (auto profile : profiles_) {
                    for (auto sample : samples_) {
                        RunSpec spec;
                        spec.net = net;
                        spec.impl = impl;
                        spec.environment = environment;
                        spec.profile = profile;
                        spec.sampleIndex = sample;
                        spec.captureNvmDigests = captureNvmDigests_;
                        spec.seed = specSeed(baseSeed_, spec);
                        specs.push_back(spec);
                    }
                }
            }
        }
    }
    return specs;
}

} // namespace sonic::app
