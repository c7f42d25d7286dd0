/**
 * @file
 * sonic_oracle — the adversarial intermittence oracle CLI.
 *
 * Default mode fuzzes implementations with seeded adversarial power
 * schedules and differentially verifies every run against continuous
 * power, shrinking any divergence to a minimal failure-index set:
 *
 *     sonic_oracle --schedules=200 --seed=1
 *     sonic_oracle --net=HAR --impls=SONIC,TAILS --schedules=50
 *     sonic_oracle --net=DeepFC-6 --schedules=50
 *
 * --env=<environment[@cap]> swaps the synthetic schedule battery for
 * realistic ones: failure windows sliced from where the named
 * harvesting environment (env::EnvRegistry; see sonic_fleet
 * --list-envs) actually browns the capacitor out:
 *
 *     sonic_oracle --env=trace-rf-office --schedules=250
 *     sonic_oracle --net=HAR --env=solar@1mF --impls=SONIC,TAILS
 *
 * --pipelines=<all|name,...> fuzzes the sense-infer-transmit delivery
 * surface instead: each named pipeline crossed with every kernel under
 * a mixed battery that includes TX-boundary commit-targeted schedules,
 * with delivery accounting (no lost or duplicated results) held
 * exactly to the continuous reference. It runs on the built-in
 * workload, so --net and --env are usage errors with it:
 *
 *     sonic_oracle --pipelines=all --schedules=250
 *     sonic_oracle --pipelines=wildlife --impls=SONIC
 *
 * --net=golden (default) uses the built-in platform-stable workload
 * and runs sequentially; any other registered model-zoo name (--list
 * prints them; model files register via --load) fans schedules across
 * the sweep engine's worker pool.
 *
 * Golden digest files:
 *
 *     sonic_oracle --emit-golden=tests/golden/golden_net.json
 *     sonic_oracle --verify-golden=tests/golden/golden_net.json
 *
 * On divergence the failure-shrink artifact (reasons, schedules,
 * shrunk counterexamples, NVM digest chains) is written to --artifact
 * (default oracle_failures.json) and the exit code is 1. A usage error
 * exits 2 and lists the registered models and environments.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dnn/model_io.hh"
#include "dnn/zoo.hh"
#include "env/environment.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "verify/oracle.hh"
#include "verify/workload.hh"

namespace
{

using namespace sonic;

struct Args
{
    std::string net = "golden";
    std::vector<std::string> impls; ///< empty = acceptance five
    std::vector<std::string> loadModels; ///< model files to register
    std::string environment; ///< fuzz under a realistic environment
    std::vector<std::string> pipelines; ///< pipeline-surface fuzz mode
    bool list = false;
    u32 schedules = 200;
    u64 seed = 1;
    u32 maxFailures = 8;
    u32 threads = 0;
    std::string artifact = "oracle_failures.json";
    std::string emitGolden;
    std::string verifyGolden;
};

/** The acceptance battery: the paper's kernels plus a second tiling. */
const kernels::Impl kDefaultImpls[] = {
    kernels::Impl::Base, kernels::Impl::Tile8, kernels::Impl::Tile32,
    kernels::Impl::Sonic, kernels::Impl::Tails};

/** Where divergence traces land: next to the --artifact JSON, named
 * <artifact-stem>.<tag>.<n>.sonictrace. */
std::string
tracePathFor(const std::string &artifact, const std::string &tag,
             u64 index)
{
    std::string stem = artifact;
    if (stem.size() > 5 && stem.rfind(".json") == stem.size() - 5)
        stem.resize(stem.size() - 5);
    return stem + "." + tag + "." + std::to_string(index)
        + ".sonictrace";
}

/** Re-run every shrunk divergence with the trace probe attached and
 * write one .sonictrace per counterexample. */
void
dumpDivergenceTraces(verify::OracleReport *report,
                     const verify::LocalWorkload &workload,
                     const std::string &artifact, const std::string &tag)
{
    if (artifact.empty())
        return;
    u64 n = 0;
    for (auto &d : report->divergences) {
        const std::string path = tracePathFor(artifact, tag, n++);
        std::string error;
        if (verify::dumpScheduleTrace(workload, d.shrunk, path,
                                      &error))
            d.tracePath = path;
        else
            std::cerr << "divergence trace dump failed: " << error
                      << "\n";
    }
}

int
runGoldenFileMode(const Args &args)
{
    const std::string content = verify::goldenJson();
    if (!args.emitGolden.empty()) {
        std::ofstream out;
        if (!cli::openOutput(out, args.emitGolden))
            return 2;
        out << content;
        if (!cli::finishOutput(out, args.emitGolden))
            return 1;
        std::cout << "wrote golden digests to " << args.emitGolden
                  << "\n";
        return 0;
    }
    std::ifstream in(args.verifyGolden);
    if (!in) {
        std::cerr << "cannot read " << args.verifyGolden << "\n";
        return 2;
    }
    std::ostringstream stored;
    stored << in.rdbuf();
    if (stored.str() == content) {
        std::cout << "golden digests match " << args.verifyGolden
                  << "\n";
        return 0;
    }
    std::cerr << "golden digest mismatch against " << args.verifyGolden
              << " — intermittent semantics changed.\n"
                 "If intentional, refresh with:\n  sonic_oracle "
                 "--emit-golden="
              << args.verifyGolden << "\n";
    return 1;
}

/** Parse and validate --env into an EnvRef (empty input passes). */
env::EnvRef
resolveEnvironment(const std::string &label)
{
    env::EnvRef ref;
    if (label.empty())
        return ref;
    std::string error;
    if (!env::parseEnvRef(label, &ref, &error))
        fatal(error);
    if (env::EnvRegistry::instance().get(ref).meta.alwaysOn)
        fatal("environment '", ref.env,
              "' never fails; the oracle needs an intermittent one");
    return ref;
}

/**
 * Verify one kernel: on a zoo model across the engine's worker pool,
 * else on the built-in golden workload on the local path, as a bare
 * inference or inside a pipeline's round (with delivery accounting
 * held exactly to the continuous reference).
 */
verify::OracleReport
runImpl(app::Engine &engine, kernels::Impl impl,
        const pipeline::PipelineSpec *round,
        const env::EnvRef &environment, const Args &args)
{
    const std::string impl_name(kernels::implName(impl));
    if (args.net != "golden") {
        verify::EngineOracleConfig config;
        config.net = args.net;
        config.impl = impl;
        config.schedules = args.schedules;
        config.seed = args.seed;
        config.maxFailures = args.maxFailures;
        config.environment = environment;
        auto report = verify::verifyWithEngine(engine, config);
        // The same cached net and sample-0 input the engine ran.
        dumpDivergenceTraces(&report,
                             verify::LocalWorkload(engine, args.net, impl),
                             args.artifact, args.net + "." + impl_name);
        return report;
    }
    verify::LocalWorkload workload(verify::goldenNet(),
                                   verify::goldenInput(), impl);
    u64 seed =
        args.seed ^ (static_cast<u64>(impl) * 0x9e3779b97f4a7c15ull);
    std::string tag = impl_name;
    if (round != nullptr) {
        workload.round = *round;
        seed ^= fnv1a(round->name);
        tag = round->name + "." + tag;
    }
    auto report = verify::verifyLocal(workload, args.schedules, seed,
                                      args.maxFailures, environment);
    dumpDivergenceTraces(&report, workload, args.artifact, tag);
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    cli::Flags flags("sonic_oracle");
    flags.add("--net", &args.net, "golden|<zoo model name>")
        .add("--impls", &args.impls, "SONIC,TAILS,...")
        .add("--load", &args.loadModels, "model.json[,model2.json]")
        .add("--env", &args.environment, "<environment[@cap]>")
        .add("--pipelines", &args.pipelines, "all|wildlife,...")
        .add("--list", &args.list)
        .add("--schedules", &args.schedules, "N")
        .add("--seed", &args.seed, "S")
        .add("--max-failures", &args.maxFailures, "K")
        .add("--threads", &args.threads, "T")
        .add("--artifact", &args.artifact, "PATH")
        .add("--emit-golden", &args.emitGolden, "PATH")
        .add("--verify-golden", &args.verifyGolden, "PATH");
    if (!flags.parse(argc, argv)) {
        std::cerr << "registered models: "
                  << dnn::ModelZoo::instance().availableList()
                  << "\nregistered environments: "
                  << env::EnvRegistry::instance().availableList() << "\n";
        return 2;
    }
    // Pipeline rounds run on the golden workload under synthetic
    // schedules only.
    if (!args.pipelines.empty()
        && (args.net != "golden" || !args.environment.empty())) {
        std::cerr << "--pipelines cannot be combined with "
                  << (args.net != "golden" ? "--net=" + args.net
                                           : "--env=" + args.environment)
                  << "\n";
        return 2;
    }
    if (args.pipelines == std::vector<std::string>{"all"})
        args.pipelines = pipeline::names();

    auto &zoo = dnn::ModelZoo::instance();
    for (const auto &path : args.loadModels) {
        std::string error;
        if (!dnn::loadModelIntoZoo(path, zoo, &error)) {
            std::cerr << "cannot load model " << path << ": " << error
                      << "\n";
            return 2;
        }
    }

    if (args.list) {
        // Registry metadata only — listing must not build every model.
        for (const auto &name : zoo.names()) {
            const auto *meta = zoo.meta(name);
            std::cout << name << " [" << meta->family << "] — "
                      << meta->description << "\n";
        }
        return 0;
    }

    if (!args.emitGolden.empty() || !args.verifyGolden.empty())
        return runGoldenFileMode(args);

    // "golden" runs the built-in platform-stable workload on the
    // sequential local path; every other zoo model fans through the
    // engine's worker pool.
    if (args.net != "golden" && !zoo.contains(args.net)) {
        std::cerr << "unknown model '" << args.net
                  << "'; registered models: " << zoo.availableList()
                  << "\n";
        return 2;
    }

    // Every name resolves before the first battery runs.
    std::vector<kernels::Impl> impls;
    for (const auto &name : args.impls)
        impls.push_back(kernels::implByName(name));
    if (impls.empty())
        impls.assign(std::begin(kDefaultImpls), std::end(kDefaultImpls));
    std::vector<const pipeline::PipelineSpec *> rounds;
    for (const auto &name : args.pipelines)
        rounds.push_back(&pipeline::get(name));
    const env::EnvRef environment = resolveEnvironment(args.environment);

    app::Engine engine(app::EngineOptions{args.threads});
    std::vector<verify::OracleReport> reports;
    if (!rounds.empty()) {
        // Pipeline-surface mode: every requested pipeline crossed with
        // every requested kernel.
        for (const auto *round : rounds)
            for (const auto impl : impls)
                reports.push_back(
                    runImpl(engine, impl, round, environment, args));
    } else {
        for (const auto impl : impls)
            reports.push_back(
                runImpl(engine, impl, nullptr, environment, args));
    }
    u64 divergent = 0;
    for (const auto &report : reports) {
        divergent += report.divergences.size();
        std::cout << report.impl << " on " << report.workload << ": "
                  << report.schedulesRun << " schedules, "
                  << report.totalFired << " injected failures, "
                  << report.totalReboots << " reboots — "
                  << (report.ok()
                          ? "no divergence"
                          : std::to_string(report.divergences.size())
                              + " DIVERGENT")
                  << "\n";
        for (const auto &d : report.divergences) {
            std::cout << "  " << d.reason << "\n    schedule:";
            for (u64 idx : d.schedule)
                std::cout << ' ' << idx;
            std::cout << "\n    shrunk:";
            for (u64 idx : d.shrunk)
                std::cout << ' ' << idx;
            std::cout << "\n";
        }
    }

    if (divergent > 0 && !args.artifact.empty()) {
        std::ofstream out;
        if (!cli::openOutput(out, args.artifact))
            return 2;
        json::Writer w(out);
        w.beginArray();
        for (const auto &report : reports)
            if (!report.ok())
                verify::writeReportJson(w.br(2), report, 2);
        w.br(0).end();
        if (!cli::finishOutput(out, args.artifact))
            return 1;
        std::cout << "failure-shrink artifact written to "
                  << args.artifact << "\n";
    }
    return divergent == 0 ? 0 : 1;
}
