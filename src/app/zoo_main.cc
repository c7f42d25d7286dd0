/**
 * @file
 * sonic_zoo — model-zoo serialization and smoke-check CLI.
 *
 *     sonic_zoo --list
 *     sonic_zoo --export=DIR          # every registered model -> JSON
 *     sonic_zoo --smoke=DIR           # export, reload, verify, sweep
 *     sonic_zoo --load=m.json --smoke=DIR
 *
 * The smoke mode is CI's zoo gate: it serializes every registered
 * model, reloads each file, and proves the reloaded network is
 * indistinguishable from the in-memory original — byte-identical
 * re-serialization, then, per kernel, a continuous-power run through
 * the verification oracle's observation harness comparing logits,
 * cycles, op instances and the final FRAM digest bit for bit.
 * --list, then --smoke, then --export decides the mode; with none of
 * them the usage is printed and the exit code is 2.
 */

#include <cctype>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dnn/device_net.hh"
#include "dnn/model_io.hh"
#include "dnn/zoo.hh"
#include "util/cli.hh"
#include "verify/oracle.hh"

namespace
{

using namespace sonic;

/** The acceptance kernels for the round-trip property. */
const kernels::Impl kDefaultImpls[] = {
    kernels::Impl::Base, kernels::Impl::Tile8, kernels::Impl::Sonic,
    kernels::Impl::Tails};

/**
 * File name for a model (names may hold path-hostile characters).
 * Distinct names that sanitize identically (e.g. "a.b" and "a b")
 * get an FNV-1a suffix of the original name so no export is silently
 * overwritten.
 */
std::string
fileNameFor(const std::string &model)
{
    std::string out;
    bool replaced = false;
    for (char c : model) {
        const bool keep =
            std::isalnum(static_cast<unsigned char>(c)) != 0
            || c == '-' || c == '_';
        out.push_back(keep ? c : '_');
        replaced |= !keep;
    }
    if (replaced) {
        u64 h = 0xcbf29ce484222325ull;
        for (char c : model) {
            h ^= static_cast<u64>(static_cast<unsigned char>(c));
            h *= 0x100000001b3ull;
        }
        char suffix[12];
        std::snprintf(suffix, sizeof suffix, "-%08x",
                      static_cast<unsigned>(h & 0xffffffffu));
        out += suffix;
    }
    return out + ".json";
}

/** Continuous-power observation of a network through the oracle
 * harness (logits, cycles, op instances, final FRAM digest). */
verify::Observation
observe(const dnn::NetworkSpec &net, const std::vector<i16> &input,
        kernels::Impl impl)
{
    return verify::observe(verify::LocalWorkload(net, input, impl),
                           std::make_unique<arch::SchedulePower>());
}

bool
sameObservation(const verify::Observation &a,
                const verify::Observation &b, std::string *why)
{
    if (a.completed != b.completed) {
        *why = "completion";
        return false;
    }
    if (a.logits != b.logits) {
        *why = "logits";
        return false;
    }
    if (a.cycles != b.cycles) {
        *why = "cycles";
        return false;
    }
    if (a.opInstances != b.opInstances) {
        *why = "op instances";
        return false;
    }
    if (a.finalNvmDigest != b.finalNvmDigest) {
        *why = "final FRAM digest";
        return false;
    }
    return true;
}

int
exportAll(const std::string &dir)
{
    auto &zoo = dnn::ModelZoo::instance();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    for (const auto &name : zoo.names()) {
        const auto &entry = zoo.get(name);
        const std::string path = dir + "/" + fileNameFor(name);
        std::string error;
        if (!dnn::saveModelFile(entry.compressed(), path, &error)) {
            std::cerr << "export of '" << name << "' failed: " << error
                      << "\n";
            return 1;
        }
        std::cout << "wrote " << path << " ("
                  << entry.compressed().paramCount() << " params)\n";
    }
    return 0;
}

int
smoke(const std::string &dir, const std::vector<kernels::Impl> &impls)
{
    if (const int rc = exportAll(dir); rc != 0)
        return rc;

    auto &zoo = dnn::ModelZoo::instance();
    u64 checks = 0;
    for (const auto &name : zoo.names()) {
        const auto &entry = zoo.get(name);
        const std::string path = dir + "/" + fileNameFor(name);
        std::string error;
        auto loaded = dnn::loadModelFile(path, &error);
        if (!loaded) {
            std::cerr << "reload of '" << name << "' failed: " << error
                      << "\n";
            return 1;
        }

        // Byte-exact re-serialization: the format loses nothing.
        if (dnn::modelJson(*loaded)
            != dnn::modelJson(entry.compressed())) {
            std::cerr << "re-serialization of '" << name
                      << "' is not byte-identical\n";
            return 1;
        }

        const auto input = dnn::DeviceNetwork::quantizeInput(
            entry.dataset()[0].input);
        for (const auto impl : impls) {
            const auto impl_name = kernels::implName(impl);
            const auto original = observe(entry.compressed(), input, impl);
            const auto reloaded = observe(*loaded, input, impl);
            std::string why;
            if (!sameObservation(original, reloaded, &why)) {
                std::cerr << "DIVERGENT: '" << name << "' on "
                          << impl_name << " after reload (" << why
                          << ")\n";
                return 1;
            }
            if (!original.completed) {
                std::cerr << "'" << name << "' on " << impl_name
                          << " did not complete on continuous power\n";
                return 1;
            }
            ++checks;
        }
        std::cout << name << ": reload bit-identical across "
                  << impls.size() << " kernels\n";
    }
    std::cout << "zoo smoke ok: " << zoo.names().size() << " models x "
              << impls.size() << " kernels, " << checks
              << " round-trip checks\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool list = false;
    std::string export_dir, smoke_dir;
    std::vector<std::string> load_models;
    std::vector<std::string> impl_names; ///< empty = acceptance four
    cli::Flags flags("sonic_zoo");
    flags.add("--list", &list)
        .add("--export", &export_dir, "DIR")
        .add("--smoke", &smoke_dir, "DIR")
        .add("--impls", &impl_names, "A,B,...")
        .add("--load", &load_models, "model.json[,...]");
    if (!flags.parse(argc, argv))
        return 2;

    auto &zoo = dnn::ModelZoo::instance();
    for (const auto &path : load_models) {
        std::string error;
        if (!dnn::loadModelIntoZoo(path, zoo, &error)) {
            std::cerr << "cannot load model " << path << ": " << error
                      << "\n";
            return 2;
        }
    }

    if (list) {
        for (const auto &name : zoo.names()) {
            const auto &entry = zoo.get(name);
            std::cout << name << " [" << entry.meta().family << "] "
                      << entry.compressed().paramCount() << " params, "
                      << entry.teacher().numClasses << " classes — "
                      << entry.meta().description << "\n";
        }
        return 0;
    }

    if (!smoke_dir.empty()) {
        // Every name resolves before the first model is written.
        std::vector<kernels::Impl> impls;
        for (const auto &name : impl_names)
            impls.push_back(kernels::implByName(name));
        if (impls.empty())
            impls.assign(std::begin(kDefaultImpls),
                         std::end(kDefaultImpls));
        return smoke(smoke_dir, impls);
    }

    if (!export_dir.empty())
        return exportAll(export_dir);

    std::cerr << flags.usage();
    return 2;
}
