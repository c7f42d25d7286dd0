/**
 * @file
 * The model zoo: a string-keyed registry of workloads (a
 * util::Registry, like the environments; `--load` adds model files at
 * run time). A model is addressed everywhere — SweepPlan axes, Engine
 * caches, GENESIS, the verification oracle, the CLIs — by its
 * registered name (a NetRef); the registry lazily builds and
 * caches each model's ModelEntry (teacher network, compressed device
 * network, labelled synthetic dataset, metadata) on first use.
 *
 * The paper's three workloads (MNIST/HAR/OkG, Table 2), the verify
 * subsystem's platform-stable integer-dyadic workload ("golden"), and
 * a family of NetworkBuilder-generated synthetic models pre-register;
 * new workloads plug in via ModelZoo::add() — or are loaded from a
 * serialized model file (dnn/model_io.hh) — with no edits to any
 * consumer:
 *
 *     dnn::ModelZoo::instance().add(
 *         "MyNet", {.paperAccuracy = 1.0, .family = "custom"},
 *         [] { return dnn::ModelDef{myTeacher(), myCompressed()}; });
 *     app::SweepPlan plan;
 *     plan.nets({"MyNet"}).allImpls();
 */

#ifndef SONIC_DNN_ZOO_HH
#define SONIC_DNN_ZOO_HH

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dnn/dataset.hh"
#include "dnn/networks.hh"
#include "dnn/spec.hh"
#include "util/registry.hh"
#include "util/types.hh"

namespace sonic::dnn
{

class FlashImage;

/**
 * A workload reference: the registered model name. Carried by
 * RunSpecs, sweep records and sinks; resolved through the ModelZoo.
 */
using NetRef = std::string;

/** The paper's three evaluation workloads (the Fig. 9 sweep axis). */
inline const NetRef kPaperNets[] = {"MNIST", "HAR", "OkG"};

/** Per-model metadata (what used to be hard-coded switch tables). */
struct ModelMeta
{
    /**
     * The paper's reported accuracy for the workload's chosen
     * configuration; 1.0 for models without a published baseline.
     * Agreement-with-teacher measurements scale by this (the Table 2
     * accuracy substitution, see dnn/dataset.hh).
     */
    f64 paperAccuracy = 1.0;

    /** Provenance bucket: "paper", "synthetic", "verify", "loaded",
     * "custom". Informational (CLIs group listings by it). */
    std::string family = "custom";

    std::string description;

    /** Synthetic dataset shape (makeDataset inputs). */
    u32 datasetSamples = 64;
    u64 datasetSeed = 0xda7a;

    /** Agreement scaled by the paper's base accuracy. */
    f64
    scaledAccuracy(f64 agreement) const
    {
        return paperAccuracy * agreement;
    }
};

/** What a model builder returns; the zoo fills the optional pieces. */
struct ModelDef
{
    /** The reference network (labels datasets; GENESIS' input). */
    NetworkSpec teacher;

    /**
     * The device configuration. Leave the layer list empty to run the
     * teacher itself on-device (synthetic models are born feasible).
     */
    NetworkSpec compressed;

    /**
     * Rebuild the teacher at an explicit seed (GENESIS sweeps). When
     * unset, the registered teacher is returned for every seed (the
     * model has fixed weights — e.g. it was loaded from disk).
     */
    std::function<NetworkSpec(u64 seed)> teacherAt;

    /**
     * Knob-driven recompression (GENESIS' search space). When unset,
     * the generic compressor (dnn::compressGeneric over teacherAt)
     * is used.
     */
    std::function<NetworkSpec(const CompressionKnobs &, u64 seed)>
        withKnobs;

    /**
     * Per-model dataset builder: how the model ships its own eval
     * inputs. When unset, the default synthetic generator
     * (makeDataset over the teacher, shaped by ModelMeta's
     * datasetSamples/datasetSeed) labels class-structured noise with
     * the teacher — the Table 2 substitution. A loaded or imported
     * model can instead provide its real samples here; the zoo caches
     * the result lazily exactly like the default.
     */
    std::function<Dataset(const NetworkSpec &teacher,
                          const ModelMeta &meta)>
        dataset;
};

/** One cached zoo row: everything consumers need about a model. */
class ModelEntry
{
  public:
    ModelEntry(std::string name, ModelMeta meta, ModelDef def);
    ~ModelEntry();

    ModelEntry(const ModelEntry &) = delete;
    ModelEntry &operator=(const ModelEntry &) = delete;

    const std::string &name() const { return name_; }
    const ModelMeta &meta() const { return meta_; }

    /** The uncompressed reference network. */
    const NetworkSpec &teacher() const { return teacher_; }

    /** The on-device configuration. */
    const NetworkSpec &compressed() const { return compressed_; }

    /** The labelled synthetic dataset (lazily built, thread-safe). */
    const Dataset &dataset() const;

    /**
     * The on-device configuration lowered to its flash image (lazily
     * built, thread-safe): every device running the model views it.
     */
    const FlashImage &flashImage() const;

    /** Teacher rebuilt at an explicit seed (see ModelDef::teacherAt). */
    NetworkSpec teacherAt(u64 seed) const { return teacherAt_(seed); }

    /** Knob-driven compressed variant (see ModelDef::withKnobs). */
    NetworkSpec
    withKnobs(const CompressionKnobs &knobs, u64 seed) const
    {
        return withKnobs_(knobs, seed);
    }

  private:
    std::string name_;
    ModelMeta meta_;
    NetworkSpec teacher_;
    NetworkSpec compressed_;
    std::function<NetworkSpec(u64)> teacherAt_;
    std::function<NetworkSpec(const CompressionKnobs &, u64)> withKnobs_;
    std::function<Dataset(const NetworkSpec &, const ModelMeta &)>
        datasetBuilder_;

    mutable std::once_flag datasetOnce_;
    mutable Dataset dataset_;

    mutable std::once_flag imageOnce_;
    mutable std::unique_ptr<const FlashImage> image_;
};

/**
 * The process-wide model registry: a util::Registry of models (unique
 * names, thread-safe, entries stable for the life of the process).
 */
class ModelZoo
{
  public:
    /** The singleton, with the built-in models registered. */
    static ModelZoo &instance();

    /**
     * Register a model under a unique name. The builder runs lazily on
     * first lookup; re-registering an existing name is a fatal
     * configuration error.
     */
    void add(std::string name, ModelMeta meta,
             std::function<ModelDef()> build);

    /** Register a fixed, already-built network (teacher == device). */
    void add(std::string name, ModelMeta meta, NetworkSpec net);

    /** As add(), but a taken name returns false and registers nothing. */
    bool tryAdd(std::string name, ModelMeta meta, NetworkSpec net);

    /** Whether a name is registered (no build triggered). */
    bool contains(std::string_view name) const { return rows_.contains(name); }

    /** Registered metadata (no build triggered); nullptr if unknown.
     * The pointer stays valid for the life of the process. */
    const ModelMeta *meta(std::string_view name) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const { return rows_.names(); }

    /** Comma-separated names(), for error messages. */
    std::string availableList() const { return rows_.availableList(); }

    /** Lookup, building and caching on first use; nullptr if unknown. */
    const ModelEntry *find(std::string_view name);

    /** As find(), but an unknown name is a fatal configuration error
     * reporting the available models. */
    const ModelEntry &get(std::string_view name);

  private:
    ModelZoo();

    /** One registered model; `entry` is built once, on first lookup. */
    struct Row
    {
        std::string name;
        ModelMeta meta;
        std::function<ModelDef()> build;
        mutable std::once_flag built;
        mutable std::optional<ModelEntry> entry;
    };

    /** The row's entry, building it on first use. */
    static const ModelEntry &entryOf(const Row &row);

    util::Registry<Row> rows_{"model"};
};

} // namespace sonic::dnn

#endif // SONIC_DNN_ZOO_HH
