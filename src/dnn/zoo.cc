#include "dnn/zoo.hh"

#include <utility>

#include "dnn/builder.hh"
#include "dnn/device_net.hh"
#include "util/logging.hh"
// The verify subsystem's platform-stable integer-dyadic workload
// pre-registers here so the oracle CLI and the golden harness can
// address it like any other model. workload.hh depends only on
// dnn/spec.hh, so no include cycle arises.
#include "verify/workload.hh"

namespace sonic::dnn
{

// --- ModelEntry -----------------------------------------------------

ModelEntry::ModelEntry(std::string name, ModelMeta meta, ModelDef def)
    : name_(std::move(name)), meta_(std::move(meta)),
      teacher_(std::move(def.teacher))
{
    compressed_ = def.compressed.layers.empty() ? teacher_
                                                : std::move(def.compressed);
    if (def.teacherAt) {
        teacherAt_ = std::move(def.teacherAt);
    } else {
        // Fixed-weight model: every seed sees the registered teacher.
        // Entries are non-copyable and address-stable (the zoo builds
        // them in place in its row), so capturing `this` avoids
        // doubling the weight storage in the closure.
        teacherAt_ = [this](u64) { return teacher_; };
    }
    if (def.withKnobs) {
        withKnobs_ = std::move(def.withKnobs);
    } else {
        withKnobs_ = [teacherAt = teacherAt_](const CompressionKnobs &k,
                                              u64 seed) {
            return compressGeneric(teacherAt(seed), k);
        };
    }
    datasetBuilder_ = std::move(def.dataset);
}

ModelEntry::~ModelEntry() = default;

const Dataset &
ModelEntry::dataset() const
{
    std::call_once(datasetOnce_, [this] {
        // A model-supplied builder replaces the synthetic default
        // (the ROADMAP dataset plug-in point): loaded models can ship
        // their own eval inputs instead of the fixed synthetic shape.
        dataset_ = datasetBuilder_
            ? datasetBuilder_(teacher_, meta_)
            : makeDataset(teacher_, meta_.datasetSamples,
                          meta_.datasetSeed);
        SONIC_ASSERT(!dataset_.empty(),
                     "model '", name_, "' built an empty dataset");
    });
    return dataset_;
}

const FlashImage &
ModelEntry::flashImage() const
{
    std::call_once(imageOnce_, [this] {
        image_ = std::make_unique<const FlashImage>(compressed_);
    });
    return *image_;
}

// --- ModelZoo -------------------------------------------------------

ModelZoo &
ModelZoo::instance()
{
    static ModelZoo zoo;
    return zoo;
}

ModelZoo::ModelZoo()
{
    // The paper's three workloads carry their Table 2 compression
    // budgets and reported accuracies.
    struct PaperRow
    {
        NetId id;
        const char *description;
    };
    const PaperRow paper[] = {
        {NetId::Mnist, "MNIST image classification (Table 2)"},
        {NetId::Har, "human activity recognition (Table 2)"},
        {NetId::Okg, "Google keyword spotting \"OK Google\" (Table 2)"},
    };
    for (const auto &row : paper) {
        ModelMeta meta;
        meta.paperAccuracy = paperAccuracy(row.id);
        meta.family = "paper";
        meta.description = row.description;
        add(netName(row.id), meta, [id = row.id] {
            ModelDef def;
            def.teacher = buildTeacher(id);
            def.compressed = compress(id, def.teacher, CompressionKnobs{});
            def.teacherAt = [id](u64 seed) {
                return buildTeacher(id, seed);
            };
            def.withKnobs = [id](const CompressionKnobs &knobs,
                                 u64 seed) {
                return buildWithKnobs(id, knobs, seed);
            };
            return def;
        });
    }

    {
        ModelMeta meta;
        meta.family = "verify";
        meta.description = "platform-stable integer-dyadic oracle "
                           "workload (all layer kinds)";
        add("golden", meta, [] {
            ModelDef def;
            def.teacher = verify::goldenNet();
            def.teacherAt = [](u64 seed) {
                return verify::goldenNet(seed);
            };
            return def;
        });
    }

    // NetworkBuilder-generated synthetic families: non-paper workloads
    // proving new models are one-liners. Born device-feasible, so the
    // teacher runs on-device unmodified.
    {
        ModelMeta meta;
        meta.family = "synthetic";
        meta.description = "six dense FC layers, 24 wide, 8 classes";
        add("DeepFC-6", meta, [] {
            ModelDef def;
            def.teacher = deepFcNet("DeepFC-6", 32, 6, 24, 8);
            def.teacherAt = [](u64 seed) {
                return deepFcNet("DeepFC-6", 32, 6, 24, 8, seed);
            };
            return def;
        });
    }
    {
        ModelMeta meta;
        meta.family = "synthetic";
        meta.description =
            "one 512-wide sparse hidden layer (10% dense), 10 classes";
        add("WideFC-512", meta, [] {
            ModelDef def;
            def.teacher = wideFcNet("WideFC-512", 48, 512, 0.10, 10);
            def.teacherAt = [](u64 seed) {
                return wideFcNet("WideFC-512", 48, 512, 0.10, 10, seed);
            };
            return def;
        });
    }
    {
        ModelMeta meta;
        meta.family = "synthetic";
        meta.description = "three stacked depthwise-separable factored "
                           "convs over 3x12x12, 6 classes";
        add("DWConv-3", meta, [] {
            ModelDef def;
            def.teacher = depthwiseConvNet("DWConv-3", 3, 12, 3, 6);
            def.teacherAt = [](u64 seed) {
                return depthwiseConvNet("DWConv-3", 3, 12, 3, 6, seed);
            };
            return def;
        });
    }
}

namespace
{

/** The builder of a fixed, already-built network. */
std::function<ModelDef()>
fixedBuild(NetworkSpec net)
{
    return [net = std::move(net)] { return ModelDef{net, {}, {}, {}, {}}; };
}

} // namespace

void
ModelZoo::add(std::string name, ModelMeta meta,
              std::function<ModelDef()> build)
{
    rows_.add(std::move(name), std::move(meta), std::move(build));
}

void
ModelZoo::add(std::string name, ModelMeta meta, NetworkSpec net)
{
    add(std::move(name), std::move(meta), fixedBuild(std::move(net)));
}

bool
ModelZoo::tryAdd(std::string name, ModelMeta meta, NetworkSpec net)
{
    return rows_.tryAdd(std::move(name), std::move(meta),
                        fixedBuild(std::move(net)))
        != nullptr;
}

const ModelMeta *
ModelZoo::meta(std::string_view name) const
{
    const Row *row = rows_.find(name);
    return row != nullptr ? &row->meta : nullptr;
}

const ModelEntry &
ModelZoo::entryOf(const Row &row)
{
    // Build outside the registry lock: builders are user code and may
    // themselves consult the zoo (e.g. compose from another model).
    // Racing first lookups build once; the others wait for it.
    std::call_once(row.built, [&row] {
        row.entry.emplace(row.name, row.meta, row.build());
    });
    return *row.entry;
}

const ModelEntry *
ModelZoo::find(std::string_view name)
{
    const Row *row = rows_.find(name);
    return row != nullptr ? &entryOf(*row) : nullptr;
}

const ModelEntry &
ModelZoo::get(std::string_view name)
{
    return entryOf(rows_.get(name));
}

} // namespace sonic::dnn
