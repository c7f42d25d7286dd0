#include "dnn/zoo.hh"

#include <utility>

#include "dnn/builder.hh"
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
        // Entries are non-copyable and address-stable (the zoo holds
        // them by unique_ptr), so capturing `this` avoids doubling the
        // weight storage in the closure.
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

void
ModelZoo::add(std::string name, ModelMeta meta,
              std::function<ModelDef()> build)
{
    SONIC_ASSERT(!name.empty(), "model name must be non-empty");
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &row : rows_)
        SONIC_ASSERT(row->name != name, "model '", name,
                     "' registered twice");
    auto row = std::make_unique<Row>();
    row->name = std::move(name);
    row->meta = std::move(meta);
    row->build = std::move(build);
    rows_.push_back(std::move(row));
}

void
ModelZoo::add(std::string name, ModelMeta meta, NetworkSpec net)
{
    add(std::move(name), std::move(meta),
        [net = std::move(net)] { return ModelDef{net, {}, {}, {}}; });
}

bool
ModelZoo::contains(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &row : rows_)
        if (row->name == name)
            return true;
    return false;
}

const ModelMeta *
ModelZoo::meta(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &row : rows_)
        if (row->name == name)
            return &row->meta;
    return nullptr;
}

std::vector<std::string>
ModelZoo::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(rows_.size());
    for (const auto &row : rows_)
        out.push_back(row->name);
    return out;
}

std::string
ModelZoo::availableList() const
{
    std::string out;
    for (const auto &name : names()) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

ModelZoo::Row *
ModelZoo::rowFor(std::string_view name)
{
    for (const auto &row : rows_)
        if (row->name == name)
            return row.get();
    return nullptr;
}

const ModelEntry *
ModelZoo::find(std::string_view name)
{
    std::function<ModelDef()> build;
    ModelMeta meta;
    std::string row_name;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Row *row = rowFor(name);
        if (row == nullptr)
            return nullptr;
        if (row->entry)
            return row->entry.get();
        build = row->build;
        meta = row->meta;
        row_name = row->name;
    }

    // Build outside the lock: builders are user code and may
    // themselves consult the zoo (e.g. compose from another model),
    // which would deadlock on the non-recursive mutex. Two threads
    // racing here build the same deterministic content; the first to
    // publish wins and the duplicate is discarded.
    auto entry =
        std::make_unique<ModelEntry>(std::move(row_name),
                                     std::move(meta), build());

    std::lock_guard<std::mutex> lock(mutex_);
    Row *row = rowFor(name);
    if (!row->entry)
        row->entry = std::move(entry);
    return row->entry.get();
}

const ModelEntry &
ModelZoo::get(std::string_view name)
{
    const ModelEntry *entry = find(name);
    if (entry == nullptr)
        fatal("unknown model '", std::string(name),
              "'; registered models: ", availableList());
    return *entry;
}

} // namespace sonic::dnn
