/**
 * @file
 * The one name table behind the kernel, model, environment and
 * pipeline registries (kernels::ImplRegistry, dnn::ModelZoo,
 * env::EnvRegistry, pipeline::PipelineRegistry). Each keeps only its
 * domain code and stores its rows in a Registry, so all four share
 * one set of rules:
 *
 *  - names are unique: tryAdd() of a taken name returns nullptr and
 *    changes nothing; add() of one is fatal
 *    ("duplicate <kind> registration: <name>", exit 1);
 *  - rows are append-only; a row's index is its registration order;
 *  - rows live in a std::deque, so pointers to them never move;
 *  - one mutex guards the table, and tryAdd() checks and inserts in
 *    one critical section. A row never changes once added, so callers
 *    read it through the returned pointer without the lock.
 *
 * Lookups scan the rows: the tables hold a handful of rows, and hot
 * paths (a fleet's devices) resolve their names once per run.
 */

#ifndef SONIC_UTIL_REGISTRY_HH
#define SONIC_UTIL_REGISTRY_HH

#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace sonic::util
{

/**
 * A name-keyed, append-only table. Row is any type with a
 * `std::string name` member, constructed in place from the arguments
 * of add()/tryAdd() (so rows need not be movable).
 */
template <typename Row>
class Registry
{
  public:
    /** Runs on each accepted row, under the lock, with its index. */
    using Stamp = std::function<void(Row &row, u32 index)>;

    /** `kind` names the rows in diagnostics ("unknown model 'x'");
     * `stamp` lets a row record its own index before it is visible. */
    explicit Registry(std::string kind, Stamp stamp = {})
        : kind_(std::move(kind)), stamp_(std::move(stamp))
    {
    }

    /** Append Row(args...) unless its name is taken (then nullptr). */
    template <typename... Args>
    const Row *
    tryAdd(Args &&...args)
    {
        return insert(nullptr, std::forward<Args>(args)...);
    }

    /** As tryAdd(), but a taken name is a fatal configuration error. */
    template <typename... Args>
    const Row &
    add(Args &&...args)
    {
        std::string taken;
        if (const Row *row = insert(&taken, std::forward<Args>(args)...))
            return *row;
        fatal("duplicate ", kind_, " registration: ", taken);
    }

    /** Lookup by exact name; nullptr if unknown. */
    const Row *
    find(std::string_view name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return findLocked(name);
    }

    /** As find(), but an unknown name is fatal, listing the names. */
    const Row &
    get(std::string_view name) const
    {
        if (const Row *row = find(name))
            return *row;
        fatal("unknown ", kind_, " '", name, "'; registered ", kind_,
              "s: ", availableList());
    }

    /** The row registered index-th (0-based); nullptr past the end. */
    const Row *
    at(u32 index) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return index < rows_.size() ? &rows_[index] : nullptr;
    }

    bool contains(std::string_view name) const { return find(name); }

    /** Registered names, in registration order. */
    std::vector<std::string>
    names() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<std::string> out;
        for (const Row &row : rows_)
            out.push_back(row.name);
        return out;
    }

    /** Comma-separated names(), for error messages. */
    std::string
    availableList() const
    {
        std::string out;
        for (const auto &name : names())
            out += (out.empty() ? "" : ", ") + name;
        return out;
    }

    u32
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return static_cast<u32>(rows_.size());
    }

  private:
    const Row *
    findLocked(std::string_view name) const
    {
        for (const Row &row : rows_)
            if (row.name == name)
                return &row;
        return nullptr;
    }

    /** Build the candidate at the back and keep it only if no earlier
     * row has its name; a rejected name goes to *taken. */
    template <typename... Args>
    const Row *
    insert(std::string *taken, Args &&...args)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Row &row = rows_.emplace_back(std::forward<Args>(args)...);
        SONIC_ASSERT(!row.name.empty(), kind_, " name must be non-empty");
        if (findLocked(row.name) != &row) {
            if (taken != nullptr)
                *taken = row.name;
            rows_.pop_back();
            return nullptr;
        }
        if (stamp_)
            stamp_(row, static_cast<u32>(rows_.size() - 1));
        return &row;
    }

    const std::string kind_;
    const Stamp stamp_;

    mutable std::mutex mutex_;
    std::deque<Row> rows_; ///< guarded by mutex_
};

} // namespace sonic::util

#endif // SONIC_UTIL_REGISTRY_HH
