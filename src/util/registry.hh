/**
 * @file
 * The name table behind the two registries that accept rows at run
 * time: the model zoo (dnn::ModelZoo; `--load` adds model files) and
 * the environments (env::EnvRegistry; `--trace` adds power traces).
 * Each keeps only its domain code and stores its rows in a Registry,
 * so both share one set of rules:
 *
 *  - names are unique: tryAdd() of a taken name returns nullptr and
 *    changes nothing; add() of one is fatal
 *    ("duplicate <kind> registration: <name>", exit 1);
 *  - rows are append-only; names() lists them in registration order;
 *  - rows live in a std::deque, so pointers to them never move;
 *  - one mutex guards the table, and tryAdd() checks and inserts in
 *    one critical section. A row never changes once added, so callers
 *    read it through the returned pointer without the lock.
 *
 * Lookups scan the rows: the tables hold a handful of rows, and hot
 * paths (a fleet's devices) resolve their names once per run. The
 * kernels and pipelines are fixed lists and need no registry
 * (kernels/runner.hh, pipeline/pipeline.hh).
 */

#ifndef SONIC_UTIL_REGISTRY_HH
#define SONIC_UTIL_REGISTRY_HH

#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/logging.hh"

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
    /** `kind` names the rows in diagnostics ("unknown model 'x'"). */
    explicit Registry(std::string kind) : kind_(std::move(kind)) {}

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
        const Row &row = rows_.emplace_back(std::forward<Args>(args)...);
        SONIC_ASSERT(!row.name.empty(), kind_, " name must be non-empty");
        if (findLocked(row.name) != &row) {
            if (taken != nullptr)
                *taken = row.name;
            rows_.pop_back();
            return nullptr;
        }
        return &row;
    }

    const std::string kind_;

    mutable std::mutex mutex_;
    std::deque<Row> rows_; ///< guarded by mutex_
};

} // namespace sonic::util

#endif // SONIC_UTIL_REGISTRY_HH
