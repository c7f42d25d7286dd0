/**
 * @file
 * The command-line flag table shared by the sonic_* CLIs.
 *
 * A CLI declares each flag once, with the variable it fills, then
 * parses the whole of argv before applying anything, so flag order
 * never matters. The table matches `--name=value` and bare `--name`
 * (a bool toggle), converts each value strictly by its storage type,
 * and generates the usage text. Any error prints one line naming the
 * argument, then the usage; the CLI exits 2.
 */

#ifndef SONIC_UTIL_CLI_HH
#define SONIC_UTIL_CLI_HH

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/types.hh"

namespace sonic::cli
{

/** Strict unsigned decimal: all of `text` is digits and fits a u64. */
bool parseU64(std::string_view text, u64 *out);

/** Open `path` for writing, or print "cannot write PATH" and return
 * false (the CLI then exits 2). */
bool openOutput(std::ofstream &file, const std::string &path,
                std::ios::openmode mode = std::ios::out);

/** Close a file openOutput opened, after its last write, or print
 * "write to PATH failed" and return false (the CLI then exits 1): a
 * full disk only shows once the buffer is flushed. A file that was
 * never opened passes. */
bool finishOutput(std::ofstream &file, const std::string &path);

/** One CLI's flag table (see the file comment). */
class Flags
{
  public:
    /**
     * What a flag fills. An unsigned integer must be the whole value
     * in decimal (no sign, space or 0x) and fit its field; a double
     * must be finite; a vector takes a comma-separated list, empty
     * parts dropped; a std::optional records that the flag was given,
     * so `--nets=` is an engaged, empty list. A repeated flag keeps
     * its last value.
     */
    using Target =
        std::variant<bool *, std::string *, u32 *, u64 *, f64 *,
                     std::vector<std::string> *,
                     std::optional<std::string> *, std::optional<u32> *,
                     std::optional<u64> *, std::optional<f64> *,
                     std::optional<std::vector<std::string>> *>;

    explicit Flags(std::string program) : program_(std::move(program)) {}

    /** Declare `name` ("--devices") filling `target`, which must
     * outlive the table; `meta` names the value in the usage ("N"). */
    Flags &
    add(std::string name, Target target, std::string meta = {})
    {
        flags_.push_back({std::move(name), target, std::move(meta)});
        return *this;
    }

    /** Declare a string flag that accepts only one of `choices`. */
    Flags &oneOf(std::string name, std::string *target,
                 std::vector<std::string> choices);

    /** Declare a flag whose every occurrence appends its whole value. */
    Flags &
    repeatable(std::string name, std::vector<std::string> *target,
               std::string meta)
    {
        add(std::move(name), target, std::move(meta));
        flags_.back().repeat = true;
        return *this;
    }

    /** Declare the one positional argument, which is then required. */
    Flags &
    positional(std::string meta, std::string *target)
    {
        positionalMeta_ = std::move(meta);
        positional_ = target;
        return *this;
    }

    /** Fill the targets from argv[1..argc). On the first bad argument
     * write one line naming it, then the usage, to `err`, and return
     * false. */
    bool parse(int argc, const char *const *argv,
               std::ostream &err = std::cerr) const;

    /** "usage: PROGRAM ..." listing every declared flag, wrapped. */
    std::string usage() const;

  private:
    struct Flag
    {
        std::string name;
        Target target;
        std::string meta;
        std::vector<std::string> choices = {}; ///< empty = any value
        bool repeat = false;
    };

    /** Store `value` into the flag's target; "" or why it is bad. */
    std::string assign(const Flag &flag, const std::string &value) const;

    std::string program_;
    std::vector<Flag> flags_;
    std::string positionalMeta_;
    std::string *positional_ = nullptr;
};

} // namespace sonic::cli

#endif // SONIC_UTIL_CLI_HH
