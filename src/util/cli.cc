#include "util/cli.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <type_traits>

namespace sonic::cli
{

namespace
{

/** Usage lines wrap before this column. */
constexpr std::size_t kUsageWidth = 79;

// One converter per storage type: "" on success, else why the value
// is bad. Only flags given a value get here, so a toggle rejects it.

std::string
convert(const std::string &, bool *)
{
    return "takes no value";
}

std::string
convert(const std::string &value, std::string *out)
{
    *out = value;
    return {};
}

template <typename T>
    requires std::is_unsigned_v<T>
std::string
convert(const std::string &value, T *out)
{
    u64 wide = 0;
    if (!parseU64(value, &wide) || wide > std::numeric_limits<T>::max())
        return "expected a decimal integer in [0, "
            + std::to_string(std::numeric_limits<T>::max()) + "]";
    *out = static_cast<T>(wide);
    return {};
}

std::string
convert(const std::string &value, f64 *out)
{
    const char *end = value.data() + value.size();
    f64 parsed = 0.0;
    const auto [stop, ec] = std::from_chars(value.data(), end, parsed);
    if (ec != std::errc() || stop != end || !std::isfinite(parsed))
        return "expected a finite number";
    *out = parsed;
    return {};
}

std::string
convert(const std::string &value, std::vector<std::string> *out)
{
    out->clear();
    std::istringstream parts(value);
    for (std::string part; std::getline(parts, part, ',');)
        if (!part.empty())
            out->push_back(part);
    return {};
}

template <typename T>
std::string
convert(const std::string &value, std::optional<T> *out)
{
    std::string why = convert(value, &out->emplace());
    if (!why.empty())
        out->reset();
    return why;
}

} // namespace

bool
parseU64(std::string_view text, u64 *out)
{
    const char *end = text.data() + text.size();
    u64 parsed = 0;
    const auto [stop, ec] = std::from_chars(text.data(), end, parsed);
    if (text.empty() || ec != std::errc() || stop != end)
        return false;
    *out = parsed;
    return true;
}

bool
openOutput(std::ofstream &file, const std::string &path,
           std::ios::openmode mode)
{
    file.open(path, mode);
    if (!file)
        std::cerr << "cannot write " << path << "\n";
    return static_cast<bool>(file);
}

bool
finishOutput(std::ofstream &file, const std::string &path)
{
    if (!file.is_open())
        return true;
    file.close();
    if (!file)
        std::cerr << "write to " << path << " failed\n";
    return static_cast<bool>(file);
}

Flags &
Flags::oneOf(std::string name, std::string *target,
             std::vector<std::string> choices)
{
    std::string meta;
    for (const auto &choice : choices)
        meta += (meta.empty() ? "" : "|") + choice;
    add(std::move(name), target, std::move(meta));
    flags_.back().choices = std::move(choices);
    return *this;
}

std::string
Flags::assign(const Flag &flag, const std::string &value) const
{
    if (flag.repeat) {
        std::get<std::vector<std::string> *>(flag.target)->push_back(value);
        return {};
    }
    if (!flag.choices.empty()
        && std::find(flag.choices.begin(), flag.choices.end(), value)
               == flag.choices.end())
        return "expected one of " + flag.meta;
    return std::visit([&](auto *out) { return convert(value, out); },
                      flag.target);
}

bool
Flags::parse(int argc, const char *const *argv, std::ostream &err) const
{
    std::string why;
    bool have_positional = false;
    for (int i = 1; i < argc && why.empty(); ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            if (positional_ == nullptr || have_positional)
                why = "unexpected argument '" + arg + "'";
            else
                *positional_ = arg;
            have_positional = true;
            continue;
        }
        const auto eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const auto flag =
            std::find_if(flags_.begin(), flags_.end(),
                         [&](const Flag &f) { return f.name == name; });
        if (flag == flags_.end()) {
            why = "unknown flag '" + name + "'";
        } else if (eq != std::string::npos) {
            if (const auto bad = assign(*flag, arg.substr(eq + 1));
                !bad.empty())
                why = arg + ": " + bad;
        } else if (auto *toggle = std::get_if<bool *>(&flag->target)) {
            **toggle = true;
        } else {
            why = name + " needs a value (" + name + "=" + flag->meta + ")";
        }
    }
    if (why.empty() && positional_ != nullptr && !have_positional)
        why = "missing " + positionalMeta_;
    if (why.empty())
        return true;
    err << program_ << ": " << why << "\n" << usage();
    return false;
}

std::string
Flags::usage() const
{
    std::vector<std::string> items;
    if (positional_ != nullptr)
        items.push_back(positionalMeta_);
    for (const auto &flag : flags_) {
        const bool toggle = std::holds_alternative<bool *>(flag.target);
        items.push_back("[" + flag.name + (toggle ? "" : "=" + flag.meta)
                        + "]" + (flag.repeat ? "..." : ""));
    }
    std::string out = "usage: " + program_;
    const std::size_t indent = out.size();
    std::size_t column = indent;
    for (const auto &item : items) {
        if (column > indent && column + 1 + item.size() > kUsageWidth) {
            out += "\n" + std::string(indent, ' ');
            column = indent;
        }
        out += " " + item;
        column += 1 + item.size();
    }
    return out + "\n";
}

} // namespace sonic::cli
