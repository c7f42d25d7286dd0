/**
 * @file
 * The one JSON writer behind every emitter: the sweep and fleet sinks,
 * fleet summaries, plans, oracle reports and golden digests, model
 * files and the Chrome trace export.
 *
 * The writer decides the syntax: escaping, the separators between
 * items and after keys, number text, and line breaks. Callers decide
 * only the layout, by asking for a break before an item or a close.
 * Every f64 is fmtF64 text (util/fmt.hh), the fewest digits that parse
 * back to the same double, so JSON artifacts are as lossless as the
 * CSV ones. JSON has no token for NaN or an infinity, so a non-finite
 * f64 is written as `null`, as JavaScript's JSON.stringify does:
 * printing `inf` would make the whole document unparseable.
 * Header-only.
 */

#ifndef SONIC_UTIL_JSON_HH
#define SONIC_UTIL_JSON_HH

#include <cmath>
#include <concepts>
#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/fmt.hh"
#include "util/types.hh"

namespace sonic::json
{

/**
 * Streams JSON documents to an ostream. Items are separated by ", "
 * and keys by ": ", or by "," and ":" when compact (the Chrome export,
 * which that keeps ~15% smaller). Each outermost close ends its line.
 * Text reaches the stream in one write when an item of the outermost
 * container closes (a sink's row) or, at any close, past 4 KiB.
 */
class Writer
{
  public:
    explicit Writer(std::ostream &os, bool compact = false)
        : os_(os), compact_(compact)
    {
    }

    Writer &beginObject() { return open('{'); }
    Writer &beginArray() { return open('['); }

    /** Close the innermost container. A pending br() applies if the
     * container has items, or if it was asked for `evenEmpty`. */
    Writer &
    end()
    {
        const Level level = stack_.back();
        stack_.pop_back();
        if (level.items == 0 && !breakEvenEmpty_)
            break_ = -1;
        lineBreak();
        text_ += level.close;
        if (stack_.empty())
            text_ += '\n';
        if (stack_.size() <= 1 || text_.size() >= 4096) {
            os_.write(text_.data(),
                      static_cast<std::streamsize>(text_.size()));
            text_.clear();
        }
        return *this;
    }

    /** Put the next item, or the next close, on a new line indented by
     * `indent` spaces. */
    Writer &
    br(u32 indent, bool evenEmpty = false)
    {
        break_ = static_cast<i32>(indent);
        breakEvenEmpty_ = evenEmpty;
        return *this;
    }

    /** An object key; the next call writes its value. */
    Writer &
    key(std::string_view name)
    {
        value(name).text_ += compact_ ? ":" : ": ";
        keyed_ = true;
        return *this;
    }

    /** A string. Quotes, backslashes and every control byte are
     * escaped (names may come from users); all other bytes, UTF-8
     * included, pass through. */
    Writer &
    value(std::string_view s)
    {
        item();
        text_ += '"';
        for (const char c : s) {
            switch (c) {
              case '"': text_ += "\\\""; break;
              case '\\': text_ += "\\\\"; break;
              case '\n': text_ += "\\n"; break;
              case '\t': text_ += "\\t"; break;
              case '\r': text_ += "\\r"; break;
              default:
                if (static_cast<unsigned char>(c) >= 0x20) {
                    text_ += c;
                } else {
                    char escape[8];
                    std::snprintf(escape, sizeof escape, "\\u%04x",
                                  static_cast<unsigned char>(c));
                    text_ += escape;
                }
            }
        }
        text_ += '"';
        return *this;
    }

    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(bool b) { return number(b ? "true" : "false"); }

    template <std::integral T>
    Writer &value(T v) { return number(std::to_string(v)); }

    Writer &
    value(f64 v)
    {
        return number(std::isfinite(v) ? fmtF64(v) : "null");
    }

    /** A number the caller formatted itself (a fixed-point stamp). */
    Writer &number(std::string_view t) { item(); text_ += t; return *this; }

    template <typename T>
    Writer &field(std::string_view k, const T &v) { return key(k).value(v); }

    /** An inline array of `each(v)` for every element of `values`. */
    template <typename Range, typename Fn = std::identity>
    Writer &
    array(const Range &values, Fn each = {})
    {
        beginArray();
        for (const auto &v : values)
            value(each(v));
        return end();
    }

  private:
    struct Level
    {
        char close;
        u64 items = 0;
    };

    Writer &
    open(char bracket)
    {
        number(std::string_view(&bracket, 1));
        stack_.push_back({bracket == '{' ? '}' : ']'});
        return *this;
    }

    /** The separator before an item, then any break asked for. A value
     * after its key takes neither. */
    void
    item()
    {
        if (keyed_) {
            keyed_ = false;
        } else if (!stack_.empty()) {
            if (stack_.back().items++ > 0)
                text_ += compact_ || break_ >= 0 ? "," : ", ";
            lineBreak();
        }
    }

    void
    lineBreak()
    {
        if (break_ >= 0)
            text_.append("\n").append(static_cast<u64>(break_), ' ');
        break_ = -1;
    }

    std::ostream &os_;
    bool compact_;
    std::string text_; ///< written, not yet on the stream
    std::vector<Level> stack_;
    bool keyed_ = false; ///< a key waits for its value
    i32 break_ = -1;     ///< indent of the pending break, or -1
    bool breakEvenEmpty_ = false;
};

} // namespace sonic::json

#endif // SONIC_UTIL_JSON_HH
