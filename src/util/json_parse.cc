#include "util/json_parse.hh"

#include <charconv>
#include <cstring>

namespace sonic::jsonp
{

namespace
{

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(JsonValue *out)
    {
        if (!value(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing garbage after the document");
        return true;
    }

  private:
    bool
    fail(const std::string &message)
    {
        if (error_->empty())
            *error_ = "JSON parse error at byte "
                    + std::to_string(pos_) + ": " + message;
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\t'
                   || text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word, JsonValue value, JsonValue *out)
    {
        const u64 len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return fail("invalid token");
        pos_ += len;
        *out = std::move(value);
        return true;
    }

    bool
    value(JsonValue *out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        const char c = text_[pos_];
        if (c == '{')
            return object(out);
        if (c == '[')
            return array(out);
        if (c == '"') {
            std::string s;
            if (!string(&s))
                return false;
            out->v = std::move(s);
            return true;
        }
        if (c == 't')
            return literal("true", JsonValue{true}, out);
        if (c == 'f')
            return literal("false", JsonValue{false}, out);
        if (c == 'n')
            return literal("null", JsonValue{nullptr}, out);
        return number(out);
    }

    bool
    object(JsonValue *out)
    {
        ++pos_; // '{'
        auto obj = std::make_shared<JsonObject>();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            out->v = std::move(obj);
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (!string(&key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            JsonValue member;
            if (!value(&member))
                return false;
            (*obj)[std::move(key)] = std::move(member);
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                out->v = std::move(obj);
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array(JsonValue *out)
    {
        ++pos_; // '['
        auto arr = std::make_shared<JsonArray>();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            out->v = std::move(arr);
            return true;
        }
        for (;;) {
            JsonValue element;
            if (!value(&element))
                return false;
            arr->push_back(std::move(element));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                out->v = std::move(arr);
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    string(std::string *out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected a string");
        ++pos_;
        out->clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                const char e = text_[pos_++];
                switch (e) {
                  case '"': out->push_back('"'); break;
                  case '\\': out->push_back('\\'); break;
                  case '/': out->push_back('/'); break;
                  case 'n': out->push_back('\n'); break;
                  case 't': out->push_back('\t'); break;
                  case 'r': out->push_back('\r'); break;
                  case 'b': out->push_back('\b'); break;
                  case 'f': out->push_back('\f'); break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    u32 code = 0;
                    for (u32 i = 0; i < 4; ++i) {
                        const int d = hexDigit(text_[pos_ + i]);
                        if (d < 0)
                            return fail("invalid \\u escape");
                        code = (code << 4) | static_cast<u32>(d);
                    }
                    pos_ += 4;
                    if (code > 0x7f)
                        return fail("non-ASCII \\u escape unsupported");
                    out->push_back(static_cast<char>(code));
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            out->push_back(c);
        }
        return fail("unterminated string");
    }

    bool
    number(JsonValue *out)
    {
        const u64 start = pos_;
        if (pos_ < text_.size()
            && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        bool digits = false;
        while (pos_ < text_.size()
               && ((text_[pos_] >= '0' && text_[pos_] <= '9')
                   || text_[pos_] == '.' || text_[pos_] == 'e'
                   || text_[pos_] == 'E' || text_[pos_] == '-'
                   || text_[pos_] == '+')) {
            if (text_[pos_] >= '0' && text_[pos_] <= '9')
                digits = true;
            ++pos_;
        }
        if (!digits)
            return fail("invalid number");
        // from_chars, not stod: stod throws on a subnormal such as
        // 5e-324, which the writer emits. Parsing only a valid prefix
        // of a malformed token (e.g. "6..2e+-") is not acceptance.
        const char *last = text_.data() + pos_;
        f64 value = 0.0;
        const auto [stop, ec] =
            std::from_chars(text_.data() + start, last, value);
        if (ec != std::errc() || stop != last)
            return fail("invalid number");
        out->v = value;
        return true;
    }

    const std::string &text_;
    std::string *error_;
    u64 pos_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue *out, std::string *error)
{
    JsonParser parser(text, error);
    return parser.parse(out);
}

bool
getString(const JsonObject &obj, const char *key, std::string *out,
          std::string *error, const std::string &ctx)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.string() == nullptr) {
        *error = ctx + ": missing or non-string field \"" + key + "\"";
        return false;
    }
    *out = *it->second.string();
    return true;
}

bool
getU32(const JsonObject &obj, const char *key, u32 *out,
       std::string *error, const std::string &ctx)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.number() == nullptr) {
        *error = ctx + ": missing or non-numeric field \"" + key + "\"";
        return false;
    }
    const f64 v = *it->second.number();
    if (v < 0 || v > 4294967295.0
        || v != static_cast<f64>(static_cast<u64>(v))) {
        *error = ctx + ": field \"" + key
               + "\" is not an unsigned integer";
        return false;
    }
    *out = static_cast<u32>(v);
    return true;
}

bool
getU64(const JsonObject &obj, const char *key, u64 *out,
       std::string *error, const std::string &ctx)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.number() == nullptr) {
        *error = ctx + ": missing or non-numeric field \"" + key + "\"";
        return false;
    }
    const f64 v = *it->second.number();
    // Doubles hold 53 integer bits exactly; seeds beyond that are
    // serialized as strings by the emitters, not numbers.
    if (v < 0 || v > 9007199254740992.0
        || v != static_cast<f64>(static_cast<u64>(v))) {
        *error = ctx + ": field \"" + key
               + "\" is not an unsigned integer";
        return false;
    }
    *out = static_cast<u64>(v);
    return true;
}

bool
getF64(const JsonObject &obj, const char *key, f64 *out,
       std::string *error, const std::string &ctx)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.number() == nullptr) {
        *error = ctx + ": missing or non-numeric field \"" + key + "\"";
        return false;
    }
    *out = *it->second.number();
    return true;
}

bool
getBool(const JsonObject &obj, const char *key, bool *out,
        std::string *error, const std::string &ctx)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.boolean() == nullptr) {
        *error = ctx + ": missing or non-boolean field \"" + key + "\"";
        return false;
    }
    *out = *it->second.boolean();
    return true;
}

} // namespace sonic::jsonp
