#include "obs/json_value.hh"

#include <cctype>
#include <cstdlib>
#include <limits>

#include "obs/json.hh"

namespace rmb {
namespace obs {

const char *
JsonValue::kindName() const
{
    switch (kind_) {
      case Kind::Null: return "null";
      case Kind::Bool: return "boolean";
      case Kind::Number: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

bool
JsonValue::asUint64(std::uint64_t &out) const
{
    if (kind_ != Kind::Number || string_.empty() ||
        string_[0] == '-') {
        return false;
    }
    for (const char c : string_) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false; // fractions / exponents are not integers
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(string_.c_str(), &end, 10);
    if (errno != 0 || end != string_.c_str() + string_.size())
        return false;
    out = v;
    return true;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : members_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::string
JsonValue::serialize() const
{
    switch (kind_) {
      case Kind::Null:
        return "null";
      case Kind::Bool:
        return bool_ ? "true" : "false";
      case Kind::Number:
        return string_; // the exact source token
      case Kind::String:
        return '"' + jsonEscape(string_) + '"';
      case Kind::Array: {
        std::string out = "[";
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i)
                out += ',';
            out += array_[i].serialize();
        }
        return out + ']';
      }
      case Kind::Object: {
        std::string out = "{";
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ',';
            out += '"' + jsonEscape(members_[i].first) + "\":";
            out += members_[i].second.serialize();
        }
        return out + '}';
      }
    }
    return "null";
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue j;
    j.kind_ = Kind::Bool;
    j.bool_ = v;
    return j;
}

JsonValue
JsonValue::makeNumber(double v, std::string token)
{
    JsonValue j;
    j.kind_ = Kind::Number;
    j.number_ = v;
    j.string_ = std::move(token);
    return j;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue j;
    j.kind_ = Kind::String;
    j.string_ = std::move(v);
    return j;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> v)
{
    JsonValue j;
    j.kind_ = Kind::Array;
    j.array_ = std::move(v);
    return j;
}

JsonValue
JsonValue::makeObject(Members v)
{
    JsonValue j;
    j.kind_ = Kind::Object;
    j.members_ = std::move(v);
    return j;
}

namespace {

/**
 * Recursive-descent parser: builds the value tree and reports *why*
 * a document is malformed.  jsonValid() (json.cc) is this parser too.
 */
class Parser
{
  public:
    explicit Parser(const std::string &s) : s_(s) {}

    bool
    run(JsonValue &out, std::string &error)
    {
        skipWs();
        if (!value(out)) {
            error = error_ + " (at byte " + std::to_string(i_) + ")";
            return false;
        }
        skipWs();
        if (i_ != s_.size()) {
            error = "trailing characters after the document (at byte " +
                    std::to_string(i_) + ")";
            return false;
        }
        return true;
    }

  private:
    bool
    fail(const std::string &why)
    {
        if (error_.empty())
            error_ = why;
        return false;
    }

    bool
    value(JsonValue &out)
    {
        if (depth_ > 256)
            return fail("nesting deeper than 256 levels");
        if (i_ >= s_.size())
            return fail("unexpected end of document");
        switch (s_[i_]) {
          case '{': return object(out);
          case '[': return array(out);
          case '"': return string(out);
          case 't': return literal("true", JsonValue::makeBool(true), out);
          case 'f': return literal("false", JsonValue::makeBool(false), out);
          case 'n': return literal("null", JsonValue::makeNull(), out);
          default: return number(out);
        }
    }

    bool
    object(JsonValue &out)
    {
        ++depth_;
        ++i_; // '{'
        JsonValue::Members members;
        skipWs();
        if (peek() == '}') {
            ++i_;
            --depth_;
            out = JsonValue::makeObject(std::move(members));
            return true;
        }
        while (true) {
            skipWs();
            JsonValue key;
            if (peek() != '"' || !string(key))
                return fail("expected a '\"key\"' in object");
            skipWs();
            if (peek() != ':')
                return fail("expected ':' after object key '" +
                            key.string() + "'");
            ++i_;
            skipWs();
            JsonValue v;
            if (!value(v))
                return false;
            members.emplace_back(key.string(), std::move(v));
            skipWs();
            if (peek() == ',') {
                ++i_;
                continue;
            }
            if (peek() == '}') {
                ++i_;
                --depth_;
                out = JsonValue::makeObject(std::move(members));
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array(JsonValue &out)
    {
        ++depth_;
        ++i_; // '['
        std::vector<JsonValue> elements;
        skipWs();
        if (peek() == ']') {
            ++i_;
            --depth_;
            out = JsonValue::makeArray(std::move(elements));
            return true;
        }
        while (true) {
            skipWs();
            JsonValue v;
            if (!value(v))
                return false;
            elements.push_back(std::move(v));
            skipWs();
            if (peek() == ',') {
                ++i_;
                continue;
            }
            if (peek() == ']') {
                ++i_;
                --depth_;
                out = JsonValue::makeArray(std::move(elements));
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    string(JsonValue &out)
    {
        ++i_; // '"'
        std::string text;
        while (i_ < s_.size()) {
            const char c = s_[i_];
            if (c == '"') {
                ++i_;
                out = JsonValue::makeString(std::move(text));
                return true;
            }
            if (c == '\\') {
                ++i_;
                if (i_ >= s_.size())
                    return fail("unterminated escape in string");
                switch (s_[i_]) {
                  case '"': text += '"'; break;
                  case '\\': text += '\\'; break;
                  case '/': text += '/'; break;
                  case 'b': text += '\b'; break;
                  case 'f': text += '\f'; break;
                  case 'n': text += '\n'; break;
                  case 'r': text += '\r'; break;
                  case 't': text += '\t'; break;
                  case 'u': {
                    unsigned code = 0;
                    for (int d = 0; d < 4; ++d) {
                        ++i_;
                        if (i_ >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[i_]))) {
                            return fail("bad \\u escape in string");
                        }
                        const char h = s_[i_];
                        code = code * 16 +
                               (std::isdigit(
                                    static_cast<unsigned char>(h))
                                    ? static_cast<unsigned>(h - '0')
                                    : static_cast<unsigned>(
                                          std::tolower(h) - 'a') +
                                          10);
                    }
                    // UTF-8 encode the BMP code point (surrogate
                    // pairs are passed through as two code points;
                    // the emitters never produce them).
                    if (code < 0x80) {
                        text += static_cast<char>(code);
                    } else if (code < 0x800) {
                        text += static_cast<char>(0xc0 | (code >> 6));
                        text +=
                            static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        text +=
                            static_cast<char>(0xe0 | (code >> 12));
                        text += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3f));
                        text +=
                            static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape in string");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return fail("raw control character in string");
            } else {
                text += c;
            }
            ++i_;
        }
        return fail("unterminated string");
    }

    bool
    number(JsonValue &out)
    {
        const std::size_t start = i_;
        if (peek() == '-')
            ++i_;
        if (!digits())
            return fail("expected a value");
        if (peek() == '.') {
            ++i_;
            if (!digits())
                return fail("digits must follow '.' in number");
        }
        if (peek() == 'e' || peek() == 'E') {
            ++i_;
            if (peek() == '+' || peek() == '-')
                ++i_;
            if (!digits())
                return fail("digits must follow exponent in number");
        }
        std::string token = s_.substr(start, i_ - start);
        const double v = std::strtod(token.c_str(), nullptr);
        out = JsonValue::makeNumber(v, std::move(token));
        return true;
    }

    bool
    digits()
    {
        const std::size_t start = i_;
        while (i_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[i_]))) {
            ++i_;
        }
        return i_ > start;
    }

    bool
    literal(const char *word, JsonValue v, JsonValue &out)
    {
        for (const char *p = word; *p; ++p, ++i_) {
            if (i_ >= s_.size() || s_[i_] != *p)
                return fail(std::string("bad literal (expected '") +
                            word + "')");
        }
        out = std::move(v);
        return true;
    }

    char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

    void
    skipWs()
    {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
                s_[i_] == '\r')) {
            ++i_;
        }
    }

    const std::string &s_;
    std::size_t i_ = 0;
    int depth_ = 0;
    std::string error_;
};

} // namespace

bool
jsonParse(const std::string &text, JsonValue &out, std::string &error)
{
    return Parser(text).run(out, error);
}

} // namespace obs
} // namespace rmb
