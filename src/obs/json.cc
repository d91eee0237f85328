#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/table.hh"

namespace rmb {
namespace obs {

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::field(const std::string &key, double v)
{
    comma();
    writeKey(key);
    if (std::isnan(v) || std::isinf(v))
        out_ << "null";
    else
        out_ << v;
}

namespace {

/** Recursive-descent JSON validator over @p s, cursor at @p i. */
class Validator
{
  public:
    explicit Validator(const std::string &s) : s_(s) {}

    bool
    run()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return i_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (depth_ > 256 || i_ >= s_.size())
            return false;
        switch (s_[i_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++depth_;
        ++i_; // '{'
        skipWs();
        if (peek() == '}') {
            ++i_;
            --depth_;
            return true;
        }
        while (true) {
            skipWs();
            if (peek() != '"' || !string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++i_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++i_;
                continue;
            }
            if (peek() == '}') {
                ++i_;
                --depth_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++depth_;
        ++i_; // '['
        skipWs();
        if (peek() == ']') {
            ++i_;
            --depth_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++i_;
                continue;
            }
            if (peek() == ']') {
                ++i_;
                --depth_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        ++i_; // '"'
        while (i_ < s_.size()) {
            const char c = s_[i_];
            if (c == '"') {
                ++i_;
                return true;
            }
            if (c == '\\') {
                ++i_;
                if (i_ >= s_.size())
                    return false;
                const char e = s_[i_];
                if (e == 'u') {
                    for (int d = 0; d < 4; ++d) {
                        ++i_;
                        if (i_ >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[i_]))) {
                            return false;
                        }
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false;
            }
            ++i_;
        }
        return false;
    }

    bool
    number()
    {
        const std::size_t start = i_;
        if (peek() == '-')
            ++i_;
        if (!digits())
            return false;
        if (peek() == '.') {
            ++i_;
            if (!digits())
                return false;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++i_;
            if (peek() == '+' || peek() == '-')
                ++i_;
            if (!digits())
                return false;
        }
        return i_ > start;
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
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++i_) {
            if (i_ >= s_.size() || s_[i_] != *p)
                return false;
        }
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
};

} // namespace

bool
jsonValid(const std::string &text)
{
    return Validator(text).run();
}

std::string
jsonArray(const std::vector<std::string> &elements)
{
    std::string out = "[";
    for (std::size_t i = 0; i < elements.size(); ++i) {
        if (i)
            out += ',';
        out += elements[i];
    }
    return out + ']';
}

std::string
tableJson(const TextTable &table)
{
    JsonWriter json;
    json.beginObject();
    json.field("caption", table.caption());
    json.beginArray("headers");
    for (const auto &h : table.headers())
        json.element(h);
    json.endArray();
    json.beginArray("rows");
    for (const auto &row : table.rows()) {
        json.beginArray();
        for (const auto &cell : row)
            json.element(cell);
        json.endArray();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

} // namespace obs
} // namespace rmb
