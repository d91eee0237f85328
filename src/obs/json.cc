#include "obs/json.hh"

#include <cmath>
#include <cstdio>

#include "common/table.hh"
#include "obs/json_value.hh"

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

bool
jsonValid(const std::string &text)
{
    JsonValue v;
    std::string error;
    return jsonParse(text, v, error);
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
