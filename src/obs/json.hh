/**
 * @file
 * Minimal JSON assembly and validation.
 *
 * JsonWriter builds one JSON document imperatively (objects, arrays,
 * scalar fields, pre-serialised raw inserts); it is the single
 * serialiser behind MetricsRegistry::snapshot(), RunReport and the
 * stats reports, so every machine-readable output of the project
 * escapes strings and renders numbers the same way.
 *
 * jsonValid() is jsonParse() (json_value.hh) with the tree and the
 * reason dropped: the syntax check the tests and the json_check tool
 * use to keep the emitters honest.
 */

#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace rmb {

class TextTable;

namespace obs {

/** Escape @p raw for inclusion inside a JSON string literal. */
std::string jsonEscape(const std::string &raw);

/** True iff @p text is one syntactically valid JSON value:
 *  whether jsonParse() accepts it. */
bool jsonValid(const std::string &text);

/** Join pre-serialised JSON values into one array document. */
std::string jsonArray(const std::vector<std::string> &elements);

/** @p table as the {caption, headers, rows} object that bench and
 *  sweep reports both carry in their "tables" array. */
std::string tableJson(const TextTable &table);

/**
 * Streaming JSON writer.  The caller is responsible for balanced
 * begin/end calls; keys are only valid inside objects, bare elements
 * only inside arrays.
 */
class JsonWriter
{
  public:
    /** Open an object; @p key empty at the top level / in arrays. */
    void
    beginObject(const std::string &key = "")
    {
        comma();
        writeKey(key);
        out_ << '{';
        first_ = true;
    }

    void
    endObject()
    {
        out_ << '}';
        first_ = false;
    }

    /** Open an array; @p key empty at the top level / in arrays. */
    void
    beginArray(const std::string &key = "")
    {
        comma();
        writeKey(key);
        out_ << '[';
        first_ = true;
    }

    void
    endArray()
    {
        out_ << ']';
        first_ = false;
    }

    void
    field(const std::string &key, std::uint64_t v)
    {
        comma();
        writeKey(key);
        out_ << v;
    }

    void
    field(const std::string &key, std::int64_t v)
    {
        comma();
        writeKey(key);
        out_ << v;
    }

    /** NaN / infinity (empty stats) are emitted as null. */
    void field(const std::string &key, double v);

    void
    field(const std::string &key, const std::string &v)
    {
        comma();
        writeKey(key);
        out_ << '"' << jsonEscape(v) << '"';
    }

    // Without this overload a string literal would convert to bool
    // (standard conversion outranks std::string's constructor) and
    // emit true/false instead of the string.
    void
    field(const std::string &key, const char *v)
    {
        field(key, std::string(v));
    }

    void
    field(const std::string &key, bool v)
    {
        comma();
        writeKey(key);
        out_ << (v ? "true" : "false");
    }

    /** Insert @p json (a pre-serialised value) under @p key. */
    void
    raw(const std::string &key, const std::string &json)
    {
        comma();
        writeKey(key);
        out_ << json;
    }

    /** Append one string element to the open array. */
    void
    element(const std::string &v)
    {
        comma();
        out_ << '"' << jsonEscape(v) << '"';
    }

    /** Append one pre-serialised element to the open array. */
    void
    elementRaw(const std::string &json)
    {
        comma();
        out_ << json;
    }

    std::string str() const { return out_.str(); }

  private:
    void
    comma()
    {
        if (!first_)
            out_ << ',';
        first_ = false;
    }

    void
    writeKey(const std::string &key)
    {
        if (!key.empty())
            out_ << '"' << jsonEscape(key) << "\":";
    }

    std::ostringstream out_;
    bool first_ = true;
};

} // namespace obs
} // namespace rmb
