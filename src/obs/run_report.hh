/**
 * @file
 * Machine-readable run reports.
 *
 * A RunReport is the JSON artifact a binary leaves behind for
 * scripting: tool identity, run parameters, result tables and any
 * embedded sub-documents (a stats report, a metrics snapshot).
 * Fields keep insertion order so reports diff cleanly between runs.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rmb {
namespace obs {

/** One JSON document describing one run of one binary. */
class RunReport
{
  public:
    /** @param tool binary name, e.g. "rmbsim" or "bench_compaction". */
    explicit RunReport(std::string tool);

    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, const char *value);
    void set(const std::string &key, std::uint64_t value);
    void set(const std::string &key, std::int64_t value);
    void set(const std::string &key, double value);
    void set(const std::string &key, bool value);

    /** Embed @p json (a pre-serialised JSON value) under @p key. */
    void setRaw(const std::string &key, std::string json);

    /** The whole report as one JSON object. */
    std::string toJson() const;

    /** Write toJson() plus a trailing newline; fatal on failure. */
    void write(const std::string &path) const;

  private:
    std::string tool_;
    /** (key, pre-serialised value), in insertion order. */
    std::vector<std::pair<std::string, std::string>> fields_;
};

} // namespace obs
} // namespace rmb
