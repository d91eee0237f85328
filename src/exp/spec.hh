/**
 * @file
 * Declarative sweep specifications.
 *
 * A SweepSpec describes a grid of independent simulator
 * configurations - the shape behind every figure of the paper
 * (saturation curves, k-sweeps, ablations): a base point, a list of
 * axes over its fields, and a combination mode (cartesian product or
 * zipped tuples).  Specs load from JSON (see docs/SWEEPS.md for the
 * schema) and validate with one actionable message per problem, in
 * the style of RmbConfig::validate().
 *
 * Every run-recipe field is one row of a static table in spec.cc:
 * name, member (of PointConfig or of its core::RmbConfig), value kind
 * and range, doc line and echo rule.  set(), knownFields(), the
 * canonical echo, the recipe digest and rmbsim's flags and --help are
 * all derived from it, so adding a field is one row.
 *
 * Each materialised PointConfig carries its own seed, derived from
 * the spec's master seed with sim::Random::split(index), so any
 * subset of points can be re-run in any order - or on any number of
 * worker threads - without changing a single result.  A spec with
 * `replicas: R` runs every grid point R times instead, replica r of
 * every point seeded split(r), so the rows of a table compare the
 * same workloads.  Its `tables` lay metrics of the grid out as
 * TextTables (docs/SWEEPS.md).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json_value.hh"
#include "rmb/config.hh"
#include "sim/types.hh"

namespace rmb {
namespace exp {

/**
 * One grid point: a complete, self-contained simulation recipe.
 * rmbsim parses its command line into one of these too.
 */
struct PointConfig
{
    /** Position in the materialised grid (stable output order). */
    std::size_t index = 0;

    /** Human-readable "field=value" summary of the axis choices. */
    std::string label;

    /** Per-point seed split from the spec's master seed. */
    std::uint64_t seed = 1;

    std::string network = "rmb";
    std::uint32_t nodes = 16;
    std::uint32_t buses = 4;
    std::uint32_t width = 4;  //!< torus / mesh only
    std::uint32_t height = 4; //!< torus / mesh only
    std::string dims = "4x4x4";   //!< grid only

    std::string workload = "randperm";
    double rate = 0.001;          //!< stochastic workloads
    std::uint32_t payload = 32;   //!< data flits per message
    sim::Tick duration = 50'000;  //!< stochastic generation window

    std::string engine = "event";  //!< rmb backend: event | kernel
    std::string topology = "flat"; //!< flat | hier (network=rmb only)
    std::string blocking = "nack"; //!< nack | wait | wait:<t>
    std::string header = "lowest"; //!< lowest | straight

    /**
     * Every other RMB setting of the recipe (compaction, hier shape,
     * ports, flits, faults, watchdog, retry cap): the field table
     * writes these members directly and rmbConfig() starts from
     * them.  Its shape fields (numNodes, numBuses, engine, topology,
     * headerPolicy, blocking), seed and verify level are set there
     * from the words above and the caller's choices.
     */
    core::RmbConfig rmb;

    /**
     * Sample a per-point timeline every this many ticks (0 = off).
     * Samples ride the point's own event queue, so the series is a
     * pure function of the point config and seed - byte-identical
     * for any --jobs - and lands in the report's point object as a
     * "timeline" member (docs/SWEEPS.md).
     */
    sim::Tick timelinePeriod = 0;

    /**
     * Simulated-tick budget: batch workloads abort (point marked
     * incomplete, sweep continues) after this many ticks; stochastic
     * workloads use it as the post-generation drain bound.  This is
     * what keeps one diverging configuration from hanging a sweep.
     */
    sim::Tick timeout = 10'000'000;

    /** Axis assignments applied to this point, in axis order, as
     *  (field, serialised JSON value) - for report "params". */
    std::vector<std::pair<std::string, std::string>> params;

    /**
     * Assign @p value to the field named @p field.
     * @return empty string on success, else one actionable error
     * ("unknown field", "expects a number", ...).
     */
    std::string set(const std::string &field,
                    const obs::JsonValue &value);

    /**
     * Command-line spelling of the field table: `--` + field name
     * with `_` -> `-`, plus the table's aliases (`--jobs`,
     * `--ports S,R`, `--fault-mttr MIN,MAX`, `--no-compaction`).
     * If @p arg is a recipe flag, apply it with its value taken from
     * @p next (nullptr at the end of argv) and @return how many
     * arguments after @p arg it consumed (0 or 1); a bad or missing
     * value sets @p error.  @return -1 if @p arg is not a recipe flag.
     */
    int applyFlag(const std::string &arg, const char *next,
                  std::string &error);

    /** `--help` lines for every recipe flag, from the table. */
    static std::string flagHelp();

    /** All settable field names, for error messages and docs. */
    static const std::vector<std::string> &knownFields();

    /** Compact canonical JSON object of the recipe fields - the
     *  spec's "base" echo.  Omits shard_jobs (result-neutral) and
     *  the opt-in fields still at their defaults. */
    std::string canonicalJson() const;

    /**
     * FNV-1a digest (hex) of canonicalJson(), then '|' and
     * @p extra: identifies a run recipe in report provenance.
     * shard_jobs never changes it.
     */
    std::string digest(const std::string &extra = "") const;
};

/** One swept dimension: a field name and its candidate values. */
struct Axis
{
    std::string field;
    std::vector<obs::JsonValue> values;
};

/** A point metric, read where the axes also hold the @p at values
 *  (axis field, serialised JSON value). */
struct MetricRef
{
    std::string metric;
    std::vector<std::pair<std::string, std::string>> at;
};

/** A table column: a row axis, one metric, or a ratio of two. */
struct Column
{
    std::string header;
    std::string axis;            //!< non-empty: an axis column
    std::vector<MetricRef> refs; //!< one metric, or a ratio's two
    int digits = 2;              //!< decimals of a metric or ratio
};

/** One row per value of the row axes, one table per split value. */
struct TableSpec
{
    std::string title;
    std::vector<std::string> rows;
    std::string split;
    std::vector<Column> columns;
};

/** One table laid out over the grid points. */
struct TableLayout
{
    std::string caption;
    /** [row][column]: the axis columns' cells, empty for metrics. */
    std::vector<std::vector<std::string>> text;
    /** [row][column][term]: grid index, or npos if none holds it. */
    std::vector<std::vector<std::vector<std::size_t>>> cells;
};

/** How axes combine into grid points. */
enum class SweepMode
{
    Cartesian, //!< every combination; last axis varies fastest
    Zip,       //!< i-th values of all axes together (equal lengths)
};

/** A declarative sweep: base point + axes + combination mode. */
class SweepSpec
{
  public:
    /**
     * Parse @p text.  @return true and fill @p out on success; on
     * failure @p errors gets one actionable message per problem
     * (syntax, unknown fields, zip length mismatch, ...).
     */
    static bool fromJson(const std::string &text, SweepSpec &out,
                         std::vector<std::string> &errors);

    /** fromJson() over the contents of @p path. */
    static bool fromFile(const std::string &path, SweepSpec &out,
                         std::vector<std::string> &errors);

    const std::string &name() const { return name_; }
    SweepMode mode() const { return mode_; }
    std::uint64_t masterSeed() const { return masterSeed_; }
    const PointConfig &base() const { return base_; }
    const std::vector<Axis> &axes() const { return axes_; }
    /** Runs per grid point; 0 when the spec sets no `replicas`. */
    std::uint32_t replicas() const { return replicas_; }
    const std::vector<TableSpec> &tables() const { return tables_; }

    /** Override the master seed (CLI --seed). */
    void setMasterSeed(std::uint64_t seed) { masterSeed_ = seed; }

    /** Override the replica count (CLI --replicas). */
    void setReplicas(std::uint32_t replicas) { replicas_ = replicas; }

    /** PointConfig::applyFlag on the base, which here also takes
     *  the sweep-only fields (--timeout, --timeline-period); refuses
     *  an axis field, whose axis values would replace the override. */
    int applyFlag(const std::string &arg, const char *next,
                  std::string &error);

    /** Number of grid points (each runs max(1, replicas()) times). */
    std::size_t pointCount() const;

    /**
     * Materialise the runs: apply each axis combination to a copy of
     * the base point, label it, and split its seed from the master
     * seed - by grid index, or with replicas by replica number, each
     * grid point then appearing replicas() times in a row.  Runs come
     * back in stable grid order.
     */
    std::vector<PointConfig> points() const;

    /**
     * Lay table @p t out over @p runs (as points() returns them), one
     * layout per split value: a row holds the grid points sharing its
     * row-axis values, a cell term the one of them holding its `at`
     * values.  Sets @p error if a term matches two points.
     */
    std::vector<TableLayout> layout(const TableSpec &t,
                                    const std::vector<PointConfig> &runs,
                                    std::string &error) const;

    /** Compact canonical serialisation (embedded in reports so a
     *  sweep artifact is self-describing). */
    std::string canonicalJson() const;

  private:
    std::string name_ = "sweep";
    SweepMode mode_ = SweepMode::Cartesian;
    std::uint64_t masterSeed_ = 1;
    std::uint32_t replicas_ = 0;
    PointConfig base_;
    std::vector<Axis> axes_;
    std::vector<TableSpec> tables_;
};

} // namespace exp
} // namespace rmb
