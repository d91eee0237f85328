/**
 * @file
 * Bundled TraceSink implementations.
 *
 * - NullSink: discards everything (an explicit "tracing off").
 * - CountingSink: per-kind event counters, for tests and cheap
 *   aggregate checks.
 * - RingBufferSink: retains the last N events for post-mortem dumps
 *   (attach one and print it from an invariant-failure handler).
 * - JsonlFileSink: streams every event as one JSON line to a file.
 */

#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace rmb {
namespace obs {

/** Sink that drops every event. */
class NullSink final : public TraceSink
{
  public:
    void onEvent(const TraceEvent &) override {}
};

/** Sink that counts events per kind. */
class CountingSink final : public TraceSink
{
  public:
    void
    onEvent(const TraceEvent &event) override
    {
        ++counts_[static_cast<std::size_t>(event.kind)];
        ++total_;
    }

    std::uint64_t
    count(EventKind kind) const
    {
        return counts_[static_cast<std::size_t>(kind)];
    }

    std::uint64_t total() const { return total_; }

    void
    reset()
    {
        counts_.fill(0);
        total_ = 0;
    }

  private:
    std::array<std::uint64_t, kNumEventKinds> counts_{};
    std::uint64_t total_ = 0;
};

/**
 * Sink retaining the last @p capacity events in a circular buffer.
 * Intended as a flight recorder: cheap enough to leave attached, and
 * dump() renders the tail as JSONL when something goes wrong.
 */
class RingBufferSink final : public TraceSink
{
  public:
    explicit RingBufferSink(std::size_t capacity);

    void onEvent(const TraceEvent &event) override;

    /** Total events ever seen (retained + overwritten). */
    std::uint64_t seen() const { return seen_; }

    std::size_t capacity() const { return capacity_; }

    /** Retained events, oldest first. */
    std::vector<TraceEvent> events() const;

    /** Render the retained events as JSONL, oldest first. */
    void dump(std::ostream &os) const;

    /**
     * Flight-recorder dump: the retained tail as human-readable
     * lines (obs::formatEvent), oldest first, with a header giving
     * the seen/retained counts.  Wired into the panic path by
     * net::Network::setTraceSink.
     */
    void postMortem(std::ostream &os) const override;

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> buffer_;
    std::size_t next_ = 0;
    std::uint64_t seen_ = 0;
};

/**
 * Sink fanning every event out to two downstream sinks (either may
 * be nullptr).  Lets a run keep a CountingSink attached alongside a
 * JsonlFileSink without the network knowing.  postMortem() forwards
 * to both, first sink first.
 */
class TeeSink final : public TraceSink
{
  public:
    TeeSink(TraceSink *first, TraceSink *second)
        : first_(first), second_(second)
    {}

    void
    onEvent(const TraceEvent &event) override
    {
        if (first_)
            first_->onEvent(event);
        if (second_)
            second_->onEvent(event);
    }

    void
    postMortem(std::ostream &os) const override
    {
        if (first_)
            first_->postMortem(os);
        if (second_)
            second_->postMortem(os);
    }

  private:
    TraceSink *first_;
    TraceSink *second_;
};

/**
 * Sink streaming events to @p path as JSON lines.  Fails fast (via
 * fatal) if the file cannot be opened or a write fails, so a traced
 * run never silently produces a truncated file.
 */
class JsonlFileSink final : public TraceSink
{
  public:
    explicit JsonlFileSink(const std::string &path);
    ~JsonlFileSink() override;

    void onEvent(const TraceEvent &event) override;

    /** Events written so far. */
    std::uint64_t written() const { return written_; }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::ofstream out_;
    std::uint64_t written_ = 0;
};

} // namespace obs
} // namespace rmb
