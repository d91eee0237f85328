#include "obs/sinks.hh"

#include <ostream>

#include "common/logging.hh"

namespace rmb {
namespace obs {

RingBufferSink::RingBufferSink(std::size_t capacity)
    : capacity_(capacity)
{
    rmb_assert(capacity_ > 0, "RingBufferSink needs capacity >= 1");
    buffer_.reserve(capacity_);
}

void
RingBufferSink::onEvent(const TraceEvent &event)
{
    if (buffer_.size() < capacity_) {
        buffer_.push_back(event);
    } else {
        buffer_[next_] = event;
    }
    next_ = (next_ + 1) % capacity_;
    ++seen_;
}

std::vector<TraceEvent>
RingBufferSink::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(buffer_.size());
    if (buffer_.size() < capacity_) {
        // Not yet wrapped: insertion order is already oldest-first.
        out = buffer_;
        return out;
    }
    for (std::size_t i = 0; i < capacity_; ++i)
        out.push_back(buffer_[(next_ + i) % capacity_]);
    return out;
}

void
RingBufferSink::dump(std::ostream &os) const
{
    for (const TraceEvent &event : events())
        os << toJsonLine(event) << '\n';
}

void
RingBufferSink::postMortem(std::ostream &os) const
{
    os << "=== trace flight recorder: last " << buffer_.size()
       << " of " << seen_ << " events ===\n";
    for (const TraceEvent &event : events())
        os << formatEvent(event) << '\n';
}

JsonlFileSink::JsonlFileSink(const std::string &path)
    : path_(path), out_(path)
{
    if (!out_)
        fatal("cannot open trace file '", path_, "' for writing");
}

JsonlFileSink::~JsonlFileSink()
{
    out_.flush();
}

void
JsonlFileSink::onEvent(const TraceEvent &event)
{
    out_ << toJsonLine(event) << '\n';
    if (!out_)
        fatal("write to trace file '", path_, "' failed");
    ++written_;
}

} // namespace obs
} // namespace rmb
