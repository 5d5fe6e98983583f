#include "telemetry/tracer.h"

#include <cstdio>

#include "telemetry/metrics.h"

namespace obiswap::telemetry {

SpanTracer::SpanTracer(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {
  ring_.resize(capacity_);
  open_.reserve(16);
}

SpanTracer::SpanToken SpanTracer::Begin(std::string_view name,
                                        std::string_view category) {
  if (!enabled_) return kInvalidSpan;
  SpanToken token = next_token_++;
  open_.push_back(OpenSpan{token, std::string(name), std::string(category),
                           now_us(), track_,
                           static_cast<uint32_t>(open_.size())});
  return token;
}

void SpanTracer::End(SpanToken token) {
  if (token == kInvalidSpan) return;
  size_t at = open_.size();
  while (at > 0 && open_[at - 1].token != token) --at;
  if (at == 0) {
    // Not open: double close, or opened while the tracer was disabled.
    ++unbalanced_;
    return;
  }
  const uint64_t end_us = now_us();
  // Anything still open above `token` was leaked by its opener; close it at
  // the same instant so the trace stays well-nested.
  while (open_.size() > at) {
    ++unbalanced_;
    Complete(open_.back(), end_us);
    open_.pop_back();
  }
  Complete(open_.back(), end_us);
  open_.pop_back();
}

void SpanTracer::Complete(OpenSpan& span, uint64_t end_us) {
  CompletedSpan completed;
  completed.name = std::move(span.name);
  completed.category = std::move(span.category);
  completed.start_us = span.start_us;
  completed.dur_us = end_us >= span.start_us ? end_us - span.start_us : 0;
  completed.track = span.track;
  completed.depth = span.depth;
  if (sink_) sink_(completed);
  size_t slot;
  if (size_ < capacity_) {
    slot = (head_ + size_) % capacity_;
    ++size_;
  } else {
    slot = head_;  // overwrite the oldest
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
  ring_[slot] = std::move(completed);
}

void SpanTracer::BeginTrack(std::string_view label) {
  if (!enabled_) return;
  ++track_;
  tracks_.emplace_back(track_, std::string(label));
}

const SpanTracer::CompletedSpan& SpanTracer::completed(size_t index) const {
  return ring_[(head_ + index) % capacity_];
}

void SpanTracer::Clear() {
  head_ = 0;
  size_ = 0;
  open_.clear();
}

std::string SpanTracer::ToChromeTraceJson() const {
  std::string json = "{\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& event) {
    if (!first) json += ",";
    first = false;
    json += event;
  };
  for (const auto& [tid, label] : tracks_) {
    append("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
           JsonEscape(label) + "\"}}");
  }
  for (size_t i = 0; i < size_; ++i) {
    const CompletedSpan& span = completed(i);
    append("{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(span.track) +
           ",\"ts\":" + std::to_string(span.start_us) +
           ",\"dur\":" + std::to_string(span.dur_us) + ",\"name\":\"" +
           JsonEscape(span.name) + "\",\"cat\":\"" +
           JsonEscape(span.category) + "\"}");
  }
  json += "],\"displayTimeUnit\":\"ms\"}\n";
  return json;
}

bool SpanTracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string text = ToChromeTraceJson();
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return written == text.size();
}

}  // namespace obiswap::telemetry
