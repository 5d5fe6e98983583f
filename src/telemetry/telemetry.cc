#include "telemetry/telemetry.h"

namespace obiswap::telemetry {

Telemetry::Telemetry(const Options& options)
    : tracer_(options.tracer_capacity), journal_(kJournalCapacity) {
  tracer_.SetCompletedSink([this](const SpanTracer::CompletedSpan& span) {
    journal_.Record("span", span.name,
                    "cat=" + span.category +
                        " start_us=" + std::to_string(span.start_us) +
                        " dur_us=" + std::to_string(span.dur_us));
  });
}

void Telemetry::AttachClock(const net::SimClock* clock) {
  clock_ = clock;
  tracer_.AttachClock(clock);
  journal_.AttachClock(clock);
}

void Telemetry::set_enabled(bool enabled) {
  enabled_ = enabled;
  tracer_.set_enabled(enabled);
  journal_.set_enabled(enabled);
}

Status Telemetry::DumpTrace(const std::string& path) const {
  if (!tracer_.WriteChromeTrace(path)) {
    return InternalError("failed to write trace to " + path);
  }
  return Status::Ok();
}

ScopedSpan::ScopedSpan(Telemetry* telemetry, std::string_view name,
                       std::string_view category, Histogram* histogram)
    : telemetry_(telemetry), histogram_(histogram) {
  if (telemetry_ == nullptr || !telemetry_->enabled()) {
    telemetry_ = nullptr;
    return;
  }
  start_us_ = telemetry_->now_us();
  token_ = telemetry_->tracer().Begin(name, category);
}

void ScopedSpan::Close() {
  if (telemetry_ == nullptr) return;
  telemetry_->tracer().End(token_);
  if (histogram_ != nullptr) {
    const uint64_t end_us = telemetry_->now_us();
    histogram_->Record(end_us >= start_us_ ? end_us - start_us_ : 0);
  }
  telemetry_ = nullptr;
}

}  // namespace obiswap::telemetry
