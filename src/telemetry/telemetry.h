// Telemetry: the bundle a middleware instance carries — one MetricsRegistry,
// one SpanTracer, one EventJournal, sharing a virtual clock and a master
// enable switch.
//
// The bundle owns no policy about *what* gets recorded; layers hold a
// Telemetry* and instrument themselves (ScopedSpan for paired begin/end,
// registry references for counters). Completed spans are mirrored into the
// journal automatically so a post-mortem dump interleaves bus events with
// the spans that surrounded them.
//
// Telemetry depends only on common/ (SimClock is header-only), so every
// layer — net, swap, prefetch, policy — can link it without cycles.
#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "net/sim_clock.h"
#include "telemetry/journal.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace obiswap::telemetry {

class Telemetry {
 public:
  /// Entries the event journal keeps before it overwrites the oldest.
  static constexpr size_t kJournalCapacity = 256;

  struct Options {
    size_t tracer_capacity = 8192;
  };

  Telemetry() : Telemetry(Options{}) {}
  explicit Telemetry(const Options& options);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  SpanTracer& tracer() { return tracer_; }
  const SpanTracer& tracer() const { return tracer_; }
  EventJournal& journal() { return journal_; }
  const EventJournal& journal() const { return journal_; }

  void AttachClock(const net::SimClock* clock);
  const net::SimClock* clock() const { return clock_; }
  uint64_t now_us() const { return clock_ == nullptr ? 0 : clock_->now_us(); }

  /// Master switch: off stops span recording and journal entries. Metric
  /// cells stay writable (callers bump references they already hold), so
  /// stats output is identical either way — see the parity test.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  /// Exports the tracer's retained spans as Chrome trace_event JSON at
  /// `path`.
  Status DumpTrace(const std::string& path) const;

 private:
  MetricsRegistry metrics_;
  SpanTracer tracer_;
  EventJournal journal_;
  const net::SimClock* clock_ = nullptr;
  bool enabled_ = true;
};

/// RAII span: opens on construction, closes (and optionally records the
/// duration into a histogram) on Close()/destruction. Everything is a no-op
/// when `telemetry` is null or disabled, so call sites stay unconditional:
///
///   ScopedSpan span(telemetry_, "swap_out", "swap",
///                   Hist(telemetry_, "swap_out_us"));
class ScopedSpan {
 public:
  ScopedSpan(Telemetry* telemetry, std::string_view name,
             std::string_view category, Histogram* histogram = nullptr);
  ~ScopedSpan() { Close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Idempotent early close — ends the span and records the histogram
  /// sample now instead of at scope exit.
  void Close();

 private:
  Telemetry* telemetry_;
  Histogram* histogram_;
  SpanTracer::SpanToken token_ = SpanTracer::kInvalidSpan;
  uint64_t start_us_ = 0;
};

/// Histogram lookup that tolerates a null bundle — pairs with ScopedSpan.
inline Histogram* Hist(Telemetry* telemetry, std::string_view name) {
  return telemetry == nullptr ? nullptr
                              : &telemetry->metrics().GetHistogram(name);
}

}  // namespace obiswap::telemetry
