// MetricsRegistry: named counters, gauges, and fixed-log2-bucket latency
// histograms for the swap pipeline.
//
// The paper's evaluation (§5) lives on per-phase timing over a slow link;
// the reproduction's perf claims need the same attribution. Counters and
// gauges are plain uint64 cells behind stable references — a hot path looks
// a metric up once and bumps it for the price of an increment. Histograms
// use 65 fixed power-of-two buckets (bucket 0 holds exact zeros, bucket i
// holds [2^(i-1), 2^i - 1]), so recording is a branch and a bit-scan, and
// p50/p95/p99 come out of a cumulative walk at export time. Everything is
// deterministic: same workload, same virtual clock, same numbers.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace obiswap::telemetry {

/// Monotonic event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time signed level (queue depth, free bytes, churn score).
class Gauge {
 public:
  void Set(int64_t value) { value_ = value; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Fixed-log2-bucket histogram over uint64 samples (latencies in virtual
/// microseconds, payload sizes in bytes). Exact min/max/sum/count are kept
/// alongside the buckets; percentiles resolve to the upper bound of the
/// bucket containing the requested rank.
class Histogram {
 public:
  /// Bucket 0: value 0. Bucket i (1..64): [2^(i-1), 2^i - 1].
  static constexpr size_t kBucketCount = 65;

  /// The bucket a value lands in: 0 for 0, else 1 + floor(log2(value)).
  static size_t BucketIndex(uint64_t value);
  /// Largest value bucket `index` can hold (UINT64_MAX for the last).
  static uint64_t BucketUpperBound(size_t index);

  void Record(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  /// Exact extremes of the recorded samples; 0 when empty.
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  uint64_t bucket(size_t index) const { return buckets_[index]; }

  /// Upper bound of the bucket holding the sample at rank
  /// ceil(percentile/100 * count); 0 when empty. `percentile` in (0, 100].
  uint64_t ValueAtPercentile(double percentile) const;

 private:
  std::array<uint64_t, kBucketCount> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

/// Name → metric directory. Get* creates on first use and returns a stable
/// reference (storage is a deque; nothing moves on growth). Iteration and
/// JSON export follow registration order, so exports are deterministic.
class MetricsRegistry {
 public:
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Lookup without creation; nullptr if the metric was never touched.
  const Counter* FindCounter(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  size_t counter_count() const { return counters_.size(); }
  size_t gauge_count() const { return gauges_.size(); }
  size_t histogram_count() const { return histograms_.size(); }

  /// Everything, as one JSON object: {"counters":{..},"gauges":{..},
  /// "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  /// "p50":..,"p95":..,"p99":..},..}}. Keys in registration order.
  std::string Json() const;

 private:
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, Histogram>> histograms_;
  std::unordered_map<std::string_view, Counter*> counter_index_;
  std::unordered_map<std::string_view, Gauge*> gauge_index_;
  std::unordered_map<std::string_view, Histogram*> histogram_index_;
};

/// Escapes quotes, backslashes and newlines for a JSON string literal.
/// Metric and span names are identifiers, so nothing else needs escaping.
std::string JsonEscape(const std::string& raw);

}  // namespace obiswap::telemetry
