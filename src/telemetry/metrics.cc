#include "telemetry/metrics.h"

#include <cmath>

namespace obiswap::telemetry {

size_t Histogram::BucketIndex(uint64_t value) {
  if (value == 0) return 0;
  // 1 + floor(log2(value)): value 1 → bucket 1, 2..3 → 2, 2^k.. → k+1,
  // UINT64_MAX → 64.
  size_t index = 0;
  while (value != 0) {
    value >>= 1;
    ++index;
  }
  return index;
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index == 0) return 0;
  if (index >= kBucketCount - 1) return UINT64_MAX;
  return (uint64_t{1} << index) - 1;
}

void Histogram::Record(uint64_t value) {
  ++buckets_[BucketIndex(value)];
  ++count_;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

uint64_t Histogram::ValueAtPercentile(double percentile) const {
  if (count_ == 0) return 0;
  if (percentile <= 0.0) return min();
  if (percentile > 100.0) percentile = 100.0;
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(percentile / 100.0 *
                                      static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  if (rank > count_) rank = count_;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) return BucketUpperBound(i);
  }
  return max_;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return *it->second;
  counters_.emplace_back(std::string(name), Counter());
  auto& entry = counters_.back();
  counter_index_.emplace(entry.first, &entry.second);
  return entry.second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return *it->second;
  gauges_.emplace_back(std::string(name), Gauge());
  auto& entry = gauges_.back();
  gauge_index_.emplace(entry.first, &entry.second);
  return entry.second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return *it->second;
  histograms_.emplace_back(std::string(name), Histogram());
  auto& entry = histograms_.back();
  histogram_index_.emplace(entry.first, &entry.second);
  return entry.second;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  auto it = counter_index_.find(name);
  return it == counter_index_.end() ? nullptr : it->second;
}

const Histogram* MetricsRegistry::FindHistogram(
    std::string_view name) const {
  auto it = histogram_index_.find(name);
  return it == histogram_index_.end() ? nullptr : it->second;
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string MetricsRegistry::Json() const {
  std::string json = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) json += ",";
    first = false;
    json += "\"" + JsonEscape(name) + "\":" + std::to_string(counter.value());
  }
  json += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) json += ",";
    first = false;
    json += "\"" + JsonEscape(name) + "\":" + std::to_string(gauge.value());
  }
  json += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) json += ",";
    first = false;
    json += "\"" + JsonEscape(name) + "\":{\"count\":" +
            std::to_string(histogram.count()) +
            ",\"sum\":" + std::to_string(histogram.sum()) +
            ",\"min\":" + std::to_string(histogram.min()) +
            ",\"max\":" + std::to_string(histogram.max()) +
            ",\"p50\":" + std::to_string(histogram.ValueAtPercentile(50)) +
            ",\"p95\":" + std::to_string(histogram.ValueAtPercentile(95)) +
            ",\"p99\":" + std::to_string(histogram.ValueAtPercentile(99)) +
            "}";
  }
  json += "}}";
  return json;
}

}  // namespace obiswap::telemetry
