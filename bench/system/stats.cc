#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sysbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

double BlockPercentile(const std::vector<double>& samples, double p,
                       size_t blocks) {
  if (blocks == 0 || samples.size() < blocks) return Percentile(samples, p);
  const size_t per_block = samples.size() / blocks;
  std::vector<double> values;
  for (size_t b = 0; b < blocks; ++b) {
    auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * per_block);
    values.push_back(Percentile(
        std::vector<double>(first,
                            first + static_cast<std::ptrdiff_t>(per_block)),
        p));
  }
  return Percentile(values, 50);
}

int32_t SpanRecorder::Begin(const char* name, uint64_t op_id) {
  if (!enabled_) return -1;
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, NowNs(), 0, parent, op_id});
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close innermost-first; anything still open above `index` was
  // left open by an early return and closes with it.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
    spans_[static_cast<size_t>(top)].end_ns =
        spans_[static_cast<size_t>(index)].end_ns;
  }
}

std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans) {
  std::vector<int64_t> covered(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t start = std::max(span.start_ns, parent.start_ns);
    const int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > start) covered[static_cast<size_t>(span.parent)] += end - start;
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    SpanTotals& entry = totals[span.name];
    const int64_t duration = span.end_ns - span.start_ns;
    ++entry.count;
    entry.total_ns += duration;
    entry.self_ns += std::max<int64_t>(0, duration - covered[i]);
  }
  return totals;
}

void SpanRecorder::WriteChromeTrace(std::ostream& out) const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  char buffer[256];
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", span.name,
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  static_cast<unsigned long long>(span.op_id), i,
                  static_cast<int>(span.parent));
    out << buffer;
  }
  out << "\n]}\n";
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escape[8];
          std::snprintf(escape, sizeof(escape), "\\u%04x", c);
          out += escape;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           FormatNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace sysbench
