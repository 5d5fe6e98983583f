// Statistics, spans and metric output for the system benchmark.
//
// Everything here is bench-side: the percentile rule every reported timing
// uses, an in-memory span recorder for the traced run (spans are recorded
// only around the public calls the benchmark itself makes), and the JSON
// encoding of a metric set.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace sysbench {

/// Steady-clock nanoseconds.
int64_t NowNs();

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are <= it, i.e. sorted[ceil(p/100 * n) - 1].
/// `p` in (0, 100]; 0 for an empty sample set.
double Percentile(std::vector<double> samples, double p);

/// The p-th percentile of each of `blocks` consecutive, equal blocks of
/// `samples` (in the order taken), then the median over blocks. A burst of
/// host interference that slows a few seconds of a run owns the plain
/// tail percentile of the whole run; it moves this statistic only when it
/// covers half the blocks. Falls back to Percentile() below `blocks`
/// samples; a remainder past the last whole block is left out.
double BlockPercentile(const std::vector<double>& samples, double p,
                       size_t blocks);

/// One recorded span. `parent` indexes the enclosing span (-1 for a root);
/// `op_id` is the id of the benchmark operation the span belongs to.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint64_t op_id;
};

/// Per-name totals over a span set. Self time is a span's duration minus
/// the part of its interval covered by its direct children.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// Totals by span name over a recorded span set, self time included.
std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans);

/// Records spans in memory on the one application thread. Begin/End nest:
/// a span opened while another is open becomes its child. While disabled,
/// Begin returns -1 and nothing is recorded.
class SpanRecorder {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }

  int32_t Begin(const char* name, uint64_t op_id);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace_event JSON ("X" complete events, microseconds), one
  /// thread; `args` carry the op id and the parent index.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span over a recorder that may be disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, uint64_t op_id)
      : recorder_(recorder), index_(recorder.Begin(name, op_id)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int32_t index_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Shortest decimal text that reads back as exactly `value`.
std::string FormatNumber(double value);

/// {"name": {"value": v, "unit": "u"}, ...} in the given order.
std::string MetricsJson(const std::vector<Metric>& metrics);

/// JSON string literal (quotes included).
std::string JsonString(const std::string& text);

}  // namespace sysbench
