#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>

#include "common/logging.h"
#include "replay.h"
#include "runtime/heap.h"
#include "telemetry/metrics.h"
#include "workload.h"

namespace sysbench {
namespace {

/// Set-ups per run: set-up time is their median, and their program state
/// must agree byte for byte (a same-seed determinism check on every run).
constexpr int kSetups = 5;
/// The traced run cuts its window into this many blocks of ops and traces
/// every other block, so tracing overhead is measured within one run.
constexpr uint64_t kTraceBlocksPerWindow = 20;
/// The end-to-end tail is the median of the p90s of this many equal blocks
/// of a run's ops (see BlockPercentile and README.md).
constexpr size_t kTailBlocks = 20;
constexpr size_t kMaxErrors = 5;
constexpr size_t kReplayPayloads = 64;
constexpr int kReplayCollections = 5;

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "traverse") return MakeTraverse();
  if (name == "thrash_read") return MakeThrashRead();
  if (name == "thrash_write") return MakeThrashWrite();
  if (name == "fleet_outage") return MakeFleetOutage();
  return nullptr;
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// What the program's counters and histograms gained from `start` to
/// `end`.
Snapshot Subtract(const Snapshot& end, const Snapshot& start) {
  Snapshot delta = end;
  for (auto& [key, value] : delta.counters) {
    auto s = start.counters.find(key);
    if (s != start.counters.end()) value -= s->second;
  }
  for (auto& [key, buckets] : delta.histograms) {
    auto s = start.histograms.find(key);
    if (s == start.histograms.end()) continue;
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] -= s->second[i];
  }
  return delta;
}

/// Percentile of histogram buckets by telemetry::Histogram's own rule: the
/// upper bound of the log2 bucket holding rank ceil(p/100 * count).
double HistogramPercentile(const std::vector<uint64_t>& buckets, double p) {
  uint64_t count = 0;
  for (uint64_t b : buckets) count += b;
  if (count == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count))));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank)
      return static_cast<double>(
          obiswap::telemetry::Histogram::BucketUpperBound(i));
  }
  return 0.0;
}

std::string RenderCounters(const Snapshot& snap) {
  std::string out;
  for (const auto& [key, value] : snap.counters)
    out += key + "=" + std::to_string(value) + "\n";
  for (const auto& [key, buckets] : snap.histograms) {
    out += key + "=";
    for (uint64_t b : buckets) out += std::to_string(b) + ",";
    out += "\n";
  }
  return out;
}

/// The deterministic window: program state when the loop started, what
/// the program's counters gained up to the window's last op, and what the
/// bench measured in virtual time.
struct Window {
  Snapshot start;
  Snapshot delta;
  std::map<std::string, double> results;
  uint64_t ops = 0;
  uint64_t faults = 0;            ///< demand faults the bench observed
  double op_wall_us = 0;          ///< summed wall time of the window's ops
  std::vector<double> stall_ms;   ///< virtual stall of each window fault
};

std::string Fingerprint(const Window& window) {
  std::string out = "start:\n" + RenderCounters(window.start) +
                    "window:\nops=" + std::to_string(window.ops) +
                    "\nfaults=" + std::to_string(window.faults) + "\n" +
                    RenderCounters(window.delta);
  out += "stall_ms.p50=" + FormatNumber(Percentile(window.stall_ms, 50)) + "\n";
  out += "stall_ms.p99=" + FormatNumber(Percentile(window.stall_ms, 99)) + "\n";
  for (const auto& [key, value] : window.results)
    out += key + "=" + FormatNumber(value) + "\n";
  return out;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double Lookup(const std::map<std::string, double>& values,
              const std::string& key) {
  auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

/// Per-layer metrics of a traced run, in PerLayerCatalog() order.
std::vector<double> PerLayerValues(const Window& w, const SubSamples& samples,
                                   const ReplayShape& shape,
                                   const ReplayCosts& c,
                                   const std::map<std::string, double>& own,
                                   double overhead_frac) {
  auto d = [&](const char* key) {
    auto it = w.delta.counters.find(key);
    return it == w.delta.counters.end() ? 0.0
                                        : static_cast<double>(it->second);
  };
  const double ops = static_cast<double>(w.ops);
  auto per_op = [&](const char* key) { return Ratio(d(key), ops); };
  auto hist = [&](const char* name) {
    auto it = w.delta.histograms.find(name);
    return it == w.delta.histograms.end() ? 0.0
                                          : HistogramPercentile(it->second, 50);
  };

  // Each share is a call count from the program's stats over the window
  // times the replayed unit cost, over the window's total op wall time.
  // The counts follow the pipeline's call sites (see README.md).
  const double swap_outs = d("swap.swap_outs");
  const double swap_ins = d("swap.swap_ins");
  const double cache_hits = d("swap.cache_hits");
  const double tier_ins = d("swap.tier_swap_ins");
  const double placed = d("swap.replicas_placed");
  const double serialized_outs = swap_outs - d("swap.clean_swap_outs");
  const double fetched_ins = std::max(0.0, swap_ins - cache_hits - tier_ins);
  const double wall_ns = w.op_wall_us * 1e3;
  auto share = [&](double calls, double unit_ns) {
    return Ratio(calls * unit_ns, wall_ns);
  };
  const double encode_share = share(serialized_outs, c.encode_ns);
  const double decode_share = share(swap_ins, c.decode_ns);
  const double compress_share =
      shape.lz77 ? share(serialized_outs, c.compress_ns) : 0.0;
  const double decompress_share =
      shape.lz77 ? share(swap_ins - cache_hits, c.decompress_ns) : 0.0;
  // Frame and payload checks on each serialized swap-out, one request
  // checksum and one store-side verify per replica stored, and one or two
  // verifies per swap-in (cache hits re-check only the cached text).
  const double adler_share =
      share(2 * serialized_outs + 2 * placed + cache_hits +
                2 * (swap_ins - cache_hits),
            c.adler_ns);
  const double probe_share = share(tier_ins, c.probe_ns);
  const double store_rpcs = placed + d("swap.re_replications");
  const double drop_rpcs =
      std::max(0.0, d("net.calls") - store_rpcs - fetched_ins);
  const double rpc_share =
      Ratio(store_rpcs * c.store_ns + fetched_ins * c.fetch_ns +
                drop_rpcs * c.drop_ns,
            wall_ns);
  const double placement_share =
      share(Ratio(d("fleet.placements"), static_cast<double>(shape.replication)),
            c.targets_ns);
  const double collect_us = Lookup(own, "runtime.collect_us");
  const double gc_share = share(d("rt.collections"), collect_us * 1e3);
  const double unattributed =
      1.0 - (gc_share + encode_share + decode_share + compress_share +
             decompress_share + adler_share + probe_share + rpc_share +
             placement_share);

  return {
      Percentile(samples.invoke_us, 50),
      per_op("rt.invocations"),
      per_op("rt.collections"),
      per_op("rt.objects_allocated"),
      collect_us,
      gc_share,
      per_op("swap.proxies_created"),
      per_op("swap.boundary_crossings"),
      Ratio(static_cast<double>(w.faults), ops),
      Ratio(swap_ins, ops),
      Ratio(swap_outs, ops),
      Ratio(d("swap.clean_swap_outs"), swap_outs),
      Ratio(cache_hits, swap_ins),
      Ratio(d("swap.bytes_swapped_out"), swap_outs),
      per_op("journal.bytes"),
      hist("swap_in_fetch_us"),
      hist("swap_out_ship_us"),
      Percentile(samples.fault_us, 50),
      Percentile(samples.fault_us, 99),
      Percentile(samples.evict_us, 50),
      Percentile(samples.evict_us, 99),
      Percentile(w.stall_ms, 50),
      Percentile(w.stall_ms, 99),
      c.encode_ns,
      c.decode_ns,
      encode_share,
      decode_share,
      c.compress_ns,
      c.decompress_ns,
      c.ratio,
      compress_share,
      decompress_share,
      c.adler_ns,
      adler_share,
      Ratio(tier_ins, swap_ins),
      per_op("tier.ram_hits"),
      per_op("tier.flash_hits"),
      per_op("tier.write_backs"),
      per_op("tier.demotions"),
      c.probe_ns,
      probe_share,
      per_op("flash.bytes_written"),
      per_op("net.bytes_moved"),
      per_op("net.wire_attempts"),
      per_op("net.retries"),
      hist("rpc_us"),
      c.fetch_ns,
      rpc_share,
      Percentile(samples.poll_us, 50),
      Ratio(d("dur.scan_replicas"), d("dur.polls")),
      d("dur.re_replications"),
      Lookup(w.results, "recovery_s"),
      Lookup(own, "fleet.poll_all_us.p50"),
      c.targets_ns,
      Lookup(w.results, "balance_max_over_mean"),
      placement_share,
      unattributed,
      overhead_frac,
  };
}

/// Pairs values computed in catalog order with their names and units.
std::vector<Metric> Label(const Catalog& catalog,
                          const std::vector<double>& values) {
  OBISWAP_CHECK(values.size() == catalog.size());
  std::vector<Metric> metrics;
  for (size_t i = 0; i < values.size(); ++i)
    metrics.push_back(Metric{catalog[i].first, values[i], catalog[i].second});
  return metrics;
}

void WriteTraceFiles(const RunOptions& options, const SpanRecorder& spans,
                     const std::vector<Metric>& metrics,
                     std::vector<std::string>& errors) {
  const std::string base = options.trace_dir + "/" + options.workload;
  std::ofstream trace(base + ".trace.json");
  spans.WriteChromeTrace(trace);
  const std::map<std::string, SpanTotals> totals = Summarize(spans.spans());
  int64_t op_ns = 0;
  if (auto it = totals.find("op"); it != totals.end()) op_ns = it->second.total_ns;
  std::ofstream summary(base + ".summary.json");
  summary << "{\"workload\": " << JsonString(options.workload)
          << ", \"seed\": " << options.seed << ",\n \"spans\": {";
  bool first = true;
  for (const auto& [name, t] : totals) {
    summary << (first ? "\n  " : ",\n  ") << JsonString(name)
            << ": {\"count\": " << t.count
            << ", \"total_us\": " << FormatNumber(t.total_ns / 1e3)
            << ", \"self_us\": " << FormatNumber(t.self_ns / 1e3)
            << ", \"self_frac_of_op\": "
            << FormatNumber(Ratio(static_cast<double>(t.self_ns),
                                  static_cast<double>(op_ns)))
            << "}";
    first = false;
  }
  summary << "\n },\n \"metrics\": " << MetricsJson(metrics) << "}\n";
  if (!trace.good() || !summary.good())
    errors.push_back("could not write trace files under " + options.trace_dir);
}

}  // namespace

double CollectUs(obiswap::runtime::Heap& heap) {
  std::vector<double> samples;
  for (int i = 0; i < kReplayCollections; ++i) {
    const int64_t start = NowNs();
    heap.Collect();
    samples.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  return Median(samples);
}

const Catalog& EndToEndCatalog() {
  static const Catalog catalog = {
      {"setup_s", "s"},       {"ops_per_s", "1/s"},     {"op_us.p50", "us"},
      {"op_us.p90", "us"},    {"peak_rss_mb", "MB"},
  };
  return catalog;
}

const Catalog& PerLayerCatalog() {
  static const Catalog catalog = {
      {"runtime.invoke_us.p50", "us"},
      {"runtime.invocations_per_op", "count"},
      {"runtime.gc_collections_per_op", "count"},
      {"runtime.objects_allocated_per_op", "count"},
      {"runtime.collect_us", "us"},
      {"runtime.gc_share", "ratio"},
      {"swap.proxies_created_per_op", "count"},
      {"swap.boundary_crossings_per_op", "count"},
      {"swap.faults_per_op", "count"},
      {"swap.swap_ins_per_op", "count"},
      {"swap.swap_outs_per_op", "count"},
      {"swap.clean_swap_out_frac", "ratio"},
      {"swap.cache_hit_frac", "ratio"},
      {"swap.bytes_out_per_swap_out", "B"},
      {"swap.journal_bytes_per_op", "B"},
      {"swap.swap_in_fetch_vus.p50", "vus"},
      {"swap.swap_out_ship_vus.p50", "vus"},
      {"swap.fault_us.p50", "us"},
      {"swap.fault_us.p99", "us"},
      {"swap.evict_us.p50", "us"},
      {"swap.evict_us.p99", "us"},
      {"swap.stall_ms.p50", "vms"},
      {"swap.stall_ms.p99", "vms"},
      {"serialization.encode_ns", "ns"},
      {"serialization.decode_ns", "ns"},
      {"serialization.encode_share", "ratio"},
      {"serialization.decode_share", "ratio"},
      {"compress.lz77_compress_ns", "ns"},
      {"compress.lz77_decompress_ns", "ns"},
      {"compress.ratio", "ratio"},
      {"compress.compress_share", "ratio"},
      {"compress.decompress_share", "ratio"},
      {"checksum.adler32_ns", "ns"},
      {"checksum.adler32_share", "ratio"},
      {"tier.hit_frac", "ratio"},
      {"tier.ram_hits_per_op", "count"},
      {"tier.flash_hits_per_op", "count"},
      {"tier.write_backs_per_op", "count"},
      {"tier.demotions_per_op", "count"},
      {"tier.probe_ns", "ns"},
      {"tier.probe_share", "ratio"},
      {"persist.flash_bytes_written_per_op", "B"},
      {"net.link_bytes_per_op", "B"},
      {"net.wire_attempts_per_op", "count"},
      {"net.retries_per_op", "count"},
      {"net.rpc_vus.p50", "vus"},
      {"net.store_fetch_ns", "ns"},
      {"net.rpc_share", "ratio"},
      {"durability.poll_us.p50", "us"},
      {"durability.scan_replicas_per_poll", "count"},
      {"durability.re_replications", "count"},
      {"durability.recovery_s", "vs"},
      {"fleet.poll_all_us.p50", "us"},
      {"fleet.placement_targets_ns", "ns"},
      {"fleet.balance_max_over_mean", "ratio"},
      {"fleet.placement_share", "ratio"},
      {"trace.unattributed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return catalog;
}

RunOutcome RunWorkload(const RunOptions& options) {
  RunOutcome outcome;
  auto error = [&](std::string message) {
    if (outcome.errors.size() < kMaxErrors)
      outcome.errors.push_back(std::move(message));
  };
  if (MakeWorkload(options.workload) == nullptr) {
    error("unknown workload " + options.workload);
    return outcome;
  }

  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  std::string setup_state;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();  // one world in memory at a time
    workload = MakeWorkload(options.workload);
    const int64_t start = NowNs();
    const std::string failure = workload->Setup(options.seed);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!failure.empty()) {
      error("set-up: " + failure);
      return outcome;
    }
    const std::string state = RenderCounters(workload->Snap());
    if (i == 0) {
      setup_state = state;
    } else if (state != setup_state) {
      error("set-up " + std::to_string(i) +
            " reached a different program state than set-up 0 under the "
            "same seed");
    }
  }

  Window window;
  const uint64_t window_ops = workload->PlanWindow(options.seconds);
  const uint64_t block = std::max<uint64_t>(1, window_ops / kTraceBlocksPerWindow);
  window.start = workload->Snap();
  SpanRecorder spans;
  SubSamples samples;
  std::vector<double> op_us;
  double traced_us = 0, untraced_us = 0;
  uint64_t traced_ops = 0, untraced_ops = 0;
  bool window_closed = false;

  const int64_t loop_start = NowNs();
  const int64_t deadline =
      loop_start + static_cast<int64_t>(options.seconds * 1e9);
  uint64_t index = 0;
  for (; index < window_ops || NowNs() < deadline; ++index) {
    if (index == window_ops) {
      window.delta = Subtract(workload->Snap(), window.start);
      window.results = workload->Results();
      window_closed = true;
    }
    const bool traced = options.trace && (index / block) % 2 == 0;
    spans.set_enabled(traced);
    OpContext ctx{spans, samples, index + 1};
    if (std::string failure = workload->Before(index, ctx); !failure.empty())
      error("before op " + std::to_string(index) + ": " + failure);

    OpRecord record;
    const int64_t start = NowNs();
    {
      ScopedSpan op_span(spans, "op", ctx.op_id);
      workload->RunOp(ctx, record);
    }
    const double us = static_cast<double>(NowNs() - start) / 1e3;
    op_us.push_back(us);
    (traced ? traced_us : untraced_us) += us;
    ++(traced ? traced_ops : untraced_ops);
    if (index < window_ops) {
      ++window.ops;
      window.op_wall_us += us;
      window.faults += record.stall_us.size();
      for (uint64_t stall : record.stall_us)
        window.stall_ms.push_back(static_cast<double>(stall) / 1e3);
    }
    if (!record.ok) {
      ++outcome.failed;
      error("op " + std::to_string(index) + ": " + record.error);
    }
  }
  const double loop_s = static_cast<double>(NowNs() - loop_start) / 1e9;
  outcome.attempted = index;
  if (!window_closed) {
    window.delta = Subtract(workload->Snap(), window.start);
    window.results = workload->Results();
  }
  if (std::string failure = workload->FinalCheck(); !failure.empty())
    error("final check: " + failure);
  outcome.fingerprint = Fingerprint(window);

  if (!options.trace) {
    outcome.metrics = Label(
        EndToEndCatalog(),
        {Median(setup_s), Ratio(static_cast<double>(index), loop_s),
         Percentile(op_us, 50), BlockPercentile(op_us, 90, kTailBlocks),
         PeakRssMb()});
    return outcome;
  }

  spans.set_enabled(true);
  OpContext replay_ctx{spans, samples, index + 1};
  const std::map<std::string, double> own = workload->ReplayOwn(replay_ctx);
  const ReplayShape shape = workload->Shape();
  const ReplayCosts costs = RunReplay(
      shape, workload->CapturePayloads(kReplayPayloads), options.seed);
  const double overhead_frac =
      1.0 - Ratio(Ratio(static_cast<double>(traced_ops), traced_us),
                  Ratio(static_cast<double>(untraced_ops), untraced_us));
  outcome.metrics = Label(PerLayerCatalog(),
                          PerLayerValues(window, samples, shape, costs, own,
                                         overhead_frac));
  WriteTraceFiles(options, spans, outcome.metrics, outcome.errors);
  return outcome;
}

std::string OutcomeJson(const RunOptions& options, const RunOutcome& outcome) {
  std::string errors = "[";
  for (size_t i = 0; i < outcome.errors.size(); ++i)
    errors += (i > 0 ? ", " : "") + JsonString(outcome.errors[i]);
  errors += "]";
  return "{\"workload\": " + JsonString(options.workload) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"correct\": " + (outcome.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(outcome.attempted) +
         ", \"failed\": " + std::to_string(outcome.failed) +
         ", \"errors\": " + errors +
         ", \"fingerprint\": " + JsonString(outcome.fingerprint) +
         ", \"metrics\": " + MetricsJson(outcome.metrics) + "}";
}

}  // namespace sysbench
