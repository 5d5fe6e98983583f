// Telemetry subsystem: histogram bucket edges, span nesting and export,
// journal wraparound, bus mirroring (including re-entrant publishes), the
// full swap pipeline's span coverage, and the telemetry-on/off stats parity
// guarantee.
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "test_support.h"

namespace obiswap {
namespace {

using swap::SwappingManager;
using telemetry::EventJournal;
using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::SpanTracer;
using telemetry::Telemetry;
using testing::BuildClusteredList;
using testing::MiddlewareWorld;
using testing::RegisterNodeClass;
using testing::SumList;

// --------------------------------------------------- a mini JSON checker --
// Recursive-descent validator, enough to prove the exported trace and
// metrics documents are well-formed JSON without any external dependency.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    at_ = 0;
    bool ok = Value();
    SkipWs();
    return ok && at_ == text_.size();
  }

 private:
  void SkipWs() {
    while (at_ < text_.size() && std::isspace(
               static_cast<unsigned char>(text_[at_]))) {
      ++at_;
    }
  }
  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (text_.compare(at_, len, word) != 0) return false;
    at_ += len;
    return true;
  }
  bool String() {
    if (text_[at_] != '"') return false;
    ++at_;
    while (at_ < text_.size() && text_[at_] != '"') {
      if (text_[at_] == '\\') ++at_;
      ++at_;
    }
    if (at_ >= text_.size()) return false;
    ++at_;  // closing quote
    return true;
  }
  bool Number() {
    size_t start = at_;
    if (at_ < text_.size() && (text_[at_] == '-' || text_[at_] == '+')) ++at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
            text_[at_] == '.' || text_[at_] == 'e' || text_[at_] == 'E' ||
            text_[at_] == '-' || text_[at_] == '+')) {
      ++at_;
    }
    return at_ > start;
  }
  bool Value() {
    SkipWs();
    if (at_ >= text_.size()) return false;
    char c = text_[at_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }
  bool Object() {
    ++at_;  // '{'
    SkipWs();
    if (at_ < text_.size() && text_[at_] == '}') {
      ++at_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (at_ >= text_.size() || text_[at_] != ':') return false;
      ++at_;
      if (!Value()) return false;
      SkipWs();
      if (at_ < text_.size() && text_[at_] == ',') {
        ++at_;
        continue;
      }
      break;
    }
    if (at_ >= text_.size() || text_[at_] != '}') return false;
    ++at_;
    return true;
  }
  bool Array() {
    ++at_;  // '['
    SkipWs();
    if (at_ < text_.size() && text_[at_] == ']') {
      ++at_;
      return true;
    }
    for (;;) {
      if (!Value()) return false;
      SkipWs();
      if (at_ < text_.size() && text_[at_] == ',') {
        ++at_;
        continue;
      }
      break;
    }
    if (at_ >= text_.size() || text_[at_] != ']') return false;
    ++at_;
    return true;
  }

  const std::string& text_;
  size_t at_ = 0;
};

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------- metrics --

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly zero; bucket i holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 20), 21u);
  EXPECT_EQ(Histogram::BucketIndex((uint64_t{1} << 20) - 1), 20u);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 63), 64u);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), 64u);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), UINT64_MAX);

  Histogram hist;
  hist.Record(0);
  hist.Record(1);
  hist.Record(UINT64_MAX);
  EXPECT_EQ(hist.bucket(0), 1u);
  EXPECT_EQ(hist.bucket(1), 1u);
  EXPECT_EQ(hist.bucket(64), 1u);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), UINT64_MAX);
}

TEST(HistogramTest, PercentilesResolveToBucketUpperBounds) {
  Histogram hist;
  EXPECT_EQ(hist.ValueAtPercentile(50), 0u);  // empty
  for (uint64_t v = 1; v <= 100; ++v) hist.Record(v);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.sum(), 5050u);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), 100u);
  // Rank 50 lands in [32,63] (cumulative 63); ranks 95/99 in [64,127].
  EXPECT_EQ(hist.ValueAtPercentile(50), 63u);
  EXPECT_EQ(hist.ValueAtPercentile(95), 127u);
  EXPECT_EQ(hist.ValueAtPercentile(99), 127u);
  EXPECT_EQ(hist.ValueAtPercentile(0), 1u);     // clamps to min
  EXPECT_EQ(hist.ValueAtPercentile(100), 127u);
}

TEST(MetricsRegistryTest, StableReferencesAndDeterministicJson) {
  MetricsRegistry registry;
  telemetry::Counter& swap_outs = registry.GetCounter("swap_outs");
  // Growth must not invalidate previously handed-out references.
  for (int i = 0; i < 100; ++i)
    registry.GetCounter("c" + std::to_string(i)).Increment();
  swap_outs.Increment(7);
  EXPECT_EQ(registry.GetCounter("swap_outs").value(), 7u);
  EXPECT_EQ(&registry.GetCounter("swap_outs"), &swap_outs);
  EXPECT_EQ(registry.FindCounter("never_touched"), nullptr);

  registry.GetGauge("depth").Set(-3);
  registry.GetHistogram("lat_us").Record(42);
  std::string first = registry.Json();
  std::string second = registry.Json();
  EXPECT_EQ(first, second);
  EXPECT_TRUE(JsonChecker(first).Valid()) << first;
  EXPECT_NE(first.find("\"swap_outs\":7"), std::string::npos);
  EXPECT_NE(first.find("\"depth\":-3"), std::string::npos);
  EXPECT_NE(first.find("\"lat_us\""), std::string::npos);
}

// ----------------------------------------------------------------- tracer --

TEST(SpanTracerTest, NestedSpansCompleteInLifoOrderWithVirtualTimestamps) {
  net::SimClock clock;
  SpanTracer tracer;
  tracer.AttachClock(&clock);

  clock.Advance(100);
  SpanTracer::SpanToken outer = tracer.Begin("outer", "test");
  clock.Advance(10);
  SpanTracer::SpanToken inner = tracer.Begin("inner", "test");
  clock.Advance(5);
  tracer.End(inner);
  clock.Advance(2);
  tracer.End(outer);

  ASSERT_EQ(tracer.completed_count(), 2u);
  const SpanTracer::CompletedSpan& first = tracer.completed(0);
  const SpanTracer::CompletedSpan& second = tracer.completed(1);
  EXPECT_EQ(first.name, "inner");
  EXPECT_EQ(first.start_us, 110u);
  EXPECT_EQ(first.dur_us, 5u);
  EXPECT_EQ(first.depth, 1u);
  EXPECT_EQ(second.name, "outer");
  EXPECT_EQ(second.start_us, 100u);
  EXPECT_EQ(second.dur_us, 17u);
  EXPECT_EQ(second.depth, 0u);
  EXPECT_EQ(tracer.unbalanced_closes(), 0u);
  EXPECT_EQ(tracer.open_depth(), 0u);
}

TEST(SpanTracerTest, UnbalancedClosesAreCountedNotFatal) {
  SpanTracer tracer;
  SpanTracer::SpanToken outer = tracer.Begin("outer", "test");
  tracer.Begin("leaked", "test");  // never explicitly ended
  tracer.End(outer);  // implicitly closes "leaked"
  EXPECT_EQ(tracer.completed_count(), 2u);
  EXPECT_EQ(tracer.unbalanced_closes(), 1u);

  tracer.End(outer);  // double close: counted no-op
  EXPECT_EQ(tracer.unbalanced_closes(), 2u);
  EXPECT_EQ(tracer.completed_count(), 2u);

  tracer.End(SpanTracer::kInvalidSpan);  // silent no-op (disabled-path token)
  EXPECT_EQ(tracer.unbalanced_closes(), 2u);
}

TEST(SpanTracerTest, DisabledTracerRecordsNothing) {
  SpanTracer tracer;
  tracer.set_enabled(false);
  SpanTracer::SpanToken token = tracer.Begin("quiet", "test");
  EXPECT_EQ(token, SpanTracer::kInvalidSpan);
  tracer.End(token);
  EXPECT_EQ(tracer.completed_count(), 0u);
  EXPECT_EQ(tracer.unbalanced_closes(), 0u);
}

TEST(SpanTracerTest, RingDropsOldestWhenFull) {
  SpanTracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    SpanTracer::SpanToken token =
        tracer.Begin("span" + std::to_string(i), "test");
    tracer.End(token);
  }
  EXPECT_EQ(tracer.completed_count(), 4u);
  EXPECT_EQ(tracer.dropped_count(), 6u);
  EXPECT_EQ(tracer.completed(0).name, "span6");  // oldest retained
  EXPECT_EQ(tracer.completed(3).name, "span9");
}

TEST(SpanTracerTest, ChromeTraceJsonIsValidAndDeterministic) {
  auto run = [] {
    net::SimClock clock;
    SpanTracer tracer;
    tracer.AttachClock(&clock);
    tracer.BeginTrack("config \"a\"");  // label needs escaping
    clock.Advance(50);
    SpanTracer::SpanToken op = tracer.Begin("swap_out", "swap");
    clock.Advance(30);
    SpanTracer::SpanToken phase = tracer.Begin("ship", "swap");
    clock.Advance(20);
    tracer.End(phase);
    tracer.End(op);
    return tracer.ToChromeTraceJson();
  };
  std::string json = run();
  EXPECT_EQ(json, run());  // same workload, same virtual clock, same bytes
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // track metadata
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"swap_out\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":50"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

// ---------------------------------------------------------------- journal --

TEST(EventJournalTest, WraparoundKeepsNewestEntries) {
  EventJournal journal(4);
  for (int i = 0; i < 10; ++i)
    journal.Record("test", "entry" + std::to_string(i), "");
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.total_recorded(), 10u);
  EXPECT_EQ(journal.entry(0).what, "entry6");
  EXPECT_EQ(journal.entry(0).seq, 7u);
  EXPECT_EQ(journal.entry(3).what, "entry9");
  EXPECT_EQ(journal.entry(3).seq, 10u);

  std::string dump = journal.Dump();
  EXPECT_NE(dump.find("#7"), std::string::npos);
  EXPECT_NE(dump.find("entry9"), std::string::npos);
  EXPECT_EQ(dump.find("entry5"), std::string::npos);
}

TEST(EventJournalTest, MirrorsBusEventsWithSortedDetail) {
  MiddlewareWorld world;
  world.bus.Publish(context::Event("custom")
                        .Set("zebra", int64_t{1})
                        .Set("alpha", int64_t{2})
                        .Set("label", std::string("x")));
  const EventJournal& journal = world.manager.telemetry().journal();
  ASSERT_GE(journal.size(), 1u);
  const EventJournal::Entry& entry = journal.entry(journal.size() - 1);
  EXPECT_EQ(entry.kind, "event");
  EXPECT_EQ(entry.what, "custom");
  // Properties render sorted regardless of Set() order.
  EXPECT_EQ(entry.detail, "alpha=2 label=x zebra=1");
}

TEST(EventJournalTest, ReentrantPublishFromSubscriberIsJournaled) {
  MiddlewareWorld world;
  // A subscriber that publishes a follow-up event from inside delivery —
  // the journal's SubscribeAll mirror must survive the re-entrant publish.
  world.bus.Subscribe("ping", [&](const context::Event&) {
    world.bus.Publish(context::Event("pong"));
  });
  world.bus.Publish(context::Event("ping"));
  const EventJournal& journal = world.manager.telemetry().journal();
  ASSERT_EQ(journal.size(), 2u);
  // The re-entrant "pong" completes its delivery inside "ping"'s, so it is
  // recorded first; both entries must be present and ordered by seq.
  EXPECT_EQ(journal.entry(0).what, "pong");
  EXPECT_EQ(journal.entry(1).what, "ping");
  EXPECT_LT(journal.entry(0).seq, journal.entry(1).seq);
}

// --------------------------------------------------- pipeline integration --

SwappingManager::Options TwoReplicaOptions() {
  SwappingManager::Options options;
  options.replication_factor = 2;
  options.swap_in_cache_bytes = 1 << 20;
  return options;
}

TEST(TelemetryPipelineTest, SwapPipelineEmitsSpansWithVirtualTimestamps) {
  MiddlewareWorld world(TwoReplicaOptions());
  world.manager.AttachClock(&world.network.clock());
  world.client.AttachTelemetry(&world.manager.telemetry());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     30, 10, "head");

  // Swap-out: only one store is up, so clusters go out under-replicated.
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  // Demand swap-in should exercise fetch/decompress, not the payload
  // cache; flush the cache first (budget to zero empties it).
  world.manager.set_swap_in_cache_bytes(0);
  world.manager.set_swap_in_cache_bytes(1 << 20);
  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  // Speculative swap-in of the second cluster.
  ASSERT_TRUE(world.manager.SwapOut(clusters[1]).ok());
  world.manager.set_swap_in_cache_bytes(0);
  world.manager.set_swap_in_cache_bytes(1 << 20);
  ASSERT_TRUE(world.manager.SwapIn(clusters[1], /*prefetch=*/true).ok());
  // The third cluster stays swapped out with one replica (K=2 unmet);
  // when a second store appears the DurabilityMonitor tops it up.
  ASSERT_TRUE(world.manager.SwapOut(clusters[2]).ok());
  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  world.AddStore(3, 1 << 20);
  monitor.Poll();
  // Swapped-in clusters retain clean images on the store, so all three
  // clusters (not just the still-swapped-out one) get topped up to K=2.
  EXPECT_GE(monitor.stats().clusters_re_replicated, 1u);

  const SpanTracer& tracer = world.manager.telemetry().tracer();
  std::vector<std::string> names;
  for (size_t i = 0; i < tracer.completed_count(); ++i)
    names.push_back(tracer.completed(i).name);
  auto has = [&](const char* name) {
    for (const std::string& n : names)
      if (n == name) return true;
    return false;
  };
  // Swap-out phases.
  EXPECT_TRUE(has("swap_out"));
  EXPECT_TRUE(has("serialize"));
  EXPECT_TRUE(has("compress"));
  EXPECT_TRUE(has("ship"));
  EXPECT_TRUE(has("patch"));
  // Swap-in phases (demand and speculative hit the same code path).
  EXPECT_TRUE(has("swap_in"));
  EXPECT_TRUE(has("fetch"));
  EXPECT_TRUE(has("decompress"));
  EXPECT_TRUE(has("materialize"));
  // Store RPCs and durability maintenance.
  EXPECT_TRUE(has("rpc:store"));
  EXPECT_TRUE(has("rpc:fetch"));
  EXPECT_TRUE(has("rpc_attempt"));
  EXPECT_TRUE(has("durability_poll"));
  EXPECT_TRUE(has("re_replicate"));

  // Demand and speculative swap-ins carry distinct categories.
  bool demand_seen = false, speculative_seen = false;
  uint64_t last_ts = 0;
  for (size_t i = 0; i < tracer.completed_count(); ++i) {
    const SpanTracer::CompletedSpan& span = tracer.completed(i);
    if (span.name == "swap_in") {
      if (span.category == "swap") demand_seen = true;
      if (span.category == "prefetch") speculative_seen = true;
    }
    last_ts = span.start_us;
  }
  EXPECT_TRUE(demand_seen);
  EXPECT_TRUE(speculative_seen);
  // The simulated radio advanced the clock, and spans carry it.
  EXPECT_GT(last_ts, 0u);

  // Latency histograms populated from the same virtual clock.
  const MetricsRegistry& metrics = world.manager.telemetry().metrics();
  const Histogram* swap_out_us = metrics.FindHistogram("swap_out_us");
  ASSERT_NE(swap_out_us, nullptr);
  EXPECT_EQ(swap_out_us->count(), 3u);
  EXPECT_GT(swap_out_us->max(), 0u);
  const Histogram* demand_us = metrics.FindHistogram("swap_in_demand_us");
  ASSERT_NE(demand_us, nullptr);
  EXPECT_EQ(demand_us->count(), 1u);
  const Histogram* prefetch_us = metrics.FindHistogram("swap_in_prefetch_us");
  ASSERT_NE(prefetch_us, nullptr);
  EXPECT_EQ(prefetch_us->count(), 1u);
  EXPECT_GT(metrics.FindCounter("rpc_calls")->value(), 0u);

  // The whole run exports as valid Chrome trace JSON.
  std::string trace = world.manager.telemetry().tracer().ToChromeTraceJson();
  EXPECT_TRUE(JsonChecker(trace).Valid());
  EXPECT_EQ(CountOccurrences(trace, "\"ph\":\"X\""),
            tracer.completed_count());

  // The workload still behaves: a full traversal faults cluster 2 back
  // in through the mediated path (sum of 0..29).
  EXPECT_EQ(*SumList(world.rt, "head"), 435);
}

TEST(TelemetryPipelineTest, StatsJsonIsByteIdenticalWithTelemetryOff) {
  auto run = [](bool telemetry_enabled) {
    MiddlewareWorld world(TwoReplicaOptions());
    world.manager.telemetry().set_enabled(telemetry_enabled);
    world.manager.AttachClock(&world.network.clock());
    world.client.AttachTelemetry(&world.manager.telemetry());
    const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
    world.AddStore(2, 1 << 20);
    world.AddStore(3, 1 << 20);
    auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                       20, 10, "head");
    OBISWAP_CHECK(world.manager.SwapOut(clusters[0]).ok());
    OBISWAP_CHECK(world.manager.SwapIn(clusters[0]).ok());
    OBISWAP_CHECK(world.manager.SwapOut(clusters[1]).ok());
    OBISWAP_CHECK(*SumList(world.rt, "head") == 190);
    return world.manager.StatsJson();
  };
  std::string with_telemetry = run(true);
  std::string without_telemetry = run(false);
  // Same keys, same order, same values: StatsSnapshot must not leak
  // telemetry state into the stats contract.
  EXPECT_EQ(with_telemetry, without_telemetry);
  EXPECT_TRUE(JsonChecker(with_telemetry).Valid());
  EXPECT_NE(with_telemetry.find("\"swap_outs\":2"), std::string::npos);
  EXPECT_NE(with_telemetry.find("\"proxies_created\":"), std::string::npos);
  EXPECT_NE(with_telemetry.find("\"payload_cache_entries\":"),
            std::string::npos);
  // The crash-consistency stats ride the same contract (zero without a
  // journal attached, but always present and ordered).
  EXPECT_NE(with_telemetry.find("\"recoveries\":0"), std::string::npos);
  EXPECT_NE(with_telemetry.find("\"recovery_us\":0"), std::string::npos);
  EXPECT_NE(with_telemetry.find("\"journal_append_us\":0"), std::string::npos);
  EXPECT_NE(with_telemetry.find("\"journal_bytes\":0"), std::string::npos);
}

TEST(TelemetryPipelineTest, SharedBundleCollectsManagerAndClientSpans) {
  // Benches share one externally owned bundle between the manager and the
  // store client so RPC spans land in the same trace as swap phases.
  Telemetry shared;
  MiddlewareWorld world;
  world.manager.AttachTelemetry(&shared);
  world.manager.AttachClock(&world.network.clock());
  world.client.AttachTelemetry(&shared);
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     10, 10, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  bool swap_span = false, rpc_span = false;
  for (size_t i = 0; i < shared.tracer().completed_count(); ++i) {
    const std::string& name = shared.tracer().completed(i).name;
    if (name == "swap_out") swap_span = true;
    if (name == "rpc:store") rpc_span = true;
  }
  EXPECT_TRUE(swap_span);
  EXPECT_TRUE(rpc_span);
  // The manager's own (replaced) bundle saw nothing.
  EXPECT_GT(shared.tracer().completed_count(), 0u);
}

TEST(TelemetryPipelineTest, PolicyActionsToggleTelemetryAndDumpTrace) {
  MiddlewareWorld world;
  world.manager.AttachClock(&world.network.clock());
  context::PropertyRegistry props;
  policy::PolicyEngine engine(world.bus, props);
  ASSERT_TRUE(
      policy::RegisterSwapActions(engine, world.rt, world.manager).ok());

  policy::PolicyRule off;
  off.name = "telemetry-off";
  off.on_event = "quiesce";
  off.action = "set-telemetry";
  off.params["enabled"] = "0";
  ASSERT_TRUE(engine.AddRule(std::move(off)).ok());

  const std::string trace_path = ::testing::TempDir() + "/policy_trace.json";
  policy::PolicyRule dump;
  dump.name = "trace-dump";
  dump.on_event = "post-mortem";
  dump.action = "dump-trace";
  dump.params["path"] = trace_path;
  ASSERT_TRUE(engine.AddRule(std::move(dump)).ok());

  EXPECT_TRUE(world.manager.telemetry().enabled());
  world.bus.Publish(context::Event("quiesce"));
  EXPECT_FALSE(world.manager.telemetry().enabled());

  world.bus.Publish(context::Event("post-mortem"));
  std::FILE* f = std::fopen(trace_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0)
    contents.append(buffer, n);
  std::fclose(f);
  std::remove(trace_path.c_str());
  EXPECT_TRUE(JsonChecker(contents).Valid()) << contents;
  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);
}

TEST(TelemetryPipelineTest, DisabledTelemetryJournalsAndTracesNothing) {
  MiddlewareWorld world;
  world.manager.telemetry().set_enabled(false);
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     10, 10, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(world.manager.telemetry().tracer().completed_count(), 0u);
  EXPECT_EQ(world.manager.telemetry().journal().size(), 0u);
}

}  // namespace
}  // namespace obiswap
