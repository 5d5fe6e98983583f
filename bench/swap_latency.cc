// §3 supplement: swap-out / swap-in latency over the 700 Kbps link as a
// function of swap-cluster size, and the XML payload sizes involved. Not a
// figure in the paper (the paper's evaluation is CPU-side), but it
// quantifies the transfer half of the design: the store devices are dumb,
// so every byte of XML rides the slow link.
//
// Second table: the clean-image write-ratio sweep. A cluster thrashes in
// and out of the device; between cycles a fraction of the reloads write a
// field. Clean cycles re-swap-out by revalidating the retained store copy
// (zero payload bytes on the link) and fault back in from the payload
// cache; dirty cycles pay the full serialize + ship + fetch cost. The
// dirty/clean latency ratio is the headline: at the paper-ish 64 KB
// cluster size the clean path must be >=5x faster.
//
// `--json [path]` additionally dumps both tables to BENCH_swap_latency.json.
// `--trace=<path>` dumps every swap/RPC span of the whole run as Chrome
// trace_event JSON — one track per sweep configuration, virtual-clock
// timestamps, so the serialize/compress/ship breakdown is inspectable at
// chrome://tracing.
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "obiswap/obiswap.h"
#include "workload/list_workload.h"

namespace {

using namespace obiswap;  // NOLINT

struct StoreWorld {
  StoreWorld()
      : network(1), discovery(network), store(DeviceId(2), 256 * 1024 * 1024),
        client(network, discovery, DeviceId(1)) {
    network.AddDevice(DeviceId(1));
    network.AddDevice(DeviceId(2));
    network.SetInRange(DeviceId(1), DeviceId(2), true);
    discovery.Announce(&store);
  }
  net::Network network;
  net::Discovery discovery;
  net::StoreNode store;
  net::StoreClient client;
};

void SizeSweep(benchjson::JsonWriter& json, telemetry::Telemetry* trace) {
  std::printf("%8s %10s %12s %12s %12s %12s\n", "objects", "codec",
              "payload B", "B/object", "swap-out ms", "swap-in ms");

  for (const char* codec : {"identity", "lz77"}) {
    for (int size : {20, 50, 100, 200, 500}) {
      StoreWorld world;
      runtime::Runtime rt(1);
      const runtime::ClassInfo* cls = workload::RegisterNodeClass(rt);
      swap::SwappingManager::Options options;
      options.codec = codec;
      swap::SwappingManager manager(rt, options);
      manager.AttachStore(&world.client, &world.discovery);
      // Each configuration renders as its own named track; each world has
      // its own virtual clock, so re-attach per iteration.
      trace->tracer().BeginTrack("size_sweep " + std::string(codec) + " n=" +
                                 std::to_string(size));
      trace->AttachClock(&world.network.clock());
      manager.AttachTelemetry(trace);
      world.client.AttachTelemetry(trace);
      // One cluster of exactly `size` objects plus a root holder.
      auto clusters =
          workload::BuildList(rt, &manager, cls, size, size, "head");
      OBISWAP_CHECK(clusters.size() == 1);

      uint64_t clock0 = world.network.clock().now_us();
      Result<SwapKey> key = manager.SwapOut(clusters[0]);
      OBISWAP_CHECK(key.ok());
      uint64_t out_us = world.network.clock().now_us() - clock0;
      const swap::SwapClusterInfo* info =
          manager.registry().Find(clusters[0]);
      size_t payload = info->payload_bytes;

      clock0 = world.network.clock().now_us();
      OBISWAP_CHECK(manager.SwapIn(clusters[0]).ok());
      uint64_t in_us = world.network.clock().now_us() - clock0;

      std::printf("%8d %10s %12zu %12.1f %12.1f %12.1f\n", size, codec,
                  payload, static_cast<double>(payload) / size,
                  out_us / 1000.0, in_us / 1000.0);
      json.BeginRow();
      json.Add("table", std::string("size_sweep"));
      json.Add("objects", static_cast<int64_t>(size));
      json.Add("codec", std::string(codec));
      json.Add("payload_bytes", static_cast<uint64_t>(payload));
      json.Add("swap_out_ms", out_us / 1000.0);
      json.Add("swap_in_ms", in_us / 1000.0);
    }
  }
}

// One write-ratio configuration: `cycles` swap-out/swap-in rounds of a
// single cluster sized to ~64 KB of identity XML; `write_pct`% of the
// reload cycles write one field before the next swap-out.
void WriteRatioRun(int write_pct, int cycles, benchjson::JsonWriter& json,
                   telemetry::Telemetry* trace) {
  constexpr int kClusterObjects = 580;  // ~64 KB serialized (identity)
  StoreWorld world;
  runtime::Runtime rt(1);
  const runtime::ClassInfo* cls = workload::RegisterNodeClass(rt);
  swap::SwappingManager manager(rt, swap::SwappingManager::Options());
  manager.AttachStore(&world.client, &world.discovery);
  manager.set_swap_in_cache_bytes(1 << 20);
  trace->tracer().BeginTrack("write_ratio " + std::to_string(write_pct) +
                             "% of " + std::to_string(cycles) + " cycles");
  trace->AttachClock(&world.network.clock());
  manager.AttachTelemetry(trace);
  world.client.AttachTelemetry(trace);
  auto clusters = workload::BuildList(rt, &manager, cls, kClusterObjects,
                                      kClusterObjects, "head");
  OBISWAP_CHECK(clusters.size() == 1);
  runtime::Object* head = rt.GetGlobal("head")->ref();

  uint64_t dirty_out_us = 0, clean_out_us = 0;
  int dirty_outs = 0, clean_outs = 0;
  for (int c = 1; c <= cycles; ++c) {
    if (c > 1) {
      // Fault the cluster back in; on scheduled cycles, write one field.
      // Integer schedule: cycle c writes iff the running write quota
      // (c*pct/100) ticked up — spreads pct% of writes evenly.
      OBISWAP_CHECK(rt.Invoke(head, "get_value").ok());
      if ((c * write_pct) / 100 > ((c - 1) * write_pct) / 100) {
        OBISWAP_CHECK(
            rt.Invoke(head, "set_value", {runtime::Value::Int(c)}).ok());
      }
    }
    uint64_t before_clean = manager.stats().clean_swap_outs;
    uint64_t t0 = world.network.clock().now_us();
    OBISWAP_CHECK(manager.SwapOut(clusters[0]).ok());
    uint64_t took = world.network.clock().now_us() - t0;
    if (manager.stats().clean_swap_outs > before_clean) {
      clean_out_us += took;
      ++clean_outs;
    } else {
      dirty_out_us += took;
      ++dirty_outs;
    }
  }
  OBISWAP_CHECK(manager.SwapIn(clusters[0]).ok());

  const swap::SwappingManager::Stats& stats = manager.stats();
  double dirty_ms = dirty_outs > 0 ? dirty_out_us / 1000.0 / dirty_outs : 0.0;
  // The clean path does no network or flash I/O, so virtual time charges it
  // 0 us; floor at 1 us to keep the speedup ratio finite.
  double clean_ms =
      clean_outs > 0
          ? (clean_out_us > 0 ? clean_out_us / 1000.0 / clean_outs : 0.001)
          : 0.0;
  double speedup = (dirty_ms > 0 && clean_ms > 0) ? dirty_ms / clean_ms : 0.0;
  std::printf("%8d%% %7d %7d %12.1f %12.3f %9.0fx %12llu %12llu %6llu\n",
              write_pct, dirty_outs, clean_outs, dirty_ms, clean_ms, speedup,
              (unsigned long long)stats.bytes_swapped_out,
              (unsigned long long)stats.bytes_swap_transfer_saved,
              (unsigned long long)stats.cache_hits);
  json.BeginRow();
  json.Add("table", std::string("write_ratio_sweep"));
  json.Add("write_pct", static_cast<int64_t>(write_pct));
  json.Add("cycles", static_cast<int64_t>(cycles));
  json.Add("dirty_swap_outs", static_cast<int64_t>(dirty_outs));
  json.Add("clean_swap_outs", static_cast<int64_t>(clean_outs));
  json.Add("dirty_out_ms", dirty_ms);
  json.Add("clean_out_ms", clean_ms);
  json.Add("clean_speedup", speedup);
  json.Add("bytes_swapped_out", stats.bytes_swapped_out);
  json.Add("bytes_transfer_saved", stats.bytes_swap_transfer_saved);
  json.Add("cache_hits", stats.cache_hits);
  json.Add("bytes_on_link", stats.bytes_swapped_out + stats.bytes_swapped_in);
}

// One wire-format configuration of the delta sweep: `cycles` swap rounds of
// one cluster; `write_pct`% of the reloads write a field before the next
// swap-out. "xml" and "binary" ship the full document on every dirty cycle;
// "delta" (binary + delta_swap_out) ships only the OSWD difference against
// the retained base. Returns the total payload bytes that crossed the link
// (out + in) — the headline the delta machinery exists to shrink.
uint64_t WireFormatRun(const std::string& mode, int write_pct, int cycles,
                       benchjson::JsonWriter& json,
                       telemetry::Telemetry* trace) {
  constexpr int kClusterObjects = 580;
  StoreWorld world;
  runtime::Runtime rt(1);
  const runtime::ClassInfo* cls = workload::RegisterNodeClass(rt);
  swap::SwappingManager::Options options;
  options.wire_format = mode == "xml" ? "xml" : "binary";
  options.delta_swap_out = mode == "delta";
  options.swap_in_cache_bytes = 1 << 20;
  swap::SwappingManager manager(rt, options);
  manager.AttachStore(&world.client, &world.discovery);
  trace->tracer().BeginTrack("wire_format " + mode + " " +
                             std::to_string(write_pct) + "%");
  trace->AttachClock(&world.network.clock());
  manager.AttachTelemetry(trace);
  world.client.AttachTelemetry(trace);
  auto clusters = workload::BuildList(rt, &manager, cls, kClusterObjects,
                                      kClusterObjects, "head");
  OBISWAP_CHECK(clusters.size() == 1);
  runtime::Object* head = rt.GetGlobal("head")->ref();

  uint64_t total_us = 0;
  for (int c = 1; c <= cycles; ++c) {
    if (c > 1) {
      OBISWAP_CHECK(rt.Invoke(head, "get_value").ok());
      if ((c * write_pct) / 100 > ((c - 1) * write_pct) / 100) {
        OBISWAP_CHECK(
            rt.Invoke(head, "set_value", {runtime::Value::Int(c)}).ok());
      }
    }
    uint64_t t0 = world.network.clock().now_us();
    OBISWAP_CHECK(manager.SwapOut(clusters[0]).ok());
    OBISWAP_CHECK(manager.SwapIn(clusters[0]).ok());
    total_us += world.network.clock().now_us() - t0;
  }

  const swap::SwappingManager::Stats& stats = manager.stats();
  const uint64_t on_link = stats.bytes_swapped_out + stats.bytes_swapped_in;
  std::printf("%8s %7d%% %12llu %12llu %12llu %8llu %8llu %10.1f\n",
              mode.c_str(), write_pct,
              (unsigned long long)stats.bytes_swapped_out,
              (unsigned long long)stats.bytes_swapped_in,
              (unsigned long long)on_link,
              (unsigned long long)stats.delta_swap_outs,
              (unsigned long long)stats.delta_fallbacks, total_us / 1000.0);
  json.BeginRow();
  json.Add("table", std::string("wire_format_sweep"));
  json.Add("mode", mode);
  json.Add("write_pct", static_cast<int64_t>(write_pct));
  json.Add("cycles", static_cast<int64_t>(cycles));
  json.Add("bytes_swapped_out", stats.bytes_swapped_out);
  json.Add("bytes_swapped_in", stats.bytes_swapped_in);
  json.Add("bytes_on_link", on_link);
  json.Add("delta_swap_outs", stats.delta_swap_outs);
  json.Add("delta_fallbacks", stats.delta_fallbacks);
  json.Add("delta_bytes_shipped", stats.delta_bytes_shipped);
  json.Add("delta_bytes_saved", stats.delta_bytes_saved);
  json.Add("swap_ms", total_us / 1000.0);
  return on_link;
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::JsonWriter json;
  telemetry::Telemetry::Options trace_options;
  trace_options.tracer_capacity = 1 << 16;  // the whole run, no drops
  telemetry::Telemetry trace(trace_options);
  std::printf(
      "Swap-cluster transfer costs over the paper's 700 Kbps Bluetooth "
      "link (virtual time)\n\n");
  SizeSweep(json, &trace);
  std::printf(
      "\nreading: latency scales linearly with serialized size; lz77 "
      "trades host CPU for ~3-6x\nless link time, which dominates on "
      "Bluetooth-class links.\n");

  std::printf(
      "\nClean-image write-ratio sweep: 12 swap cycles of one ~64 KB "
      "cluster, payload cache on\n\n");
  std::printf("%9s %7s %7s %12s %12s %10s %12s %12s %6s\n", "writes",
              "dirty", "clean", "dirty ms", "clean ms", "speedup",
              "out bytes", "saved bytes", "hits");
  for (int pct : {0, 25, 50, 75, 100}) {
    WriteRatioRun(pct, /*cycles=*/12, json, &trace);
  }
  std::printf(
      "\nreading: a clean re-swap-out revalidates the retained store copy "
      "and ships zero payload\nbytes, and the paired fault-in decodes from "
      "the payload cache — the link only carries\nbytes for cycles that "
      "wrote. At 0%% writes only the first swap-out ever transfers.\n");

  std::printf(
      "\nWire-format write-ratio sweep: 20 swap cycles of one %d-object "
      "cluster, payload cache on\n\n",
      580);
  std::printf("%8s %8s %12s %12s %12s %8s %8s %10s\n", "mode", "writes",
              "out bytes", "in bytes", "on link", "deltas", "fallbk",
              "swap ms");
  uint64_t binary_at_10 = 0, delta_at_10 = 0;
  for (const char* mode : {"xml", "binary", "delta"}) {
    for (int pct : {0, 10, 25, 50, 75, 100}) {
      uint64_t on_link = WireFormatRun(mode, pct, /*cycles=*/20, json, &trace);
      if (pct == 10 && std::string(mode) == "binary") binary_at_10 = on_link;
      if (pct == 10 && std::string(mode) == "delta") delta_at_10 = on_link;
    }
  }
  std::printf(
      "\nreading: clean cycles ship zero payload bytes in every mode; what "
      "the modes change is\nthe dirty cycles — binary shaves the XML tag "
      "overhead, delta ships only the fields that\nchanged against the "
      "retained base (the paired swap-in decodes the merged document\n"
      "straight from the payload cache, so it costs no link bytes either).\n");

  // Regression gate: at a 10% write ratio the delta mode must put at most
  // half the bytes on the link that full binary payloads do.
  if (delta_at_10 * 2 > binary_at_10) {
    std::fprintf(stderr,
                 "FAIL: delta bytes on link at 10%% writes (%llu) exceed "
                 "50%% of binary-full (%llu)\n",
                 (unsigned long long)delta_at_10,
                 (unsigned long long)binary_at_10);
    return 1;
  }
  std::printf(
      "\ngate: delta on-link bytes at 10%% writes = %llu <= 50%% of "
      "binary-full %llu — ok\n",
      (unsigned long long)delta_at_10, (unsigned long long)binary_at_10);

  benchjson::MaybeWriteJson(argc, argv, json, "BENCH_swap_latency.json");
  if (!benchjson::MaybeWriteTrace(argc, argv, trace)) return 1;
  return 0;
}
