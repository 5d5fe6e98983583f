// thrash_read / thrash_write: a working set four times the device heap.
//
// 128 swap-clusters of one 100-node list each; the heap is capped at a
// quarter of their resident size, and after every op the bench evicts with
// SwapOutVictim until the resident clusters fit in 90% of the cap (the LGC
// reclaims the swapped-out members on its own schedule). Accesses are
// Zipf(0.9) over a seed-permuted cluster order; one access is one `step`
// traversal of a cluster plus a read of its head value, a share of accesses
// also write that value, and one op is 16 accesses. Replicas go to K=2 of 3
// remote stores in the OSWB binary wire format with lz77, through a 64 KB
// payload cache and an intent journal; the durability monitor polls every
// 64 accesses. The skew, the write shares and the poll interval are
// assumptions: no measured application trace in the repository gives them
// (see README.md).
//
// thrash_read (5% writes, no tiers): most swap-outs re-adopt a clean image,
// so fetch, decompress, decode and materialize dominate. thrash_write (50%
// writes, 48 KB RAM + flash tiers): swap-outs are mostly dirty and faults
// are mostly served from the tiers, so encode, compress, journal, tier
// admission and write-back dominate.
//
// Deliberately absent: delta swap-out. With this shape at 10% writes,
// delta_swap_out=true and tiers attached, a demand fault fails with
// "has no base replicas to fetch from" (see README.md).
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "obiswap/obiswap.h"
#include "workload.h"
#include "workload/list_workload.h"

namespace sysbench {
namespace {

using namespace obiswap;  // NOLINT
using runtime::Object;
using runtime::Value;

constexpr int kClusters = 128;
constexpr int kNodes = 100;
/// Clusters that fit in 90% of a heap capped at a quarter of all of them.
constexpr int kResidentLimit = kClusters / 4 * 9 / 10;
/// Assumed popularity skew, not measured from any application (README.md).
constexpr double kZipfExponent = 0.9;
/// Accesses per op: batching keeps op times unimodal (a single access is
/// either a ~15 us resident read or a fault two orders of magnitude slower,
/// which would put the median on the boundary between the two).
constexpr int kAccessesPerOp = 16;
constexpr int kPollEvery = 64;  ///< accesses between durability polls (assumed)
constexpr size_t kStores = 3;
constexpr size_t kReplication = 2;
constexpr size_t kPayloadCacheBytes = 64 * 1024;
constexpr int64_t kValueRange = 1'000'000;
constexpr int kWarmupOps = 125;
/// Ops (of kAccessesPerOp accesses) per second on the reference machine
/// (see README.md).
constexpr double kNominalOpsPerSecond = 160.0;

struct ThrashConfig {
  double write_frac;  ///< assumed share of accesses that write (README.md)
  bool tiers;
};

swap::SwappingManager::Options ManagerOptions() {
  swap::SwappingManager::Options options;
  options.replication_factor = kReplication;
  options.codec = "lz77";
  options.wire_format = "binary";
  options.swap_in_cache_bytes = kPayloadCacheBytes;
  return options;
}

tier::TierManager::Options TierOptions(bool enabled) {
  tier::TierManager::Options options;
  options.mode = enabled ? tier::TierMode::kAll : tier::TierMode::kOff;
  options.ram_bytes = 48 * 1024;
  options.flash_slot_bytes = 1024;
  options.flash_slots = 1024;
  return options;
}

/// One device, its three stores and the whole middleware stack. Members are
/// declared in dependency order: each outlives everything declared after
/// it (the bus outlives the manager, which unsubscribes from it).
struct World {
  World(uint64_t seed, bool tiers_on)
      : network(seed),
        discovery(network),
        client(network, discovery, kDevice),
        flash(kDevice, 8 * 1024 * 1024, network.clock()),
        journal(&flash),
        rt(1),
        tiers(&flash, TierOptions(tiers_on)),
        manager(rt, ManagerOptions()),
        monitor(manager, discovery, kDevice, bus) {
    network.AddDevice(kDevice);
    for (size_t i = 0; i < kStores; ++i) {
      DeviceId id(static_cast<uint32_t>(2 + i));
      network.AddDevice(id);
      network.SetInRange(kDevice, id, true);
      stores.push_back(std::make_unique<net::StoreNode>(id, 64 * 1024 * 1024));
      discovery.Announce(stores.back().get());
    }
    manager.AttachStore(&client, &discovery);
    manager.AttachBus(&bus);
    manager.AttachClock(&network.clock());
    manager.AttachIntentJournal(&journal);
    client.AttachTelemetry(&manager.telemetry());
    if (tiers_on) {
      manager.AttachLocalStore(&flash);
      manager.AttachTierManager(&tiers);
    }
  }

  static constexpr DeviceId kDevice = DeviceId(1);

  net::Network network;
  net::Discovery discovery;
  std::vector<std::unique_ptr<net::StoreNode>> stores;
  net::StoreClient client;
  persist::FlashStore flash;
  swap::IntentJournal journal;
  runtime::Runtime rt;
  context::EventBus bus;
  tier::TierManager tiers;
  swap::SwappingManager manager;
  swap::DurabilityMonitor monitor;
};

class Thrash final : public Workload {
 public:
  explicit Thrash(const ThrashConfig& config) : config_(config) {}

  std::string Setup(uint64_t seed) override {
    world_ = std::make_unique<World>(seed, config_.tiers);
    rng_ = Rng(seed);
    const runtime::ClassInfo* cls = workload::RegisterNodeClass(world_->rt);
    for (int c = 0; c < kClusters; ++c) {
      names_.push_back("c" + std::to_string(c));
      clusters_.push_back(workload::BuildList(world_->rt, &world_->manager,
                                              cls, kNodes, kNodes,
                                              names_.back())[0]);
      shadow_.push_back(0);  // BuildList gives node i the value i
    }
    // Seed-permuted popularity: rank r of the Zipf law maps to cluster
    // order_[r].
    for (int c = 0; c < kClusters; ++c) order_.push_back(c);
    for (int i = kClusters - 1; i > 0; --i)
      std::swap(order_[i], order_[rng_.NextBelow(static_cast<uint64_t>(i) + 1)]);
    double total = 0.0;
    for (int r = 1; r <= kClusters; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& p : cdf_) p /= total;

    runtime::Heap& heap = world_->rt.heap();
    const size_t cap = heap.used_bytes() / 4;
    resident_ = kClusters;
    SubSamples scratch;
    SpanRecorder off;
    OpContext ctx{off, scratch, 0};
    OpRecord record;
    Evict(ctx, record);
    if (!record.ok) return "initial eviction: " + record.error;
    heap.Collect();
    heap.set_capacity_bytes(cap);
    for (int i = 0; i < kWarmupOps; ++i) {
      RunOp(ctx, record);
      if (!record.ok) return "warm-up: " + record.error;
    }
    return "";
  }

  uint64_t PlanWindow(double seconds) override {
    return static_cast<uint64_t>(0.5 * seconds * kNominalOpsPerSecond) + 1;
  }

  void RunOp(OpContext& ctx, OpRecord& record) override {
    for (int i = 0; i < kAccessesPerOp && record.ok; ++i) Access(ctx, record);
  }

  /// Every cluster reads back its last written value.
  std::string FinalCheck() override {
    runtime::Runtime& rt = world_->rt;
    SubSamples scratch;
    SpanRecorder off;
    OpContext ctx{off, scratch, 0};
    for (int c = 0; c < kClusters; ++c) {
      if (world_->manager.StateOf(clusters_[c]) == swap::SwapState::kSwapped)
        ++resident_;
      auto got = rt.Invoke(rt.GetGlobal(names_[c])->ref(), "get_value");
      if (!got.ok()) return "final read: " + got.status().ToString();
      if (got->as_int() != shadow_[c])
        return "final read of cluster " + std::to_string(c) + " returned " +
               std::to_string(got->as_int());
      OpRecord record;
      Evict(ctx, record);
      if (!record.ok) return "final eviction: " + record.error;
    }
    return "";
  }

  Snapshot Snap() const override {
    const World& w = *world_;
    Snapshot snap;
    auto& n = snap.counters;
    const auto& rt_stats = w.rt.stats();
    const auto& heap_stats = w.rt.heap().stats();
    const auto& s = w.manager.stats();
    n["rt.invocations"] =
        rt_stats.direct_invocations + rt_stats.intercepted_invocations;
    n["rt.collections"] = heap_stats.collections;
    n["rt.objects_allocated"] = heap_stats.objects_allocated;
    n["swap.proxies_created"] = s.proxies_created;
    n["swap.boundary_crossings"] = s.boundary_crossings;
    n["swap.swap_outs"] = s.swap_outs;
    n["swap.clean_swap_outs"] = s.clean_swap_outs;
    n["swap.swap_ins"] = s.swap_ins;
    n["swap.cache_hits"] = s.cache_hits;
    n["swap.tier_swap_ins"] = s.tier_swap_ins;
    n["swap.bytes_swapped_out"] = s.bytes_swapped_out;
    n["swap.replicas_placed"] = s.replicas_placed;
    n["swap.re_replications"] = s.re_replications;
    n["journal.bytes"] = w.journal.stats().persisted_bytes;
    const auto& t = w.tiers.stats();
    n["tier.ram_hits"] = t.ram_hits;
    n["tier.flash_hits"] = t.flash_hits;
    n["tier.write_backs"] = t.write_backs;
    n["tier.demotions"] = t.demotions;
    n["flash.bytes_written"] = w.flash.stats().bytes_written;
    n["net.bytes_moved"] = w.network.stats().bytes_moved;
    n["net.calls"] = w.client.stats().calls;
    n["net.wire_attempts"] = w.client.stats().wire_attempts;
    n["net.retries"] = w.client.stats().retries;
    n["dur.polls"] = w.monitor.stats().polls;
    n["dur.scan_replicas"] = w.monitor.stats().scan_replicas;
    n["dur.re_replications"] = w.monitor.stats().replicas_re_replicated;
    n["vclock_us"] = w.network.clock().now_us();
    const telemetry::MetricsRegistry& metrics =
        w.manager.telemetry().metrics();
    for (const char* name : {"swap_in_fetch_us", "swap_out_ship_us", "rpc_us"}) {
      std::vector<uint64_t>& buckets = snap.histograms[name];
      buckets.assign(telemetry::Histogram::kBucketCount, 0);
      if (const telemetry::Histogram* h = metrics.FindHistogram(name)) {
        for (size_t i = 0; i < buckets.size(); ++i) buckets[i] = h->bucket(i);
      }
    }
    return snap;
  }

  std::map<std::string, double> ReplayOwn(OpContext& ctx) override {
    (void)ctx;
    return {{"runtime.collect_us", CollectUs(world_->rt.heap())}};
  }

  ReplayShape Shape() const override {
    return ReplayShape{kNodes, /*outbound=*/false, /*binary=*/true,
                       /*lz77=*/true, kStores, kReplication};
  }

  std::vector<std::string> CapturePayloads(size_t max) const override {
    std::vector<std::string> out;
    for (const auto& store : world_->stores) {
      std::vector<SwapKey> keys = store->Keys();
      std::sort(keys.begin(), keys.end());
      for (SwapKey key : keys) {
        if (out.size() >= max) return out;
        if (const std::string* payload = store->Peek(key))
          out.push_back(*payload);
      }
    }
    return out;
  }

 private:
  /// One access: a `step` traversal of a Zipf-chosen cluster and a read of
  /// its head value checked against the shadow, maybe a write, then the
  /// evictions it makes necessary.
  void Access(OpContext& ctx, OpRecord& record) {
    // Every random draw happens up front, whatever the access's outcome, so
    // the access stream depends on the seed alone.
    const double u = rng_.NextDouble();
    const bool write = rng_.NextBool(config_.write_frac);
    const int64_t value = static_cast<int64_t>(rng_.NextBelow(kValueRange));
    const size_t rank = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
    const int c = order_[rank];

    runtime::Runtime& rt = world_->rt;
    const bool faulted =
        world_->manager.StateOf(clusters_[c]) == swap::SwapState::kSwapped;
    if (faulted) ++resident_;
    Object* head = rt.GetGlobal(names_[c])->ref();
    const int64_t wall_start = NowNs();
    const uint64_t clock_start = world_->network.clock().now_us();
    {
      ScopedSpan span(ctx.spans, "runtime.invoke", ctx.op_id);
      auto steps = rt.Invoke(head, "step", {Value::Int(0)});
      if (!faulted)
        ctx.samples.invoke_us.push_back(
            static_cast<double>(NowNs() - wall_start) / 1e3);
      if (!steps.ok())
        return record.Fail("step: " + steps.status().ToString());
      if (steps->as_int() != kNodes - 1)
        return record.Fail("step returned " + std::to_string(steps->as_int()));
    }
    {
      ScopedSpan span(ctx.spans, "runtime.invoke", ctx.op_id);
      auto got = rt.Invoke(head, "get_value");
      if (!got.ok())
        return record.Fail("get_value: " + got.status().ToString());
      if (got->as_int() != shadow_[c])
        return record.Fail("cluster " + std::to_string(c) + " read " +
                           std::to_string(got->as_int()) + ", last wrote " +
                           std::to_string(shadow_[c]));
    }
    if (write) {
      ScopedSpan span(ctx.spans, "runtime.invoke", ctx.op_id);
      auto set = rt.Invoke(head, "set_value", {Value::Int(value)});
      if (!set.ok())
        return record.Fail("set_value: " + set.status().ToString());
      shadow_[c] = value;
    }
    if (faulted)
      record.stall_us.push_back(world_->network.clock().now_us() - clock_start);
    Evict(ctx, record);
    if (faulted)
      ctx.samples.fault_us.push_back(
          static_cast<double>(NowNs() - wall_start) / 1e3);
    if (++accesses_ % kPollEvery == 0) {
      ScopedSpan span(ctx.spans, "durability.poll", ctx.op_id);
      const int64_t start = NowNs();
      world_->monitor.Poll();
      ctx.samples.poll_us.push_back(static_cast<double>(NowNs() - start) /
                                    1e3);
    }
  }

  /// Evicts least-recently-crossed clusters until the resident ones fit in
  /// 90% of the heap cap.
  void Evict(OpContext& ctx, OpRecord& record) {
    while (resident_ > kResidentLimit) {
      ScopedSpan span(ctx.spans, "swap.evict", ctx.op_id);
      const int64_t start = NowNs();
      auto victim = world_->manager.SwapOutVictim();
      ctx.samples.evict_us.push_back(static_cast<double>(NowNs() - start) /
                                     1e3);
      if (!victim.ok())
        return record.Fail("evict: " + victim.status().ToString());
      --resident_;
    }
  }

  ThrashConfig config_;
  std::unique_ptr<World> world_;
  Rng rng_;
  std::vector<std::string> names_;
  std::vector<SwapClusterId> clusters_;
  std::vector<int64_t> shadow_;
  std::vector<int> order_;
  std::vector<double> cdf_;
  int resident_ = 0;  ///< clusters loaded in the heap
  uint64_t accesses_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeThrashRead() {
  return std::make_unique<Thrash>(ThrashConfig{0.05, false});
}

std::unique_ptr<Workload> MakeThrashWrite() {
  return std::make_unique<Thrash>(ThrashConfig{0.50, true});
}

}  // namespace sysbench
