// fleet_outage: 200 device runtimes against a 64-store pool.
//
// FleetDriver with 4 clusters x 12 objects per device, K=2 and rendezvous
// directory placement. One op is one fleet round (every device swaps one
// cluster in and back out, then the whole fleet polls). Halfway through the
// deterministic window a correlated outage silently kills 20% of the store
// pool and the fleet polls until every surviving cluster is back at K.
// Per-device payloads are tiny, so the cost is placement, durability
// polling, bridge and store RPCs across 200 runtimes, and outage repair.
// The fleet's only random choices are its network's; the seed is that
// network's seed.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obiswap/obiswap.h"
#include "workload.h"

namespace sysbench {
namespace {

using namespace obiswap;  // NOLINT

constexpr size_t kDevices = 200;
constexpr size_t kStores = 64;
constexpr int kClustersPerDevice = 4;
constexpr int kObjectsPerCluster = 12;
constexpr size_t kReplication = 2;
constexpr int kWarmupRounds = 50;
constexpr double kOutageFraction = 0.2;
constexpr int kMaxRecoveryPolls = 100;
constexpr int kReplayPolls = 20;
/// Rounds per second on the reference machine (see README.md).
constexpr double kNominalOpsPerSecond = 55.0;

class FleetOutage final : public Workload {
 public:
  std::string Setup(uint64_t seed) override {
    fleet::FleetOptions options;
    options.devices = kDevices;
    options.stores = kStores;
    options.clusters_per_device = kClustersPerDevice;
    options.objects_per_cluster = kObjectsPerCluster;
    options.replication_factor = kReplication;
    options.use_directory = true;
    options.seed = seed;
    driver_ = std::make_unique<fleet::FleetDriver>(options);
    if (Status built = driver_->Build(); !built.ok())
      return "build: " + built.ToString();
    if (Status warm = driver_->RunRounds(kWarmupRounds); !warm.ok())
      return "warm-up: " + warm.ToString();
    polls_ = kWarmupRounds;
    return "";
  }

  uint64_t PlanWindow(double seconds) override {
    const uint64_t half =
        static_cast<uint64_t>(0.25 * seconds * kNominalOpsPerSecond) + 1;
    outage_at_ = half;
    return 2 * half;
  }

  std::string Before(uint64_t index, OpContext& ctx) override {
    if (index != outage_at_) return "";
    {
      ScopedSpan span(ctx.spans, "fleet.outage", ctx.op_id);
      stores_killed_ = driver_->InjectCorrelatedOutage(kOutageFraction);
    }
    if (stores_killed_ == 0) return "the outage killed no store";
    const uint64_t start_us = driver_->clock().now_us();
    Result<int> polls = [&] {
      ScopedSpan span(ctx.spans, "fleet.recover", ctx.op_id);
      return driver_->RunUntilRecovered(kMaxRecoveryPolls);
    }();
    if (!polls.ok()) return "recovery: " + polls.status().ToString();
    polls_ += static_cast<uint64_t>(*polls);
    recovery_us_ = driver_->clock().now_us() - start_us;
    const fleet::FleetReport report = driver_->Report();
    if (report.clusters_lost != 0 || report.clusters_below_k != 0)
      return "after recovery: " + std::to_string(report.clusters_lost) +
             " clusters lost, " + std::to_string(report.clusters_below_k) +
             " below K";
    return "";
  }

  void RunOp(OpContext& ctx, OpRecord& record) override {
    ScopedSpan span(ctx.spans, "fleet.round", ctx.op_id);
    if (Status round = driver_->RunRounds(1); !round.ok())
      return record.Fail("round: " + round.ToString());
    ++polls_;
  }

  std::string FinalCheck() override {
    const fleet::FleetReport report = driver_->Report();
    if (report.clusters_lost != 0)
      return std::to_string(report.clusters_lost) + " clusters lost";
    return "";
  }

  Snapshot Snap() const override {
    const fleet::FleetReport r = driver_->Report();
    Snapshot snap;
    auto& n = snap.counters;
    n["swap.swap_outs"] = r.swap_outs;
    n["swap.swap_ins"] = r.swap_ins;
    // The report has no clean-swap-out count: a swap-out that serialized
    // placed K replicas, the others re-adopted their retained image.
    n["swap.clean_swap_outs"] =
        r.swap_outs - std::min(r.swap_outs, r.replicas_placed / kReplication);
    n["swap.replicas_placed"] = r.replicas_placed;
    n["swap.re_replications"] = r.replicas_re_replicated;
    n["fleet.placements"] = r.fleet_placements;
    n["net.calls"] = r.logical_calls;
    n["net.wire_attempts"] = r.wire_attempts;
    n["net.retries"] = r.wire_attempts - r.logical_calls;
    n["dur.polls"] = polls_ * kDevices;
    n["dur.scan_replicas"] = r.scan_replicas;
    n["dur.re_replications"] = r.replicas_re_replicated;
    n["vclock_us"] = r.virtual_us;
    return snap;
  }

  std::map<std::string, double> Results() const override {
    return {{"recovery_s", static_cast<double>(recovery_us_) / 1e6},
            {"stores_killed", static_cast<double>(stores_killed_)},
            {"balance_max_over_mean", driver_->Report().balance_max_over_mean}};
  }

  ReplayShape Shape() const override {
    // FleetDriver devices keep the manager defaults: XML, identity codec.
    return ReplayShape{kObjectsPerCluster, /*outbound=*/true, /*binary=*/false,
                       /*lz77=*/false, kStores, kReplication};
  }

  std::vector<std::string> CapturePayloads(size_t max) const override {
    std::vector<std::string> out;
    for (size_t i = 0; i < driver_->store_count() && out.size() < max; ++i) {
      const net::StoreNode* store = driver_->store_at(i);
      std::vector<SwapKey> keys = store->Keys();
      std::sort(keys.begin(), keys.end());
      for (SwapKey key : keys) {
        if (out.size() >= max) break;
        if (const std::string* payload = store->Peek(key))
          out.push_back(*payload);
      }
    }
    return out;
  }

  /// PollAll is only reachable inside a round; time it on its own here.
  std::map<std::string, double> ReplayOwn(OpContext& ctx) override {
    std::vector<double> poll_us;
    for (int i = 0; i < kReplayPolls; ++i) {
      ScopedSpan span(ctx.spans, "fleet.poll_all", ctx.op_id);
      const int64_t start = NowNs();
      driver_->PollAll();
      poll_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    }
    return {{"fleet.poll_all_us.p50", Percentile(poll_us, 50)}};
  }

 private:
  std::unique_ptr<fleet::FleetDriver> driver_;
  uint64_t outage_at_ = 0;
  uint64_t polls_ = 0;  ///< fleet-wide polls since Build()
  size_t stores_killed_ = 0;
  uint64_t recovery_us_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetOutage() {
  return std::make_unique<FleetOutage>();
}

}  // namespace sysbench
