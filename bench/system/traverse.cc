// traverse: the paper's Fig. 5 list, everything resident.
//
// 10,000 64-byte nodes in 50-object swap-clusters and no store attached:
// all of the work is runtime invocation, proxy mediation and the LGC
// reclaiming proxy garbage. No serialization, compression, network or tier
// code runs, so a pipeline optimisation must leave this workload unchanged
// and a mediation change shows up here alone. The workload has no random
// choices; the seed is accepted and unused.
//
// Each session ends by asking the manager for every cluster's inbound proxy
// count. That public accessor is the only path that prunes the manager's
// weak references to collected proxies of clusters that never swap; without
// it they accumulate, every collection's weak-reference pass grows with the
// number of sessions run, and session time climbs without bound (see
// README.md).
#include <memory>
#include <string>
#include <vector>

#include "obiswap/obiswap.h"
#include "workload.h"
#include "workload/list_workload.h"

namespace sysbench {
namespace {

using obiswap::SwapClusterId;
using obiswap::runtime::Object;
using obiswap::runtime::Value;

constexpr int kListSize = 10000;
constexpr int kPerCluster = 50;
constexpr int kWarmupOps = 20;
/// Sessions per second on the reference machine (see README.md).
constexpr double kNominalOpsPerSecond = 30.0;

class Traverse final : public Workload {
 public:
  std::string Setup(uint64_t seed) override {
    (void)seed;
    rt_ = std::make_unique<obiswap::runtime::Runtime>(1);
    const obiswap::runtime::ClassInfo* node_cls =
        obiswap::workload::RegisterNodeClass(*rt_);
    manager_ = std::make_unique<obiswap::swap::SwappingManager>(*rt_);
    clusters_ = obiswap::workload::BuildList(*rt_, manager_.get(), node_cls,
                                             kListSize, kPerCluster, "head");
    SubSamples scratch;
    SpanRecorder off;
    for (int i = 0; i < kWarmupOps; ++i) {
      OpContext ctx{off, scratch, 0};
      OpRecord record;
      RunOp(ctx, record);
      if (!record.ok) return "warm-up: " + record.error;
    }
    return "";
  }

  uint64_t PlanWindow(double seconds) override {
    return static_cast<uint64_t>(0.5 * seconds * kNominalOpsPerSecond) + 1;
  }

  /// One A1 -> A2 -> B1 -> B2 session, checked as fig5_traversal checks it.
  void RunOp(OpContext& ctx, OpRecord& record) override {
    {
      ScopedSpan span(ctx.spans, "runtime.invoke", ctx.op_id);
      const int64_t start = NowNs();
      auto depth = rt_->Invoke(Head(), "step", {Value::Int(0)});
      ctx.samples.invoke_us.push_back(static_cast<double>(NowNs() - start) /
                                      1e3);
      if (!depth.ok() || depth->as_int() != kListSize - 1)
        return record.Fail("A1 step: " + Describe(depth));
    }
    {
      ScopedSpan span(ctx.spans, "runtime.invoke", ctx.op_id);
      auto depth = rt_->Invoke(Head(), "walk", {Value::Int(0)});
      if (!depth.ok() || depth->as_int() != kListSize - 1)
        return record.Fail("A2 walk: " + Describe(depth));
    }
    Iterate(/*assign=*/false, ctx, record);
    if (record.ok) Iterate(/*assign=*/true, ctx, record);
    ScopedSpan span(ctx.spans, "swap.prune", ctx.op_id);
    for (SwapClusterId id : clusters_) manager_->InboundProxyCount(id);
  }

  Snapshot Snap() const override {
    Snapshot snap;
    const auto& rt_stats = rt_->stats();
    const auto& heap_stats = rt_->heap().stats();
    const auto& swap_stats = manager_->stats();
    snap.counters["rt.invocations"] =
        rt_stats.direct_invocations + rt_stats.intercepted_invocations;
    snap.counters["rt.collections"] = heap_stats.collections;
    snap.counters["rt.objects_allocated"] = heap_stats.objects_allocated;
    snap.counters["swap.proxies_created"] = swap_stats.proxies_created;
    snap.counters["swap.boundary_crossings"] = swap_stats.boundary_crossings;
    return snap;
  }

  std::map<std::string, double> ReplayOwn(OpContext& ctx) override {
    (void)ctx;
    return {{"runtime.collect_us", CollectUs(rt_->heap())}};
  }

  ReplayShape Shape() const override {
    return ReplayShape{kPerCluster, /*outbound=*/true, /*binary=*/false,
                       /*lz77=*/false, /*stores=*/3, /*replication=*/2};
  }

 private:
  Object* Head() { return rt_->GetGlobal("head")->ref(); }

  static std::string Describe(const obiswap::Result<Value>& result) {
    if (!result.ok()) return result.status().ToString();
    return "returned " + std::to_string(result->as_int());
  }

  /// Test B: full iteration through a global cursor; every returned
  /// reference is mediated (B1), or patched in place by assign() (B2).
  void Iterate(bool assign, OpContext& ctx, OpRecord& record) {
    ScopedSpan span(ctx.spans, "runtime.iterate", ctx.op_id);
    auto start = rt_->Invoke(Head(), "probe", {Value::Int(0)});
    if (!start.ok()) return record.Fail("B probe: " + Describe(start));
    if (!rt_->SetGlobal("cur", *start).ok())
      return record.Fail("B: cursor store failed");
    if (assign && !manager_->Assign(rt_->GetGlobal("cur")->ref()).ok())
      return record.Fail("B2: assign failed");
    int steps = 0;
    for (;;) {
      Value cur = *rt_->GetGlobal("cur");
      if (!cur.is_ref() || cur.ref() == nullptr) break;
      auto next = rt_->Invoke(cur.ref(), "next");
      if (!next.ok()) return record.Fail("B next: " + Describe(next));
      if (!rt_->SetGlobal("cur", *next).ok())
        return record.Fail("B: cursor store failed");
      ++steps;
    }
    if (steps != kListSize)
      record.Fail(std::string(assign ? "B2" : "B1") + " visited " +
                  std::to_string(steps) + " nodes");
  }

  std::unique_ptr<obiswap::runtime::Runtime> rt_;
  std::unique_ptr<obiswap::swap::SwappingManager> manager_;
  std::vector<SwapClusterId> clusters_;
};

}  // namespace

std::unique_ptr<Workload> MakeTraverse() { return std::make_unique<Traverse>(); }

}  // namespace sysbench
