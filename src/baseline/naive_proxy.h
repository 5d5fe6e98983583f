// Naive per-object proxy baseline (paper §5, last paragraph; related work
// [1,5,6] Messer/Chen-style offloading with per-object surrogates).
//
// "a naive [solution] would have one proxy per each object and all
// references mediated by them. Common application objects are small. So,
// this could potentially double memory occupation when fully-loaded ...
// would also inevitably impose a higher performance penalty, due to
// indirections. Furthermore, even when all objects were swapped, the
// proxies would still remain."
//
// This manager implements exactly that: every stored reference is mediated
// by a per-object surrogate, objects swap out *individually* (one store
// round-trip per object, as in the migration systems), and surrogates
// survive the swap. It reuses the same Runtime hooks as the real
// SwappingManager so the two are directly comparable.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "net/bridge.h"
#include "runtime/runtime.h"

namespace obiswap::baseline {

/// Surrogates are pinned by the manager itself (it plays the role of the
/// migration systems' modified VM object table): "even when all objects
/// were swapped, the proxies would still remain, which would incur in
/// higher memory overhead."
class NaiveProxyManager final : public runtime::Interceptor,
                                public runtime::StoreMediator,
                                public runtime::RootProvider {
 public:
  struct Stats {
    uint64_t proxies_created = 0;
    uint64_t proxies_reused = 0;
    uint64_t mediated_invocations = 0;
    uint64_t objects_swapped_out = 0;
    uint64_t objects_swapped_in = 0;
    uint64_t store_round_trips = 0;
    uint64_t bytes_swapped_out = 0;
  };

  /// Installs the hooks. Uses the kSwapClusterProxy interception slot (the
  /// baseline replaces the real manager; never install both on one
  /// runtime).
  explicit NaiveProxyManager(runtime::Runtime& rt);
  ~NaiveProxyManager() override;

  NaiveProxyManager(const NaiveProxyManager&) = delete;
  NaiveProxyManager& operator=(const NaiveProxyManager&) = delete;

  void AttachStore(net::StoreClient* client, net::Discovery* discovery) {
    store_ = client;
    discovery_ = discovery;
  }

  /// Swaps out each object individually: one serialized document and one
  /// store round-trip per object; its surrogate remains, marked swapped.
  Status SwapOutObjects(const std::vector<runtime::Object*>& objects);

  // Hooks.
  runtime::Object* MediateStore(runtime::Runtime& rt,
                                runtime::Object* holder,
                                runtime::Object* value) override;
  Result<runtime::Value> Invoke(runtime::Runtime& rt,
                                runtime::Object* receiver,
                                runtime::Selector method,
                                runtime::Args args) override;

  /// Surrogate count currently alive (memory-overhead measurements).
  size_t LiveProxyCount() const { return proxies_.size(); }

  // RootProvider: the surrogate table pins every surrogate.
  void EnumerateRoots(
      const std::function<void(runtime::Object*)>& visit) override;

  const Stats& stats() const { return stats_; }

 private:
  Result<runtime::Object*> ProxyFor(runtime::Object* target);
  Result<runtime::Object*> FaultObject(runtime::Object* proxy);

  runtime::Runtime& rt_;
  const runtime::ClassInfo* proxy_cls_;
  net::StoreClient* store_ = nullptr;
  net::Discovery* discovery_ = nullptr;
  /// Strong: surrogates live for the process lifetime, like the migration
  /// systems' object-table entries.
  std::unordered_map<ObjectId, runtime::Object*> proxies_;
  uint64_t next_key_ = 1;
  Stats stats_;
};

}  // namespace obiswap::baseline
