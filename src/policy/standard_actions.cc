#include "policy/standard_actions.h"

#include "common/string_util.h"

namespace obiswap::policy {

namespace {
Result<int64_t> RequiredIntParam(const ActionParams& params,
                                 const std::string& name) {
  auto it = params.find(name);
  if (it == params.end())
    return InvalidArgumentError("missing action param '" + name + "'");
  return ParseInt64(it->second);
}

Result<std::string> RequiredStringParam(const ActionParams& params,
                                        const std::string& name) {
  auto it = params.find(name);
  if (it == params.end())
    return InvalidArgumentError("missing action param '" + name + "'");
  return it->second;
}
}  // namespace

Status RegisterSwapActions(PolicyEngine& engine, runtime::Runtime& rt,
                           swap::SwappingManager& manager) {
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "swap-out-victim",
      [&manager](const context::Event&, const ActionParams&) {
        return manager.SwapOutVictim().status();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "swap-out",
      [&manager](const context::Event&, const ActionParams& params) {
        OBISWAP_ASSIGN_OR_RETURN(int64_t cluster,
                                 RequiredIntParam(params, "cluster"));
        return manager.SwapOut(SwapClusterId(static_cast<uint32_t>(cluster)))
            .status();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "swap-in",
      [&manager](const context::Event&, const ActionParams& params) {
        OBISWAP_ASSIGN_OR_RETURN(int64_t cluster,
                                 RequiredIntParam(params, "cluster"));
        return manager.SwapIn(SwapClusterId(static_cast<uint32_t>(cluster)));
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "collect", [&rt](const context::Event&, const ActionParams&) {
        rt.heap().Collect();
        return OkStatus();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-replication-factor",
      [&manager](const context::Event&, const ActionParams& params) {
        OBISWAP_ASSIGN_OR_RETURN(int64_t factor,
                                 RequiredIntParam(params, "factor"));
        if (factor <= 0)
          return InvalidArgumentError("factor must be positive");
        manager.set_replication_factor(static_cast<size_t>(factor));
        return OkStatus();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-swap-cache-bytes",
      [&manager](const context::Event&, const ActionParams& params) {
        OBISWAP_ASSIGN_OR_RETURN(int64_t bytes,
                                 RequiredIntParam(params, "bytes"));
        if (bytes < 0)
          return InvalidArgumentError("bytes must be non-negative");
        manager.set_swap_in_cache_bytes(static_cast<size_t>(bytes));
        return OkStatus();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-telemetry",
      [&manager](const context::Event&, const ActionParams& params) {
        OBISWAP_ASSIGN_OR_RETURN(int64_t enabled,
                                 RequiredIntParam(params, "enabled"));
        manager.telemetry().set_enabled(enabled != 0);
        return OkStatus();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "dump-trace",
      [&manager](const context::Event&, const ActionParams& params) {
        OBISWAP_ASSIGN_OR_RETURN(std::string path,
                                 RequiredStringParam(params, "path"));
        return manager.telemetry().DumpTrace(path);
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-brownout",
      [&manager](const context::Event&, const ActionParams& params) {
        OBISWAP_ASSIGN_OR_RETURN(int64_t enabled,
                                 RequiredIntParam(params, "enabled"));
        if (enabled != 0)
          manager.EnterBrownout("policy");
        else
          manager.ExitBrownout();
        return OkStatus();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-hedged-fetch",
      [&manager](const context::Event&, const ActionParams& params) {
        OBISWAP_ASSIGN_OR_RETURN(int64_t enabled,
                                 RequiredIntParam(params, "enabled"));
        manager.set_hedged_fetch(enabled != 0);
        return OkStatus();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-op-deadline",
      [&manager](const context::Event&, const ActionParams& params) {
        OBISWAP_ASSIGN_OR_RETURN(int64_t us, RequiredIntParam(params, "us"));
        if (us < 0) return InvalidArgumentError("us must be non-negative");
        manager.set_op_deadline_us(static_cast<uint64_t>(us));
        return OkStatus();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-wire-format",
      [&manager](const context::Event&,
                 const ActionParams& params) -> Status {
        OBISWAP_ASSIGN_OR_RETURN(std::string format,
                                 RequiredStringParam(params, "format"));
        OBISWAP_RETURN_IF_ERROR(manager.set_wire_format(format));
        // Optional: flip delta swap-out in the same action (deltas only
        // take effect on the binary format anyway).
        if (auto it = params.find("delta"); it != params.end()) {
          OBISWAP_ASSIGN_OR_RETURN(int64_t delta, ParseInt64(it->second));
          manager.set_delta_swap_out(delta != 0);
        }
        return OkStatus();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "inject-fault",
      [&manager](const context::Event&,
                 const ActionParams& params) -> Status {
        swap::FaultInjector* faults = manager.fault_injector();
        if (faults == nullptr)
          return FailedPreconditionError(
              "no fault injector attached to the swapping manager");
        OBISWAP_ASSIGN_OR_RETURN(std::string point,
                                 RequiredStringParam(params, "point"));
        OBISWAP_ASSIGN_OR_RETURN(std::string kind_name,
                                 RequiredStringParam(params, "kind"));
        OBISWAP_ASSIGN_OR_RETURN(swap::FaultKind kind,
                                 swap::ParseFaultKind(kind_name));
        int64_t nth = 1;
        if (auto it = params.find("nth"); it != params.end()) {
          OBISWAP_ASSIGN_OR_RETURN(nth, ParseInt64(it->second));
        }
        if (nth <= 0) return InvalidArgumentError("nth must be positive");
        int64_t delay_us = 0;
        if (auto it = params.find("delay_us"); it != params.end()) {
          OBISWAP_ASSIGN_OR_RETURN(delay_us, ParseInt64(it->second));
        }
        if (delay_us < 0)
          return InvalidArgumentError("delay_us must be non-negative");
        faults->Arm(std::move(point), kind, static_cast<uint64_t>(nth),
                    static_cast<uint64_t>(delay_us));
        return OkStatus();
      }));
  return OkStatus();
}

Status RegisterPrefetchActions(PolicyEngine& engine,
                               prefetch::Prefetcher& prefetcher) {
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-prefetch-budget",
      [&prefetcher](const context::Event&, const ActionParams& params) {
        OBISWAP_ASSIGN_OR_RETURN(int64_t budget,
                                 RequiredIntParam(params, "budget"));
        if (budget < 0)
          return InvalidArgumentError("budget must be non-negative");
        prefetcher.set_budget(static_cast<size_t>(budget));
        return OkStatus();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-prefetch-mode",
      [&prefetcher](const context::Event&,
                    const ActionParams& params) -> Status {
        OBISWAP_ASSIGN_OR_RETURN(std::string mode_name,
                                 RequiredStringParam(params, "mode"));
        OBISWAP_ASSIGN_OR_RETURN(prefetch::PrefetchMode mode,
                                 prefetch::ParsePrefetchMode(mode_name));
        prefetcher.set_mode(mode);
        return OkStatus();
      }));
  return OkStatus();
}

Status RegisterTierActions(PolicyEngine& engine, tier::TierManager& tiers) {
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-tier-bytes",
      [&tiers](const context::Event&, const ActionParams& params) -> Status {
        OBISWAP_ASSIGN_OR_RETURN(std::string which,
                                 RequiredStringParam(params, "tier"));
        OBISWAP_ASSIGN_OR_RETURN(int64_t bytes,
                                 RequiredIntParam(params, "bytes"));
        if (bytes < 0) return InvalidArgumentError("bytes must be non-negative");
        if (which == "ram") {
          tiers.set_ram_bytes(static_cast<size_t>(bytes));
        } else if (which == "flash") {
          tiers.set_flash_slots(static_cast<size_t>(bytes) /
                                tiers.flash_slot_bytes());
        } else {
          return InvalidArgumentError("tier must be 'ram' or 'flash', got '" +
                                      which + "'");
        }
        return OkStatus();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-tier-mode",
      [&tiers](const context::Event&, const ActionParams& params) -> Status {
        OBISWAP_ASSIGN_OR_RETURN(std::string mode_name,
                                 RequiredStringParam(params, "mode"));
        OBISWAP_ASSIGN_OR_RETURN(tier::TierMode mode,
                                 tier::ParseTierMode(mode_name));
        tiers.set_mode(mode);
        return OkStatus();
      }));
  return OkStatus();
}

Status RegisterFleetActions(PolicyEngine& engine,
                            fleet::PlacementDirectory& directory) {
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-fleet",
      [&directory](const context::Event&,
                   const ActionParams& params) -> Status {
        OBISWAP_ASSIGN_OR_RETURN(std::string op,
                                 RequiredStringParam(params, "op"));
        OBISWAP_ASSIGN_OR_RETURN(int64_t store,
                                 RequiredIntParam(params, "store"));
        if (store < 0) return InvalidArgumentError("store must be >= 0");
        DeviceId device(static_cast<uint32_t>(store));
        if (op == "join") {
          double weight = 1.0;
          auto it = params.find("weight");
          if (it != params.end()) {
            OBISWAP_ASSIGN_OR_RETURN(int64_t parsed,
                                     RequiredIntParam(params, "weight"));
            if (parsed <= 0)
              return InvalidArgumentError("weight must be positive");
            weight = static_cast<double>(parsed);
          }
          directory.AddStore(device, weight);
        } else if (op == "leave") {
          directory.RemoveStore(device);
        } else if (op == "weight") {
          OBISWAP_ASSIGN_OR_RETURN(int64_t weight,
                                   RequiredIntParam(params, "weight"));
          if (weight <= 0)
            return InvalidArgumentError("weight must be positive");
          if (!directory.Contains(device))
            return NotFoundError("store " + device.ToString() +
                                 " not in the fleet view");
          directory.SetWeight(device, static_cast<double>(weight));
        } else if (op == "healthy") {
          OBISWAP_ASSIGN_OR_RETURN(int64_t healthy,
                                   RequiredIntParam(params, "healthy"));
          if (!directory.Contains(device))
            return NotFoundError("store " + device.ToString() +
                                 " not in the fleet view");
          directory.SetHealthy(device, healthy != 0);
        } else {
          return InvalidArgumentError(
              "op must be 'join', 'leave', 'weight' or 'healthy', got '" +
              op + "'");
        }
        return OkStatus();
      }));
  return OkStatus();
}

Status RegisterOverloadActions(PolicyEngine& engine, net::Discovery& discovery,
                               net::StoreClient& client) {
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-store-queue",
      [&discovery](const context::Event&,
                   const ActionParams& params) -> Status {
        OBISWAP_ASSIGN_OR_RETURN(int64_t enabled,
                                 RequiredIntParam(params, "enabled"));
        net::StoreNode::QueueOptions queue;
        queue.enabled = enabled != 0;
        if (params.count("concurrency") > 0) {
          OBISWAP_ASSIGN_OR_RETURN(int64_t concurrency,
                                   RequiredIntParam(params, "concurrency"));
          if (concurrency <= 0)
            return InvalidArgumentError("concurrency must be positive");
          queue.concurrency = static_cast<size_t>(concurrency);
        }
        if (params.count("queue_limit") > 0) {
          OBISWAP_ASSIGN_OR_RETURN(int64_t limit,
                                   RequiredIntParam(params, "queue_limit"));
          if (limit < 0)
            return InvalidArgumentError("queue_limit must be >= 0");
          queue.queue_limit = static_cast<size_t>(limit);
        }
        if (params.count("service_time_us") > 0) {
          OBISWAP_ASSIGN_OR_RETURN(
              int64_t service, RequiredIntParam(params, "service_time_us"));
          if (service <= 0)
            return InvalidArgumentError("service_time_us must be positive");
          queue.service_time_us = static_cast<uint64_t>(service);
        }
        for (DeviceId device : discovery.AnnouncedDevices()) {
          net::StoreNode* node = discovery.NodeFor(device);
          if (node == nullptr) continue;
          // Shedding is a separate knob; the queue reconfigure keeps it.
          net::StoreNode::QueueOptions applied = queue;
          applied.priority_shedding = node->queue_options().priority_shedding;
          node->ConfigureQueue(applied);
        }
        return OkStatus();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-priority-shedding",
      [&discovery, &client](const context::Event&,
                            const ActionParams& params) -> Status {
        OBISWAP_ASSIGN_OR_RETURN(int64_t enabled,
                                 RequiredIntParam(params, "enabled"));
        for (DeviceId device : discovery.AnnouncedDevices()) {
          net::StoreNode* node = discovery.NodeFor(device);
          if (node == nullptr) continue;
          net::StoreNode::QueueOptions queue = node->queue_options();
          queue.priority_shedding = enabled != 0;
          node->ConfigureQueue(queue);
        }
        // Stores can only classify stamped requests, so the shedding knob
        // drives the client-side annotation too.
        client.set_annotate_priority(enabled != 0);
        return OkStatus();
      }));
  OBISWAP_RETURN_IF_ERROR(engine.RegisterAction(
      "set-retry-budget",
      [&client](const context::Event&, const ActionParams& params) -> Status {
        OBISWAP_ASSIGN_OR_RETURN(int64_t enabled,
                                 RequiredIntParam(params, "enabled"));
        net::StoreClient::RetryBudgetOptions budget = client.retry_budget();
        budget.enabled = enabled != 0;
        if (params.count("earn") > 0) {
          OBISWAP_ASSIGN_OR_RETURN(int64_t earn,
                                   RequiredIntParam(params, "earn"));
          if (earn < 0) return InvalidArgumentError("earn must be >= 0");
          budget.earn_per_success = static_cast<uint32_t>(earn);
        }
        if (params.count("cost") > 0) {
          OBISWAP_ASSIGN_OR_RETURN(int64_t cost,
                                   RequiredIntParam(params, "cost"));
          if (cost <= 0) return InvalidArgumentError("cost must be positive");
          budget.cost_per_retry = static_cast<uint32_t>(cost);
        }
        client.set_retry_budget(budget);
        return OkStatus();
      }));
  return OkStatus();
}

Status RegisterReplicationActions(PolicyEngine& engine,
                                  replication::ReplicationServer& server) {
  return engine.RegisterAction(
      "set-replication-cluster-size",
      [&server](const context::Event&, const ActionParams& params) {
        OBISWAP_ASSIGN_OR_RETURN(int64_t size,
                                 RequiredIntParam(params, "size"));
        if (size <= 0) return InvalidArgumentError("size must be positive");
        server.set_cluster_size(static_cast<size_t>(size));
        return OkStatus();
      });
}

}  // namespace obiswap::policy
