// Web-service bridge (the paper's Communication Services).
//
// Mobile VMs of the era lacked remote invocation, so OBIWAN tunnelled calls
// through web services with XML-encoded payloads. We model that: every
// store/fetch/drop becomes an XML request envelope shipped over the
// simulated network, a dispatch on the store device, and an XML response
// envelope shipped back. The store device runs *only* the dumb StoreService
// — no VM, no middleware (§3).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/ids.h"
#include "common/status.h"
#include "net/health.h"
#include "net/network.h"
#include "net/store_node.h"
#include "telemetry/telemetry.h"
#include "xml/parser.h"

namespace obiswap::net {

/// True for the admission-control pushback status: a saturated (not
/// broken, not full) store said "come back later". Retry pacers key their
/// multiplicative backoff on exactly this; every other kResourceExhausted
/// (e.g. a store at byte capacity) is terminal.
inline bool IsPushback(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         status.message().rfind("pushback", 0) == 0;
}

// --- envelopes --------------------------------------------------------------
// Every call is one XML request envelope out and one XML response envelope
// back. Their bytes are a compatibility surface: wire sizes set transfer
// times on the virtual clock, so a changed byte moves every virtual-time
// result that ships a swap-cluster.
//
// The store, replication and transaction services share one status
// encoding: a response's `status` attribute is StatusCodeName of its code,
// and an error response also carries a `message`. A reader decodes an
// unknown code name as kInternal and a missing message as "remote error";
// an envelope with no status at all is kDataLoss "response missing
// status".

/// `<response status="OK"`: the open start tag of every service's OK
/// envelope, for the caller to finish with its attributes and body.
inline constexpr std::string_view kOkResponseOpen = "<response status=\"OK\"";

/// `<response status="CODE" message="..."/>`: the envelope every service
/// on the bridge answers a failed request with.
std::string ErrorResponse(StatusCode code, const std::string& message);

/// Parses a response envelope and fails with its remote status unless it
/// is OK: how the replication and transaction clients read their replies.
/// The tape's views point into `response_xml`, which must outlive it.
Result<xml::Tape> ParseOkEnvelope(std::string_view response_xml);

/// The request prologue of the replication and transaction services:
/// parses `request_xml` into `*request` and returns the root's `op`. Fails
/// with kInvalidArgument: the parser's message when the request is not
/// well-formed, else `bad_request` (each service names its own) when the
/// root is not <request> or names no op.
Result<std::string_view> ParseRequest(std::string_view request_xml,
                                      std::string_view bad_request,
                                      xml::Tape* request);

/// A request's `device` attribute as a device id. A device id is 32 bits
/// wide: a value outside that range is malformed (nullopt), not another
/// device's id after truncation.
std::optional<DeviceId> AsDeviceId(int64_t value);

/// The request envelopes StoreClient sends. `priority` rides as the `pri`
/// attribute when given; `StoreRequest` also carries the payload's
/// Adler-32 as `checksum`.
std::string StoreRequest(SwapKey key, const std::string& payload,
                         std::optional<Priority> priority = std::nullopt);
std::string FetchRequest(SwapKey key,
                         std::optional<Priority> priority = std::nullopt);
std::string DropRequest(SwapKey key,
                        std::optional<Priority> priority = std::nullopt);

/// One response envelope, parsed once: the retry loop reads its pushback
/// fields and the caller its status and payload from the same parse.
struct Response {
  Status status;                ///< OK or the remote error
  bool has_payload = false;     ///< a <payload> child was present
  std::string payload;          ///< its text
  bool pushback = false;        ///< IsPushback(status): shed, not served
  uint64_t retry_after_us = 0;  ///< the store's hint (pushback only)
  uint64_t depth = 0;           ///< queue depth at arrival (pushback only)
};

/// Reads a response envelope. kDataLoss when it is not well-formed XML
/// or carries no status.
Result<Response> ParseResponse(std::string_view response_xml);

/// Server side: turns request envelopes into StoreNode operations. This is
/// the entirety of the software a swapping device needs.
class StoreService {
 public:
  explicit StoreService(StoreNode& node) : node_(node) {}

  /// Handles one XML request, returns the XML response (errors become
  /// response envelopes with a status attribute, never exceptions).
  ///
  /// `now_us` is the arrival's virtual time, consulted by the node's
  /// admission controller when its queue is enabled; a request past the
  /// bounded queue gets a pushback envelope (status RESOURCE_EXHAUSTED,
  /// message "pushback...", `retry_after_us` + `depth` attributes) without
  /// touching the store. Admitted requests report their deterministic
  /// queueing delay through `queue_wait_us` (may be null). The defaults
  /// keep direct callers (tests, older code) byte-identical.
  std::string Handle(const std::string& request_xml, uint64_t now_us = 0,
                     uint64_t* queue_wait_us = nullptr);

  StoreNode& node() { return node_; }

 private:
  StoreNode& node_;
};

/// Directory of announced store devices — the discovery service. Nearby =
/// online, in radio range, and announced.
class Discovery {
 public:
  explicit Discovery(Network& network) : network_(network) {}

  /// A store device announces itself (idempotent re-announce allowed).
  void Announce(StoreNode* node);
  void Withdraw(DeviceId device);

  /// The service endpoint for a device; nullptr if not announced.
  StoreService* ServiceFor(DeviceId device);

  /// O(1) by-id lookup of an announced store's node; nullptr if not
  /// announced. Fleet-size directories address stores by id, so per-RPC
  /// lookups must not pay the O(stores) NearbyStores walk.
  StoreNode* NodeFor(DeviceId device) const;

  /// O(1) "would NearbyStores(from) include `device`": announced, not
  /// `from` itself, online, and in radio range.
  bool IsNearby(DeviceId from, DeviceId device) const;

  /// Store devices reachable from `from` whose advertised free capacity is
  /// at least `min_free_bytes`, best (most free) first.
  std::vector<StoreNode*> NearbyStores(DeviceId from,
                                       size_t min_free_bytes = 0) const;

  /// All announced devices, reachable or not (ascending). The durability
  /// monitor diffs this set across polls to spot permanent departures.
  std::vector<DeviceId> AnnouncedDevices() const;

 private:
  Network& network_;
  std::unordered_map<DeviceId, StoreNode*> announced_;
  std::unordered_map<DeviceId, StoreService> services_;
};

/// Client side: the mobile device's view of remote stores. Each call is two
/// transfers (request out, response back) and a remote dispatch.
class StoreClient {
 public:
  struct Stats {
    uint64_t calls = 0;
    uint64_t retries = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    uint64_t backoff_us = 0;  ///< virtual time spent waiting between retries
    uint64_t breaker_rejections = 0;  ///< calls refused by an open breaker
    uint64_t deadline_failures = 0;   ///< calls abandoned at their budget
    // --- overload path (all zero while queues/budgets are off) -------------
    uint64_t wire_attempts = 0;  ///< request envelopes actually transmitted
    uint64_t pushbacks = 0;      ///< shed responses received
    uint64_t pushbacks_by_class[kPriorityClasses] = {0, 0, 0, 0, 0};
    uint64_t pushback_retries = 0;  ///< retries that honored retry-after
    uint64_t queue_wait_us = 0;  ///< store queueing delay charged to calls
    uint64_t retry_budget_exhausted = 0;  ///< retries refused, no radio
    uint64_t retry_budget_earned = 0;     ///< centitokens earned (successes)
    uint64_t retry_budget_spent = 0;      ///< centitokens spent (retries)
    uint64_t max_store_queue_depth = 0;   ///< deepest depth a pushback showed
  };

  /// Per-store retry-budget token bucket (disabled by default — parity).
  /// Retries earn tokens only from successes: each success deposits
  /// `earn_per_success` centitokens, each retry withdraws
  /// `cost_per_retry`. When a store's bucket cannot cover a retry, the
  /// call fast-fails with its last error instead of touching the radio —
  /// during a brownout the retry rate decays to ~earn/cost of the success
  /// rate (10% at the defaults) instead of amplifying the storm.
  struct RetryBudgetOptions {
    bool enabled = false;
    uint32_t earn_per_success = 10;   ///< 0.1 token per success
    uint32_t cost_per_retry = 100;    ///< 1 token per retry
  };
  /// A fresh store's bucket level: some slack before any success.
  static constexpr uint32_t kInitialRetryCentitokens = 1000;
  /// Successes stop filling a bucket at this level.
  static constexpr uint32_t kMaxRetryCentitokens = 1000;

  StoreClient(Network& network, Discovery& discovery, DeviceId self,
              int max_attempts = 3)
      : network_(network),
        discovery_(discovery),
        self_(self),
        max_attempts_(max_attempts) {}

  /// `deadline_us` caps the whole call — attempts, backoff gaps and wire
  /// time — in virtual microseconds; past it the call fails with
  /// kDeadlineExceeded instead of stacking worst-case retries. 0 = none.
  /// `priority` is the request's shedding class; it rides the envelope
  /// only while set_annotate_priority(true) (off by default — the extra
  /// attribute changes wire sizes and therefore transfer clocks).
  Status Store(DeviceId device, SwapKey key, const std::string& text,
               uint64_t deadline_us = 0,
               Priority priority = Priority::kDemandSwapIn);
  Result<std::string> Fetch(DeviceId device, SwapKey key,
                            uint64_t deadline_us = 0,
                            Priority priority = Priority::kDemandSwapIn);
  Status Drop(DeviceId device, SwapKey key, uint64_t deadline_us = 0,
              Priority priority = Priority::kDemandSwapIn);

  const Stats& stats() const { return stats_; }
  DeviceId self() const { return self_; }

  /// Stamp each request envelope with its priority class (`pri`
  /// attribute) so priority-shedding stores can classify it. Off by
  /// default: the attribute changes envelope bytes, hence transfer times.
  void set_annotate_priority(bool enabled) { annotate_priority_ = enabled; }
  bool annotate_priority() const { return annotate_priority_; }

  void set_retry_budget(const RetryBudgetOptions& options) {
    budget_options_ = options;
  }
  const RetryBudgetOptions& retry_budget() const { return budget_options_; }

  /// First retry waits this long (virtual time), doubling per attempt.
  /// Zero disables backoff (the original back-to-back behavior).
  void set_retry_backoff_us(uint64_t base_us) { backoff_base_us_ = base_us; }
  uint64_t retry_backoff_us() const { return backoff_base_us_; }

  /// Ceiling on any single backoff gap: the exponential series saturates
  /// here instead of doubling without bound (or overflowing the shift).
  void set_max_backoff_us(uint64_t max_us) { max_backoff_us_ = max_us; }
  uint64_t max_backoff_us() const { return max_backoff_us_; }

  /// Optional per-store health tracker: every wire attempt feeds it, and an
  /// open circuit breaker fails calls fast before any radio traffic.
  void AttachHealth(HealthTracker* health) { health_ = health; }
  HealthTracker* health() const { return health_; }

  /// Optional shared telemetry bundle: every RPC then records an
  /// "rpc:<op>" span (one child span per network attempt), the "rpc_us"
  /// latency histogram, and rpc_calls/rpc_retries counters.
  void AttachTelemetry(telemetry::Telemetry* t) { telemetry_ = t; }

 private:
  /// Ships `request_xml` with retries. Returns the parsed response of the
  /// attempt that was served (its status may be a remote error), or the
  /// transport, deadline or pushback failure that ended the call.
  Result<Response> Call(DeviceId device, SwapKey key, const char* op,
                        const std::string& request_xml,
                        uint64_t deadline_us, Priority priority);

  /// The `pri` attribute this client stamps: `priority` while annotating.
  std::optional<Priority> Stamp(Priority priority) const {
    return annotate_priority_ ? std::optional<Priority>(priority)
                              : std::nullopt;
  }

  /// True if the bucket for `device` covers one retry (and charges it).
  bool SpendRetryToken(DeviceId device);
  void EarnRetryToken(DeviceId device);

  Network& network_;
  Discovery& discovery_;
  DeviceId self_;
  int max_attempts_;
  /// Default ≈ one Bluetooth latency window; exponential so lossy-link
  /// benches pay an honest clock cost for retransmissions.
  uint64_t backoff_base_us_ = 30'000;
  /// Default ≈ 1 s of virtual time; past this the series stops doubling.
  uint64_t max_backoff_us_ = 1'000'000;
  Stats stats_;
  telemetry::Telemetry* telemetry_ = nullptr;
  HealthTracker* health_ = nullptr;
  bool annotate_priority_ = false;
  RetryBudgetOptions budget_options_;
  /// Per-store bucket levels, in centitokens (integer — determinism).
  std::unordered_map<DeviceId, uint32_t> budget_tokens_;
};

}  // namespace obiswap::net
