#include "net/bridge.h"

#include <algorithm>

#include "common/checksum.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace obiswap::net {

namespace {

std::string ErrorResponse(StatusCode code, const std::string& message) {
  auto response = xml::Node::Element("response");
  response->SetAttr("status", StatusCodeName(code));
  response->SetAttr("message", message);
  return xml::Write(*response);
}

/// Admission-control rejection: kResourceExhausted plus the retry-after
/// hint and the queue depth at arrival. The "pushback" message prefix is
/// the wire-level marker IsPushback() keys on client-side.
std::string PushbackResponse(const StoreNode::AdmitResult& result) {
  auto response = xml::Node::Element("response");
  response->SetAttr("status", StatusCodeName(StatusCode::kResourceExhausted));
  response->SetAttr("message", "pushback: store saturated");
  response->SetIntAttr("retry_after_us",
                       static_cast<int64_t>(result.retry_after_us));
  response->SetIntAttr("depth", static_cast<int64_t>(result.depth));
  return xml::Write(*response);
}

std::string OkResponse(const std::string* payload = nullptr) {
  auto response = xml::Node::Element("response");
  response->SetAttr("status", "OK");
  if (payload != nullptr) {
    response->AddElement("payload")->AddText(*payload);
  }
  return xml::Write(*response);
}

StatusCode CodeFromName(const std::string& name) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kInvalidArgument, StatusCode::kFailedPrecondition,
        StatusCode::kResourceExhausted, StatusCode::kUnavailable,
        StatusCode::kDataLoss, StatusCode::kInternal,
        StatusCode::kDeadlineExceeded}) {
    if (name == StatusCodeName(code)) return code;
  }
  return StatusCode::kInternal;
}

/// splitmix64 finalizer — a stateless bit mixer for the per-key backoff
/// jitter. Not Rng: the jitter must depend only on (key, device, attempt)
/// so identical runs reproduce it without consuming shared random state.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The request envelope every op shares; `payload` only for stores.
std::string Request(const char* op, SwapKey key, const std::string* payload,
                    std::optional<Priority> priority) {
  auto request = xml::Node::Element("request");
  request->SetAttr("op", op);
  request->SetIntAttr("key", static_cast<int64_t>(key.value()));
  // Content checksum: transit integrity + retry idempotency (see
  // StoreService::Handle).
  if (payload != nullptr)
    request->SetIntAttr("checksum", static_cast<int64_t>(Adler32(*payload)));
  if (priority.has_value())
    request->SetIntAttr("pri", static_cast<int64_t>(*priority));
  if (payload != nullptr) request->AddElement("payload")->AddText(*payload);
  return xml::Write(*request);
}

}  // namespace

std::string StoreRequest(SwapKey key, const std::string& payload,
                         std::optional<Priority> priority) {
  return Request("store", key, &payload, priority);
}

std::string FetchRequest(SwapKey key, std::optional<Priority> priority) {
  return Request("fetch", key, nullptr, priority);
}

std::string DropRequest(SwapKey key, std::optional<Priority> priority) {
  return Request("drop", key, nullptr, priority);
}

Result<Response> ParseResponse(std::string_view response_xml) {
  OBISWAP_ASSIGN_OR_RETURN(std::unique_ptr<xml::Node> parsed,
                           xml::Parse(response_xml));
  const xml::Node& envelope = *parsed;
  const std::string* status_name = envelope.FindAttr("status");
  if (status_name == nullptr) return DataLossError("response missing status");
  Response response;
  if (*status_name != "OK") {
    const std::string* message = envelope.FindAttr("message");
    response.status = Status(CodeFromName(*status_name),
                             message != nullptr ? *message : "remote error");
    if (IsPushback(response.status)) {
      response.pushback = true;
      auto retry_after = envelope.GetIntAttr("retry_after_us");
      if (retry_after.ok() && *retry_after > 0)
        response.retry_after_us = static_cast<uint64_t>(*retry_after);
      auto depth = envelope.GetIntAttr("depth");
      if (depth.ok() && *depth > 0)
        response.depth = static_cast<uint64_t>(*depth);
    }
  } else if (const xml::Node* payload = envelope.FindChild("payload")) {
    response.has_payload = true;
    response.payload = payload->InnerText();
  }
  return response;
}

std::string StoreService::Handle(const std::string& request_xml,
                                 uint64_t now_us, uint64_t* queue_wait_us) {
  auto parsed = xml::Parse(request_xml);
  if (!parsed.ok())
    return ErrorResponse(StatusCode::kInvalidArgument,
                         "bad request: " + parsed.status().message());
  const xml::Node& request = **parsed;
  if (request.name() != "request")
    return ErrorResponse(StatusCode::kInvalidArgument, "not a request");
  const std::string* op = request.FindAttr("op");
  if (op == nullptr)
    return ErrorResponse(StatusCode::kInvalidArgument, "missing op");
  auto key_attr = request.GetIntAttr("key");
  if (!key_attr.ok())
    return ErrorResponse(StatusCode::kInvalidArgument, "missing key");
  SwapKey key(static_cast<uint64_t>(*key_attr));

  // Admission control: well-formed requests queue against the node's
  // bounded virtual-time service model before any store work happens. An
  // unstamped request (annotation off, legacy caller) is treated as demand
  // class — the strictest shedding applies only to traffic that opted in.
  if (node_.queue_options().enabled) {
    Priority priority = Priority::kDemandSwapIn;
    if (request.FindAttr("pri") != nullptr) {
      auto pri_attr = request.GetIntAttr("pri");
      if (!pri_attr.ok() || *pri_attr < 0 || *pri_attr >= kPriorityClasses)
        return ErrorResponse(StatusCode::kInvalidArgument, "bad pri");
      priority = static_cast<Priority>(*pri_attr);
    }
    StoreNode::AdmitResult admit = node_.Admit(now_us, priority);
    if (!admit.admitted) return PushbackResponse(admit);
    if (queue_wait_us != nullptr) *queue_wait_us = admit.queue_wait_us;
  }

  if (*op == "store") {
    const xml::Node* payload = request.FindChild("payload");
    if (payload == nullptr)
      return ErrorResponse(StatusCode::kInvalidArgument, "missing payload");
    std::string text = payload->InnerText();
    // The envelope carries an Adler-32 of the content. It guards the
    // payload in transit and — crucially — makes retried stores
    // idempotent: when the store executed but the response envelope was
    // lost, the retry hits kAlreadyExists on the dumb node; an existing
    // entry with the same content checksum means the payload is already
    // durably stored, so the retry reports success.
    bool has_checksum = request.FindAttr("checksum") != nullptr;
    int64_t checksum = 0;
    if (has_checksum) {
      auto checksum_attr = request.GetIntAttr("checksum");
      if (!checksum_attr.ok())
        return ErrorResponse(StatusCode::kInvalidArgument, "bad checksum");
      checksum = *checksum_attr;
      if (static_cast<int64_t>(Adler32(text)) != checksum)
        return ErrorResponse(StatusCode::kDataLoss,
                             "store payload corrupted in transit");
    }
    Status status = node_.Store(key, std::move(text));
    if (status.code() == StatusCode::kAlreadyExists && has_checksum) {
      const std::string* existing = node_.Peek(key);
      if (existing != nullptr &&
          static_cast<int64_t>(Adler32(*existing)) == checksum) {
        return OkResponse();  // identical content: retried store succeeded
      }
    }
    if (!status.ok()) return ErrorResponse(status.code(), status.message());
    return OkResponse();
  }
  if (*op == "fetch") {
    Result<std::string> text = node_.Fetch(key);
    if (!text.ok())
      return ErrorResponse(text.status().code(), text.status().message());
    return OkResponse(&*text);
  }
  if (*op == "drop") {
    Status status = node_.Drop(key);
    if (!status.ok()) return ErrorResponse(status.code(), status.message());
    return OkResponse();
  }
  return ErrorResponse(StatusCode::kInvalidArgument, "unknown op '" + *op +
                                                         "'");
}

void Discovery::Announce(StoreNode* node) {
  announced_[node->device()] = node;
  services_.erase(node->device());
  services_.emplace(node->device(), StoreService(*node));
}

void Discovery::Withdraw(DeviceId device) {
  announced_.erase(device);
  services_.erase(device);
}

StoreService* Discovery::ServiceFor(DeviceId device) {
  auto it = services_.find(device);
  return it == services_.end() ? nullptr : &it->second;
}

StoreNode* Discovery::NodeFor(DeviceId device) const {
  auto it = announced_.find(device);
  return it == announced_.end() ? nullptr : it->second;
}

bool Discovery::IsNearby(DeviceId from, DeviceId device) const {
  if (device == from || announced_.count(device) == 0) return false;
  return network_.IsOnline(device) && network_.InRange(from, device);
}

std::vector<DeviceId> Discovery::AnnouncedDevices() const {
  std::vector<DeviceId> out;
  out.reserve(announced_.size());
  for (const auto& [device, node] : announced_) out.push_back(device);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<StoreNode*> Discovery::NearbyStores(DeviceId from,
                                                size_t min_free_bytes) const {
  std::vector<StoreNode*> out;
  for (const auto& [device, node] : announced_) {
    if (device == from) continue;
    if (!network_.IsOnline(device) || !network_.InRange(from, device))
      continue;
    if (node->free_bytes() < min_free_bytes) continue;
    out.push_back(node);
  }
  std::sort(out.begin(), out.end(), [](StoreNode* a, StoreNode* b) {
    if (a->free_bytes() != b->free_bytes())
      return a->free_bytes() > b->free_bytes();
    return a->device() < b->device();
  });
  return out;
}

Result<Response> StoreClient::Call(DeviceId device, SwapKey key,
                                   const char* op,
                                   const std::string& request_xml,
                                   uint64_t deadline_us, Priority priority) {
  telemetry::ScopedSpan rpc_span(telemetry_, std::string("rpc:") + op, "net",
                                 telemetry::Hist(telemetry_, "rpc_us"));
  if (telemetry_ != nullptr)
    telemetry_->metrics().GetCounter("rpc_calls").Increment();
  // Breaker gate: a store known to be sick is refused before any radio
  // traffic, so K-replica walks skip it at zero virtual-time cost.
  if (health_ != nullptr && !health_->AllowRequest(device)) {
    ++stats_.breaker_rejections;
    if (telemetry_ != nullptr)
      telemetry_->metrics().GetCounter("rpc_breaker_rejections").Increment();
    return UnavailableError("circuit breaker open for device " +
                            device.ToString());
  }
  StoreService* service = discovery_.ServiceFor(device);
  if (service == nullptr)
    return NotFoundError("device " + device.ToString() + " not announced");
  ++stats_.calls;
  const uint64_t start_us = network_.clock().now_us();
  // Remaining virtual-time budget; UINT64_MAX when the call is unbounded.
  auto budget_left = [&]() -> uint64_t {
    if (deadline_us == 0) return UINT64_MAX;
    uint64_t used = network_.clock().now_us() - start_us;
    return used >= deadline_us ? 0 : deadline_us - used;
  };
  Status last = UnavailableError("no attempt made");
  // While the last attempt was shed, `last` holds its pushback status and
  // the store's retry-after hint replaces the exponential backoff series.
  uint64_t pushback_wait_us = 0;
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    if (attempt > 0) {
      // Retry budget: a retry must be covered by this store's token
      // bucket or the call fast-fails with what it has — no radio, no
      // backoff sleep. This is what bounds retry amplification in a storm.
      if (budget_options_.enabled && !SpendRetryToken(device)) {
        ++stats_.retry_budget_exhausted;
        return last;
      }
      ++stats_.retries;
      if (telemetry_ != nullptr)
        telemetry_->metrics().GetCounter("rpc_retries").Increment();
      if (pushback_wait_us > 0) {
        // Shed by admission control: honor the store's deterministic
        // retry-after hint instead of doubling a blind series. A hint at
        // or past the remaining budget cannot succeed — fail fast rather
        // than sleep into the deadline.
        if (pushback_wait_us >= budget_left()) {
          ++stats_.deadline_failures;
          return DeadlineExceededError(
              "pushback retry-after " + std::to_string(pushback_wait_us) +
              "us exceeds rpc budget");
        }
        network_.clock().Advance(pushback_wait_us);
        stats_.backoff_us += pushback_wait_us;
        ++stats_.pushback_retries;
      } else if (backoff_base_us_ > 0) {
        // Exponential backoff in virtual time: 1x, 2x, 4x, ... so lossy
        // links charge an honest retransmission delay to the clock. The
        // shift saturates (a raised max_attempts must not overflow) and
        // the series caps at max_backoff_us_.
        int shift = std::min(attempt - 1, 62);
        uint64_t wait = backoff_base_us_ << shift;
        if ((wait >> shift) != backoff_base_us_ || wait > max_backoff_us_)
          wait = max_backoff_us_;
        // Deterministic per-key jitter in [0, wait/2]: devices retrying
        // the same outage desynchronize instead of forming lockstep retry
        // storms, and the same (key, device, attempt) always jitters the
        // same way, keeping runs reproducible.
        wait += Mix64(key.value() ^
                      (static_cast<uint64_t>(attempt) *
                       0x9E3779B97F4A7C15ull) ^
                      self_.value()) %
                (wait / 2 + 1);
        wait = std::min(wait, budget_left());  // never sleep past the budget
        network_.clock().Advance(wait);
        stats_.backoff_us += wait;
      }
      if (budget_left() == 0) {
        ++stats_.deadline_failures;
        return DeadlineExceededError("rpc budget exhausted before retry " +
                                     std::to_string(attempt));
      }
    }
    pushback_wait_us = 0;
    // One child span per wire attempt: a traced retry storm shows each
    // retransmission (and its backoff gap) inside the enclosing rpc span.
    telemetry::ScopedSpan attempt_span(telemetry_, "rpc_attempt", "net");
    const uint64_t attempt_begin_us = network_.clock().now_us();
    // A wire attempt is a health sample: transport success (both envelope
    // transfers landed) scores the store up; loss, unreachability or a
    // budget-clipped wait scores it down. Parsed remote errors (e.g.
    // kNotFound) are the *store working correctly* and never count
    // against it.
    auto fail_attempt = [&](const Status& status) {
      last = status;
      if (health_ != nullptr)
        health_->RecordOutcome(device, /*ok=*/false,
                               network_.clock().now_us() - attempt_begin_us);
    };
    ++stats_.wire_attempts;
    Result<uint64_t> out =
        network_.Transfer(self_, device, request_xml.size(), budget_left());
    if (!out.ok()) {
      fail_attempt(out.status());
    } else {
      stats_.bytes_sent += request_xml.size();
      uint64_t queue_wait_us = 0;
      const std::string response_xml = service->Handle(
          request_xml, network_.clock().now_us(), &queue_wait_us);
      Result<uint64_t> back = network_.Transfer(
          device, self_, response_xml.size(), budget_left());
      if (!back.ok()) {
        fail_attempt(back.status());
      } else {
        stats_.bytes_received += response_xml.size();
        Result<Response> response = ParseResponse(response_xml);
        if (response.ok() && response->pushback) {
          // Shed, not served. Neutral for the circuit breaker — an
          // overloaded store is not a broken one, and tripping breakers
          // on shed traffic would amplify the very storm the shedding is
          // damping.
          ++stats_.pushbacks;
          ++stats_.pushbacks_by_class[static_cast<int>(priority)];
          if (response->depth > stats_.max_store_queue_depth)
            stats_.max_store_queue_depth = response->depth;
          if (health_ != nullptr) health_->RecordPushback(device);
          last = std::move(response->status);
          pushback_wait_us =
              response->retry_after_us > 0 ? response->retry_after_us : 1;
          continue;
        }
        // Queue delay is real slowness: fold it into the health latency
        // sample so hedging and EWMA react to store load, not just wire
        // time. Zero while queues are off — byte-parity holds.
        stats_.queue_wait_us += queue_wait_us;
        if (health_ != nullptr)
          health_->RecordOutcome(device, /*ok=*/true,
                                 network_.clock().now_us() -
                                     attempt_begin_us + queue_wait_us);
        if (budget_options_.enabled) EarnRetryToken(device);
        return response;
      }
    }
    if (last.code() == StatusCode::kDeadlineExceeded) {
      ++stats_.deadline_failures;
      return last;
    }
    if (last.code() != StatusCode::kUnavailable) return last;
    // If this attempt just tripped the breaker, further retries within
    // this call would only burn backoff time — fail fast instead.
    if (health_ != nullptr && health_->IsOpen(device)) break;
  }
  return last;
}

bool StoreClient::SpendRetryToken(DeviceId device) {
  auto [it, inserted] =
      budget_tokens_.try_emplace(device, budget_options_.initial_centitokens);
  if (it->second < budget_options_.cost_per_retry) return false;
  it->second -= budget_options_.cost_per_retry;
  stats_.retry_budget_spent += budget_options_.cost_per_retry;
  return true;
}

void StoreClient::EarnRetryToken(DeviceId device) {
  auto [it, inserted] =
      budget_tokens_.try_emplace(device, budget_options_.initial_centitokens);
  uint32_t headroom = budget_options_.max_centitokens > it->second
                          ? budget_options_.max_centitokens - it->second
                          : 0;
  uint32_t earned = std::min(budget_options_.earn_per_success, headroom);
  it->second += earned;
  stats_.retry_budget_earned += earned;
}

Status StoreClient::Store(DeviceId device, SwapKey key,
                          const std::string& text, uint64_t deadline_us,
                          Priority priority) {
  OBISWAP_ASSIGN_OR_RETURN(
      Response response,
      Call(device, key, "store", StoreRequest(key, text, Stamp(priority)),
           deadline_us, priority));
  return response.status;
}

Result<std::string> StoreClient::Fetch(DeviceId device, SwapKey key,
                                       uint64_t deadline_us,
                                       Priority priority) {
  OBISWAP_ASSIGN_OR_RETURN(
      Response response,
      Call(device, key, "fetch", FetchRequest(key, Stamp(priority)),
           deadline_us, priority));
  OBISWAP_RETURN_IF_ERROR(response.status);
  if (!response.has_payload) return DataLossError("response missing payload");
  return std::move(response.payload);
}

Status StoreClient::Drop(DeviceId device, SwapKey key, uint64_t deadline_us,
                         Priority priority) {
  OBISWAP_ASSIGN_OR_RETURN(
      Response response,
      Call(device, key, "drop", DropRequest(key, Stamp(priority)),
           deadline_us, priority));
  return response.status;
}

}  // namespace obiswap::net
