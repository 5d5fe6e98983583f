#include "net/store_node.h"

namespace obiswap::net {

namespace {
/// Deterministic single-bit flip: middle byte, lowest bit.
void FlipOneBit(std::string& text) {
  if (text.empty()) return;
  text[text.size() / 2] ^= 0x01;
}
}  // namespace

Status StoreNode::CheckAlive() {
  if (!crashed_ && faults_.crash_after_ops >= 0) {
    if (faults_.crash_after_ops == 0) {
      crashed_ = true;
      if (faults_.crash_loses_data) {
        entries_.clear();
        used_bytes_ = 0;
      }
    } else {
      --faults_.crash_after_ops;
    }
  }
  if (crashed_) {
    ++stats_.faulted_ops;
    return UnavailableError("store device " + device_.ToString() +
                            " crashed");
  }
  return OkStatus();
}

Status StoreNode::Store(SwapKey key, std::string text) {
  OBISWAP_RETURN_IF_ERROR(CheckAlive());
  if (entries_.count(key) > 0) {
    return AlreadyExistsError("key " + key.ToString() + " already stored");
  }
  if (used_bytes_ + text.size() > capacity_bytes_) {
    ++stats_.rejected_full;
    return ResourceExhaustedError("store full on device " +
                                  device_.ToString());
  }
  used_bytes_ += text.size();
  entries_.emplace(key, std::move(text));
  ++stats_.stores;
  return OkStatus();
}

Result<std::string> StoreNode::Fetch(SwapKey key) {
  std::string scratch;
  OBISWAP_ASSIGN_OR_RETURN(std::string_view text, FetchView(key, &scratch));
  return std::string(text);
}

Result<std::string_view> StoreNode::FetchView(SwapKey key,
                                              std::string* scratch) {
  OBISWAP_RETURN_IF_ERROR(CheckAlive());
  auto it = entries_.find(key);
  if (it == entries_.end())
    return NotFoundError("key " + key.ToString() + " not stored");
  ++stats_.fetches;
  if (!faults_.corrupt_fetches) return std::string_view(it->second);
  *scratch = it->second;
  FlipOneBit(*scratch);
  ++stats_.corrupted_fetches;
  return std::string_view(*scratch);
}

Status StoreNode::Drop(SwapKey key) {
  OBISWAP_RETURN_IF_ERROR(CheckAlive());
  auto it = entries_.find(key);
  if (it == entries_.end())
    return NotFoundError("key " + key.ToString() + " not stored");
  used_bytes_ -= it->second.size();
  entries_.erase(it);
  ++stats_.drops;
  return OkStatus();
}

const std::string* StoreNode::Peek(SwapKey key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

Status StoreNode::CorruptStoredPayload(SwapKey key) {
  auto it = entries_.find(key);
  if (it == entries_.end())
    return NotFoundError("key " + key.ToString() + " not stored");
  FlipOneBit(it->second);
  return OkStatus();
}

void StoreNode::Restart() {
  crashed_ = false;
  faults_.crash_after_ops = -1;
}

std::vector<SwapKey> StoreNode::Keys() const {
  std::vector<SwapKey> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, text] : entries_) keys.push_back(key);
  return keys;
}

StoreNode::AdmitResult StoreNode::Admit(uint64_t now_us, Priority priority) {
  AdmitResult result;
  if (!queue_.enabled) {
    result.admitted = true;
    return result;
  }
  const uint64_t service = queue_.service_time_us > 0 ? queue_.service_time_us
                                                      : 1;
  const uint64_t servers = queue_.concurrency > 0 ? queue_.concurrency : 1;
  // Drain the backlog for the virtual time that passed since the last
  // arrival: `servers` server-microseconds retire per clock microsecond.
  if (now_us > backlog_as_of_us_) {
    uint64_t drained = (now_us - backlog_as_of_us_) * servers;
    backlog_us_ = backlog_us_ > drained ? backlog_us_ - drained : 0;
  }
  backlog_as_of_us_ = now_us;

  const size_t depth =
      static_cast<size_t>((backlog_us_ + service - 1) / service);
  result.depth = depth;
  if (depth > stats_.max_queue_depth) stats_.max_queue_depth = depth;

  // Per-class admission bound: with shedding on, class p keeps only
  // (4-p)/4 of the waiting slots past the service slots, so the lowest
  // class is refused first as the backlog builds.
  const int pri = static_cast<int>(priority);
  size_t limit = servers + queue_.queue_limit;
  if (queue_.priority_shedding) {
    limit = servers + (queue_.queue_limit *
                       static_cast<size_t>(kPriorityClasses - 1 - pri)) /
                          static_cast<size_t>(kPriorityClasses - 1);
  }
  if (limit == 0) limit = 1;

  if (depth >= limit) {
    ++stats_.shed_total;
    ++stats_.shed_by_class[pri];
    // Time until the backlog has drained below this class's bound — the
    // deterministic moment a retry would be admitted.
    uint64_t admissible_backlog = (limit - 1) * service;
    uint64_t excess = backlog_us_ > admissible_backlog
                          ? backlog_us_ - admissible_backlog
                          : 0;
    result.retry_after_us = (excess + servers - 1) / servers;
    if (result.retry_after_us == 0) result.retry_after_us = 1;
    return result;
  }

  // Admitted: the response is due after the backlog ahead of us drains
  // plus our own service time; charge that wait to the caller.
  result.admitted = true;
  result.queue_wait_us = backlog_us_ / servers + service;
  backlog_us_ += service;
  ++stats_.admitted;
  stats_.queue_wait_us += result.queue_wait_us;
  return result;
}

}  // namespace obiswap::net
