#include "swap/intent_journal.h"

#include <algorithm>
#include <unordered_map>

#include "common/checksum.h"
#include "common/logging.h"
#include "common/varint.h"

namespace obiswap::swap {

namespace {
constexpr char kMagic[4] = {'O', 'B', 'J', 'L'};
// Version 2 appends the delta-swap-out base fields (base_epoch,
// base_checksum) to record bodies and admits IntentOp::kDeltaSwapOut.
// Version-1 images (no base fields) still parse: the fields are optional
// at end-of-body.
constexpr uint64_t kFormatVersion = 2;

bool DecodeBody(std::string_view body, JournalRecord* record) {
  auto take = [&body](uint64_t* out) {
    Result<uint64_t> value = GetVarint64(&body);
    if (!value.ok()) return false;
    *out = *value;
    return true;
  };
  uint64_t type = 0;
  uint64_t op = 0;
  uint64_t cluster = 0;
  uint64_t checksum = 0;
  if (!take(&record->epoch) || !take(&record->seq) || !take(&type) ||
      !take(&op) || !take(&cluster) || !take(&record->swap_epoch) ||
      !take(&checksum) || !take(&record->device) || !take(&record->key) ||
      !take(&record->progress)) {
    return false;
  }
  if (type < 1 || type > 5 || op < 1 || op > 6) return false;
  record->type = static_cast<RecordType>(type);
  record->op = static_cast<IntentOp>(op);
  record->cluster = static_cast<uint32_t>(cluster);
  record->payload_checksum = static_cast<uint32_t>(checksum);
  uint64_t member_count = 0;
  if (!take(&member_count) || member_count > body.size()) return false;
  record->member_oids.clear();
  record->member_oids.reserve(member_count);
  for (uint64_t i = 0; i < member_count; ++i) {
    uint64_t oid = 0;
    if (!take(&oid)) return false;
    record->member_oids.push_back(oid);
  }
  uint64_t proxy_count = 0;
  if (!take(&proxy_count) || proxy_count > body.size() + 1) return false;
  record->proxy_oids.clear();
  record->proxy_oids.reserve(proxy_count);
  for (uint64_t i = 0; i < proxy_count; ++i) {
    uint64_t oid = 0;
    if (!take(&oid)) return false;
    record->proxy_oids.push_back(oid);
  }
  record->base_epoch = 0;
  record->base_checksum = 0;
  if (!body.empty()) {  // version-2 trailer; absent in version-1 records
    uint64_t base_checksum = 0;
    if (!take(&record->base_epoch) || !take(&base_checksum)) return false;
    record->base_checksum = static_cast<uint32_t>(base_checksum);
  }
  return body.empty();  // trailing garbage fails the record
}
}  // namespace

const char* IntentOpName(IntentOp op) {
  switch (op) {
    case IntentOp::kSwapOut:
      return "swap_out";
    case IntentOp::kCleanSwapOut:
      return "clean_swap_out";
    case IntentOp::kSwapIn:
      return "swap_in";
    case IntentOp::kDrop:
      return "drop";
    case IntentOp::kReplicaMaintenance:
      return "replica_maintenance";
    case IntentOp::kDeltaSwapOut:
      return "delta_swap_out";
  }
  return "unknown";
}

IntentJournal::IntentJournal(persist::FlashStore* store)
    : IntentJournal(store, Options()) {}

IntentJournal::IntentJournal(persist::FlashStore* store, Options options)
    : store_(store), options_(options) {
  OBISWAP_CHECK(store_ != nullptr);
  if (options_.compact_record_limit == 0) options_.compact_record_limit = 1;
}

void IntentJournal::EncodeRecord(const JournalRecord& record,
                                 std::string* out) {
  std::string body;
  PutVarint64(&body, record.epoch);
  PutVarint64(&body, record.seq);
  PutVarint64(&body, static_cast<uint64_t>(record.type));
  PutVarint64(&body, static_cast<uint64_t>(record.op));
  PutVarint64(&body, record.cluster);
  PutVarint64(&body, record.swap_epoch);
  PutVarint64(&body, record.payload_checksum);
  PutVarint64(&body, record.device);
  PutVarint64(&body, record.key);
  PutVarint64(&body, record.progress);
  PutVarint64(&body, record.member_oids.size());
  for (uint64_t oid : record.member_oids) PutVarint64(&body, oid);
  PutVarint64(&body, record.proxy_oids.size());
  for (uint64_t oid : record.proxy_oids) PutVarint64(&body, oid);
  PutVarint64(&body, record.base_epoch);
  PutVarint64(&body, record.base_checksum);

  PutVarint64(out, body.size());
  out->append(body);
  PutFixed(out, Crc32(body), 4);
}

IntentJournal::ParseResult IntentJournal::Parse(std::string_view bytes) {
  ParseResult result;
  std::string_view in = bytes;
  if (in.size() < sizeof(kMagic) ||
      in.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    result.bad_tail_bytes = in.size();
    return result;
  }
  in.remove_prefix(sizeof(kMagic));
  Result<uint64_t> version = GetVarint64(&in);
  if (!version.ok() || *version < 1 || *version > kFormatVersion) {
    result.bad_tail_bytes = in.size();
    return result;
  }
  Result<uint64_t> epoch = GetVarint64(&in);
  if (!epoch.ok()) {
    result.bad_tail_bytes = in.size();
    return result;
  }
  result.epoch = *epoch;

  while (!in.empty()) {
    std::string_view mark = in;
    Result<uint64_t> body_len = GetVarint64(&in);
    if (!body_len.ok() || *body_len + 4 > in.size()) {
      // Torn tail: a record length that cannot fit means everything from
      // here on is untrustworthy.
      result.bad_tail_bytes = mark.size();
      break;
    }
    std::string_view body = in.substr(0, *body_len);
    in.remove_prefix(*body_len);
    // The length was pre-checked above, so the CRC word is there.
    if (Crc32(body) != GetFixed(&in, 4).value_or(0)) {
      // A flipped bit inside one record: skip it, keep reading — the
      // framing (length prefix) is still trusted because the next record
      // either parses and checksums or terminates the scan.
      ++result.skipped;
      continue;
    }
    JournalRecord record;
    if (!DecodeBody(body, &record)) {
      ++result.skipped;
      continue;
    }
    if (record.epoch != result.epoch) {
      ++result.skipped;  // fenced: stale record from an older incarnation
      continue;
    }
    result.records.push_back(std::move(record));
  }
  return result;
}

std::string IntentJournal::EncodeImage() const {
  std::string image(kMagic, sizeof(kMagic));
  PutVarint64(&image, kFormatVersion);
  PutVarint64(&image, epoch_);
  for (const JournalRecord& record : records_)
    EncodeRecord(record, &image);
  return image;
}

void IntentJournal::Append(JournalRecord record) {
  record.epoch = epoch_;
  records_.push_back(std::move(record));
  dirty_ = true;
  ++stats_.appends;
}

uint64_t IntentJournal::BeginOp(IntentOp op, SwapClusterId cluster,
                                uint64_t swap_epoch,
                                uint32_t payload_checksum,
                                std::vector<uint64_t> member_oids,
                                std::vector<uint64_t> proxy_oids,
                                uint64_t base_epoch, uint32_t base_checksum) {
  JournalRecord record;
  record.seq = next_seq_++;
  record.type = RecordType::kBegin;
  record.op = op;
  record.cluster = cluster.value();
  record.swap_epoch = swap_epoch;
  record.payload_checksum = payload_checksum;
  record.member_oids = std::move(member_oids);
  record.proxy_oids = std::move(proxy_oids);
  record.base_epoch = base_epoch;
  record.base_checksum = base_checksum;
  const uint64_t seq = record.seq;
  Append(std::move(record));
  return seq;
}

void IntentJournal::NoteReplicaIntent(uint64_t seq, DeviceId device,
                                      SwapKey key) {
  JournalRecord record;
  record.seq = seq;
  record.type = RecordType::kReplicaIntent;
  record.device = device.value();
  record.key = key.value();
  Append(std::move(record));
}

void IntentJournal::NoteProgress(uint64_t seq, uint64_t marker) {
  JournalRecord record;
  record.seq = seq;
  record.type = RecordType::kProgress;
  record.progress = marker;
  Append(std::move(record));
}

Status IntentJournal::Commit(uint64_t seq) {
  JournalRecord record;
  record.seq = seq;
  record.type = RecordType::kCommit;
  Append(std::move(record));
  CompactIfOversized();
  return Persist();
}

Status IntentJournal::Abort(uint64_t seq) {
  JournalRecord record;
  record.seq = seq;
  record.type = RecordType::kAbort;
  Append(std::move(record));
  CompactIfOversized();
  return Persist();
}

void IntentJournal::CompactIfOversized() {
  if (records_.size() <= options_.compact_record_limit) return;
  std::unordered_map<uint64_t, bool> completed;
  for (const JournalRecord& record : records_) {
    if (record.type == RecordType::kCommit ||
        record.type == RecordType::kAbort) {
      completed[record.seq] = true;
    }
  }
  if (completed.empty()) return;  // all in-flight: nothing compactable
  size_t write = 0;
  for (size_t read = 0; read < records_.size(); ++read) {
    if (completed.count(records_[read].seq) > 0) continue;
    if (write != read) records_[write] = std::move(records_[read]);
    ++write;
  }
  records_.resize(write);
  dirty_ = true;
  ++stats_.compactions;
}

Status IntentJournal::Persist() {
  if (!dirty_) return OkStatus();
  const std::string image = EncodeImage();
  const uint64_t busy_before = store_->stats().busy_us;
  Status stored = store_->Store(kKey, image);
  if (!stored.ok()) {
    // The journal is best-effort durability: a full flash costs crash
    // recoverability, not correctness of the live run. Stay dirty so the
    // next boundary retries.
    ++stats_.persist_failures;
    OBISWAP_LOG(kWarn) << "intent journal persist failed: "
                       << stored.ToString();
    return stored;
  }
  dirty_ = false;
  ++stats_.persists;
  stats_.persisted_bytes += image.size();
  stats_.append_us += store_->stats().busy_us - busy_before;
  return OkStatus();
}

Result<std::vector<IntentJournal::PendingOp>>
IntentJournal::LoadForRecovery() {
  records_.clear();
  dirty_ = false;

  uint64_t stored_epoch = 0;
  std::vector<JournalRecord> loaded;
  Result<std::string> image = store_->Fetch(kKey);
  if (image.ok()) {
    ParseResult parsed = Parse(*image);
    stored_epoch = parsed.epoch;
    loaded = std::move(parsed.records);
    stats_.records_skipped += parsed.skipped;
    stats_.bad_tail_bytes += parsed.bad_tail_bytes;
  } else if (image.status().code() != StatusCode::kNotFound) {
    // Unreadable image: recover with what we have (nothing) rather than
    // wedging the restart path.
    OBISWAP_LOG(kWarn) << "intent journal unreadable: "
                       << image.status().ToString();
  }
  // Fence: everything this incarnation writes outranks the stored epoch.
  epoch_ = std::max(epoch_, stored_epoch) + 1;

  std::unordered_map<uint64_t, PendingOp> open;
  std::vector<uint64_t> order;
  uint64_t max_seq = 0;
  for (JournalRecord& record : loaded) {
    max_seq = std::max(max_seq, record.seq);
    switch (record.type) {
      case RecordType::kBegin: {
        PendingOp pending;
        pending.seq = record.seq;
        pending.op = record.op;
        pending.cluster = SwapClusterId(record.cluster);
        pending.swap_epoch = record.swap_epoch;
        pending.payload_checksum = record.payload_checksum;
        pending.base_epoch = record.base_epoch;
        pending.base_checksum = record.base_checksum;
        for (uint64_t oid : record.member_oids)
          pending.member_oids.push_back(ObjectId(oid));
        for (uint64_t oid : record.proxy_oids)
          pending.proxy_oids.push_back(ObjectId(oid));
        if (open.emplace(record.seq, std::move(pending)).second)
          order.push_back(record.seq);
        break;
      }
      case RecordType::kReplicaIntent: {
        auto it = open.find(record.seq);
        if (it == open.end()) {
          // Orphan intent (its begin record was damaged): the device/key
          // pair must still be reclaimable — fold it as a maintenance op,
          // whose recovery drops placements no cluster accounts for.
          PendingOp pending;
          pending.seq = record.seq;
          pending.op = IntentOp::kReplicaMaintenance;
          it = open.emplace(record.seq, std::move(pending)).first;
          order.push_back(record.seq);
        }
        it->second.replica_intents.push_back(ReplicaLocation{
            DeviceId(static_cast<uint32_t>(record.device)),
            SwapKey(record.key)});
        break;
      }
      case RecordType::kProgress: {
        auto it = open.find(record.seq);
        if (it != open.end()) it->second.progress = record.progress;
        break;
      }
      case RecordType::kCommit:
      case RecordType::kAbort: {
        auto it = open.find(record.seq);
        if (it != open.end()) open.erase(it);
        break;
      }
    }
  }
  next_seq_ = std::max(next_seq_, max_seq + 1);

  std::vector<PendingOp> pending;
  pending.reserve(open.size());
  for (uint64_t seq : order) {
    auto it = open.find(seq);
    if (it != open.end()) pending.push_back(std::move(it->second));
  }
  std::sort(pending.begin(), pending.end(),
            [](const PendingOp& a, const PendingOp& b) {
              return a.seq < b.seq;
            });
  return pending;
}

Status IntentJournal::Clear() {
  records_.clear();
  dirty_ = false;
  Status dropped = store_->Drop(kKey);
  if (dropped.code() == StatusCode::kNotFound) return OkStatus();
  return dropped;
}

}  // namespace obiswap::swap
