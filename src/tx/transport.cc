#include "tx/transport.h"

#include "net/bridge.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace obiswap::tx {

using net::ErrorResponse;
using runtime::Value;
using runtime::ValueKind;

namespace {
constexpr uint32_t kRoot = 0;
}  // namespace

std::string EncodeCommitRequest(const WriteSet& write_set) {
  std::string request = "<request";
  xml::AppendAttr(&request, "op", "commit");
  xml::AppendIntAttr(&request, "tx", static_cast<int64_t>(write_set.tx_id));
  if (write_set.validations.empty() && write_set.updates.empty())
    return request + "/>";
  request += '>';
  for (const auto& [oid, version] : write_set.validations) {
    request += "<val";
    xml::AppendIntAttr(&request, "oid", static_cast<int64_t>(oid.value()));
    xml::AppendIntAttr(&request, "v", static_cast<int64_t>(version));
    request += "/>";
  }
  for (const FieldUpdate& update : write_set.updates) {
    request += "<set";
    xml::AppendIntAttr(&request, "oid",
                       static_cast<int64_t>(update.oid.value()));
    xml::AppendAttr(&request, "f", update.field);
    xml::AppendAttr(&request, "t", ValueKindName(update.new_value.kind()));
    // Nil has no text; a ref was rejected earlier by TxManager::Write.
    if (update.new_value.is_nil() || update.new_value.is_ref()) {
      request += "/>";
      continue;
    }
    request += '>';
    xml::AppendEscapedText(&request, ScalarText(update.new_value));
    request += "</set>";
  }
  request += "</request>";
  return request;
}

std::string TxService::Handle(const std::string& request_xml) {
  xml::Tape request;
  Result<std::string_view> op =
      net::ParseRequest(request_xml, "bad commit request", &request);
  if (!op.ok()) return ErrorResponse(op.status().code(), op.status().message());
  if (*op != "commit")
    return ErrorResponse(StatusCode::kInvalidArgument, "bad commit request");

  WriteSet write_set;
  Result<int64_t> tx_id = request.GetIntAttrOr(kRoot, "tx", 0);
  if (!tx_id.ok())
    return ErrorResponse(StatusCode::kInvalidArgument, "bad tx");
  write_set.tx_id = static_cast<uint64_t>(*tx_id);
  for (uint32_t val_el = request.FindChild(kRoot, "val"); val_el != 0;
       val_el = request.FindSibling(val_el, "val")) {
    auto oid = request.GetIntAttr(val_el, "oid");
    auto version = request.GetIntAttr(val_el, "v");
    if (!oid.ok() || !version.ok())
      return ErrorResponse(StatusCode::kInvalidArgument, "bad <val>");
    write_set.validations.emplace_back(
        ObjectId(static_cast<uint64_t>(*oid)),
        static_cast<uint64_t>(*version));
  }
  std::string scratch;
  for (uint32_t set_el = request.FindChild(kRoot, "set"); set_el != 0;
       set_el = request.FindSibling(set_el, "set")) {
    auto oid = request.GetIntAttr(set_el, "oid");
    auto field = request.GetAttr(set_el, "f");
    if (!oid.ok() || !field.ok())
      return ErrorResponse(StatusCode::kInvalidArgument, "bad <set>");
    auto kind_name = request.GetAttr(set_el, "t");
    if (!kind_name.ok())
      return ErrorResponse(kind_name.status().code(),
                           kind_name.status().message());
    std::optional<ValueKind> kind = runtime::ParseValueKind(*kind_name);
    if (!kind.has_value() || *kind == ValueKind::kRef)
      return ErrorResponse(StatusCode::kDataLoss,
                           "bad value kind '" + std::string(*kind_name) +
                               "' in commit envelope");
    Result<Value> value =
        ParseScalar(*kind, request.InnerText(set_el, &scratch));
    if (!value.ok())
      return ErrorResponse(value.status().code(), value.status().message());
    write_set.updates.push_back(FieldUpdate{
        ObjectId(static_cast<uint64_t>(*oid)), std::string(*field),
        *std::move(value)});
  }

  Result<CommitResult> outcome = master_.Commit(write_set);
  if (!outcome.ok())
    return ErrorResponse(outcome.status().code(), outcome.status().message());
  std::string response(net::kOkResponseOpen);
  xml::AppendIntAttr(&response, "committed", outcome->committed ? 1 : 0);
  if (outcome->conflicts.empty()) return response + "/>";
  response += '>';
  for (ObjectId oid : outcome->conflicts) {
    response += "<conflict";
    xml::AppendIntAttr(&response, "oid", static_cast<int64_t>(oid.value()));
    response += "/>";
  }
  response += "</response>";
  return response;
}

CommitFn NetworkCommit(net::Network& network, DeviceId self,
                       DeviceId server_device, TxService& service,
                       int max_attempts) {
  return [&network, self, server_device, &service,
          max_attempts](const WriteSet& write_set) -> Result<CommitResult> {
    std::string request = EncodeCommitRequest(write_set);
    Status last = UnavailableError("no attempt made");
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      Result<uint64_t> out =
          network.Transfer(self, server_device, request.size());
      if (!out.ok()) {
        last = out.status();
        if (last.code() != StatusCode::kUnavailable) return last;
        continue;
      }
      // NOTE: commits are NOT idempotent like store operations; a real
      // system would add a tx-id replay cache server-side. The simulated
      // request channel either delivers or reports loss before dispatch,
      // so retrying the request leg is safe. A response-leg loss after a
      // successful apply is surfaced as kUnavailable with the transaction
      // left open (the tx-id lets the application reconcile).
      std::string response_xml = service.Handle(request);
      Result<uint64_t> back =
          network.Transfer(server_device, self, response_xml.size());
      if (!back.ok()) {
        last = back.status();
        return UnavailableError(
            "commit outcome unknown: response lost (tx " +
            std::to_string(write_set.tx_id) + ")");
      }
      OBISWAP_ASSIGN_OR_RETURN(xml::Tape doc,
                               net::ParseOkEnvelope(response_xml));
      CommitResult result;
      OBISWAP_ASSIGN_OR_RETURN(int64_t committed,
                               doc.GetIntAttr(kRoot, "committed"));
      result.committed = committed != 0;
      for (uint32_t conflict_el = doc.FindChild(kRoot, "conflict");
           conflict_el != 0;
           conflict_el = doc.FindSibling(conflict_el, "conflict")) {
        OBISWAP_ASSIGN_OR_RETURN(int64_t oid,
                                 doc.GetIntAttr(conflict_el, "oid"));
        result.conflicts.push_back(ObjectId(static_cast<uint64_t>(oid)));
      }
      return result;
    }
    return last;
  };
}

}  // namespace obiswap::tx
