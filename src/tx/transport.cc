#include "tx/transport.h"

#include "net/bridge.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace obiswap::tx {

using net::ErrorResponse;
using runtime::Value;
using runtime::ValueKind;

std::string EncodeCommitRequest(const WriteSet& write_set) {
  auto request = xml::Node::Element("request");
  request->SetAttr("op", "commit");
  request->SetIntAttr("tx", static_cast<int64_t>(write_set.tx_id));
  for (const auto& [oid, version] : write_set.validations) {
    xml::Node* val_el = request->AddElement("val");
    val_el->SetIntAttr("oid", static_cast<int64_t>(oid.value()));
    val_el->SetIntAttr("v", static_cast<int64_t>(version));
  }
  for (const FieldUpdate& update : write_set.updates) {
    xml::Node* set_el = request->AddElement("set");
    set_el->SetIntAttr("oid", static_cast<int64_t>(update.oid.value()));
    set_el->SetAttr("f", update.field);
    set_el->SetAttr("t", ValueKindName(update.new_value.kind()));
    // Nil has no text; a ref was rejected earlier by TxManager::Write.
    if (!update.new_value.is_nil() && !update.new_value.is_ref())
      set_el->AddText(ScalarText(update.new_value));
  }
  return xml::Write(*request);
}

std::string TxService::Handle(const std::string& request_xml) {
  auto parsed = xml::Parse(request_xml);
  if (!parsed.ok())
    return ErrorResponse(StatusCode::kInvalidArgument,
                         parsed.status().message());
  const xml::Node& request = **parsed;
  const std::string* op = request.FindAttr("op");
  if (request.name() != "request" || op == nullptr || *op != "commit")
    return ErrorResponse(StatusCode::kInvalidArgument, "bad commit request");

  WriteSet write_set;
  Result<int64_t> tx_id = request.GetIntAttrOr("tx", 0);
  if (!tx_id.ok())
    return ErrorResponse(StatusCode::kInvalidArgument, "bad tx");
  write_set.tx_id = static_cast<uint64_t>(*tx_id);
  for (const xml::Node* val_el : request.FindChildren("val")) {
    auto oid = val_el->GetIntAttr("oid");
    auto version = val_el->GetIntAttr("v");
    if (!oid.ok() || !version.ok())
      return ErrorResponse(StatusCode::kInvalidArgument, "bad <val>");
    write_set.validations.emplace_back(
        ObjectId(static_cast<uint64_t>(*oid)),
        static_cast<uint64_t>(*version));
  }
  for (const xml::Node* set_el : request.FindChildren("set")) {
    auto oid = set_el->GetIntAttr("oid");
    auto field = set_el->GetAttr("f");
    if (!oid.ok() || !field.ok())
      return ErrorResponse(StatusCode::kInvalidArgument, "bad <set>");
    auto kind_name = set_el->GetAttr("t");
    if (!kind_name.ok())
      return ErrorResponse(kind_name.status().code(),
                           kind_name.status().message());
    std::optional<ValueKind> kind = runtime::ParseValueKind(*kind_name);
    if (!kind.has_value() || *kind == ValueKind::kRef)
      return ErrorResponse(StatusCode::kDataLoss,
                           "bad value kind '" + *kind_name +
                               "' in commit envelope");
    Result<Value> value = ParseScalar(*kind, set_el->InnerText());
    if (!value.ok())
      return ErrorResponse(value.status().code(), value.status().message());
    write_set.updates.push_back(FieldUpdate{
        ObjectId(static_cast<uint64_t>(*oid)), *field, *std::move(value)});
  }

  Result<CommitResult> outcome = master_.Commit(write_set);
  if (!outcome.ok())
    return ErrorResponse(outcome.status().code(), outcome.status().message());
  auto response = xml::Node::Element("response");
  response->SetAttr("status", "OK");
  response->SetIntAttr("committed", outcome->committed ? 1 : 0);
  for (ObjectId oid : outcome->conflicts) {
    response->AddElement("conflict")->SetIntAttr(
        "oid", static_cast<int64_t>(oid.value()));
  }
  return xml::Write(*response);
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
      OBISWAP_ASSIGN_OR_RETURN(auto doc, net::ParseOkEnvelope(response_xml));
      CommitResult result;
      OBISWAP_ASSIGN_OR_RETURN(int64_t committed,
                               doc->GetIntAttr("committed"));
      result.committed = committed != 0;
      for (const xml::Node* conflict_el : doc->FindChildren("conflict")) {
        OBISWAP_ASSIGN_OR_RETURN(int64_t oid, conflict_el->GetIntAttr("oid"));
        result.conflicts.push_back(ObjectId(static_cast<uint64_t>(oid)));
      }
      return result;
    }
    return last;
  };
}

}  // namespace obiswap::tx
