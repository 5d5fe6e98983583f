#include "replication/transport.h"

#include "net/bridge.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace obiswap::replication {

using net::ErrorResponse;
using net::ParseOkEnvelope;

namespace {
/// A device id is 32 bits wide: a `device` attribute outside that range is
/// malformed, not another device's id after truncation.
bool IsDeviceValue(int64_t value) {
  return value >= 0 && value <= static_cast<int64_t>(UINT32_MAX);
}
}  // namespace

std::string ReplicationService::Handle(const std::string& request_xml) {
  auto parsed = xml::Parse(request_xml);
  if (!parsed.ok())
    return ErrorResponse(StatusCode::kInvalidArgument,
                         parsed.status().message());
  const xml::Node& request = **parsed;
  const std::string* op = request.FindAttr("op");
  if (request.name() != "request" || op == nullptr)
    return ErrorResponse(StatusCode::kInvalidArgument, "bad request");

  if (*op == "root") {
    const std::string* name = request.FindAttr("name");
    if (name == nullptr)
      return ErrorResponse(StatusCode::kInvalidArgument, "missing name");
    Result<RootInfo> info = server_.GetRoot(*name);
    if (!info.ok())
      return ErrorResponse(info.status().code(), info.status().message());
    auto response = xml::Node::Element("response");
    response->SetAttr("status", "OK");
    response->SetIntAttr("oid", static_cast<int64_t>(info->oid.value()));
    response->SetAttr("class", info->class_name);
    return xml::Write(*response);
  }
  if (*op == "cluster") {
    auto device_attr = request.GetIntAttr("device");
    auto oid_attr = request.GetIntAttr("oid");
    if (!device_attr.ok() || !oid_attr.ok())
      return ErrorResponse(StatusCode::kInvalidArgument,
                           "missing device/oid");
    if (!IsDeviceValue(*device_attr))
      return ErrorResponse(StatusCode::kInvalidArgument, "bad device");
    Result<ClusterReply> reply = server_.FetchCluster(
        DeviceId(static_cast<uint32_t>(*device_attr)),
        ObjectId(static_cast<uint64_t>(*oid_attr)));
    if (!reply.ok())
      return ErrorResponse(reply.status().code(), reply.status().message());
    auto response = xml::Node::Element("response");
    response->SetAttr("status", "OK");
    response->SetIntAttr("cluster",
                         static_cast<int64_t>(reply->cluster.value()));
    response->SetIntAttr("count", static_cast<int64_t>(reply->object_count));
    for (const auto& [oid, version] : reply->versions) {
      xml::Node* version_el = response->AddElement("version");
      version_el->SetIntAttr("oid", static_cast<int64_t>(oid.value()));
      version_el->SetIntAttr("v", static_cast<int64_t>(version));
    }
    response->AddElement("payload")->AddText(reply->xml);
    return xml::Write(*response);
  }
  if (*op == "snapshot") {
    auto device_attr = request.GetIntAttr("device");
    auto oid_attr = request.GetIntAttr("oid");
    if (!device_attr.ok() || !oid_attr.ok())
      return ErrorResponse(StatusCode::kInvalidArgument,
                           "missing device/oid");
    if (!IsDeviceValue(*device_attr))
      return ErrorResponse(StatusCode::kInvalidArgument, "bad device");
    Result<ReplicationServer::ValueSnapshot> snapshot =
        server_.SnapshotValues(DeviceId(static_cast<uint32_t>(*device_attr)),
                               ObjectId(static_cast<uint64_t>(*oid_attr)));
    if (!snapshot.ok())
      return ErrorResponse(snapshot.status().code(),
                           snapshot.status().message());
    auto response = xml::Node::Element("response");
    response->SetAttr("status", "OK");
    response->SetIntAttr("oid", static_cast<int64_t>(snapshot->oid.value()));
    response->SetIntAttr("v", static_cast<int64_t>(snapshot->version));
    for (const auto& [field, value] : snapshot->fields) {
      xml::Node* field_el = response->AddElement("f");
      field_el->SetAttr("n", field);
      field_el->SetAttr("t", runtime::ValueKindName(value.kind()));
      if (!value.is_nil() && !value.is_ref())
        field_el->AddText(runtime::ScalarText(value));
    }
    return xml::Write(*response);
  }
  return ErrorResponse(StatusCode::kInvalidArgument, "unknown op");
}

Result<std::string> NetworkLink::Call(const std::string& request_xml) {
  ++stats_.calls;
  Status last = UnavailableError("no attempt made");
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    Result<uint64_t> out =
        network_.Transfer(self_, server_device_, request_xml.size());
    if (!out.ok()) {
      last = out.status();
      if (last.code() != StatusCode::kUnavailable) return last;
      continue;
    }
    stats_.bytes_sent += request_xml.size();
    std::string response = service_.Handle(request_xml);
    Result<uint64_t> back =
        network_.Transfer(server_device_, self_, response.size());
    if (!back.ok()) {
      last = back.status();
      if (last.code() != StatusCode::kUnavailable) return last;
      continue;
    }
    stats_.bytes_received += response.size();
    return response;
  }
  return last;
}

Result<RootInfo> NetworkLink::GetRoot(const std::string& name) {
  auto request = xml::Node::Element("request");
  request->SetAttr("op", "root");
  request->SetAttr("name", name);
  OBISWAP_ASSIGN_OR_RETURN(std::string response, Call(xml::Write(*request)));
  OBISWAP_ASSIGN_OR_RETURN(auto doc, ParseOkEnvelope(response));
  OBISWAP_ASSIGN_OR_RETURN(int64_t oid, doc->GetIntAttr("oid"));
  OBISWAP_ASSIGN_OR_RETURN(std::string class_name, doc->GetAttr("class"));
  return RootInfo{ObjectId(static_cast<uint64_t>(oid)), class_name};
}

Result<ReplicationServer::ValueSnapshot> NetworkLink::SnapshotValues(
    DeviceId device, ObjectId oid) {
  auto request = xml::Node::Element("request");
  request->SetAttr("op", "snapshot");
  request->SetIntAttr("device", device.value());
  request->SetIntAttr("oid", static_cast<int64_t>(oid.value()));
  OBISWAP_ASSIGN_OR_RETURN(std::string response, Call(xml::Write(*request)));
  OBISWAP_ASSIGN_OR_RETURN(auto doc, ParseOkEnvelope(response));
  ReplicationServer::ValueSnapshot snapshot;
  OBISWAP_ASSIGN_OR_RETURN(int64_t oid_attr, doc->GetIntAttr("oid"));
  snapshot.oid = ObjectId(static_cast<uint64_t>(oid_attr));
  OBISWAP_ASSIGN_OR_RETURN(int64_t version, doc->GetIntAttr("v"));
  snapshot.version = static_cast<uint64_t>(version);
  for (const xml::Node* field_el : doc->FindChildren("f")) {
    OBISWAP_ASSIGN_OR_RETURN(std::string name, field_el->GetAttr("n"));
    OBISWAP_ASSIGN_OR_RETURN(std::string kind_name, field_el->GetAttr("t"));
    std::optional<runtime::ValueKind> kind =
        runtime::ParseValueKind(kind_name);
    if (!kind.has_value() || *kind == runtime::ValueKind::kRef)
      return DataLossError("bad snapshot field kind '" + kind_name + "'");
    OBISWAP_ASSIGN_OR_RETURN(
        runtime::Value value,
        runtime::ParseScalar(*kind, field_el->InnerText()));
    snapshot.fields.emplace_back(std::move(name), std::move(value));
  }
  return snapshot;
}

Result<ClusterReply> NetworkLink::FetchCluster(DeviceId device,
                                               ObjectId oid) {
  auto request = xml::Node::Element("request");
  request->SetAttr("op", "cluster");
  request->SetIntAttr("device", device.value());
  request->SetIntAttr("oid", static_cast<int64_t>(oid.value()));
  OBISWAP_ASSIGN_OR_RETURN(std::string response, Call(xml::Write(*request)));
  OBISWAP_ASSIGN_OR_RETURN(auto doc, ParseOkEnvelope(response));
  OBISWAP_ASSIGN_OR_RETURN(int64_t cluster, doc->GetIntAttr("cluster"));
  OBISWAP_ASSIGN_OR_RETURN(int64_t count, doc->GetIntAttr("count"));
  OBISWAP_ASSIGN_OR_RETURN(const xml::Node* payload, doc->GetChild("payload"));
  ClusterReply reply{ClusterId(static_cast<uint32_t>(cluster)),
                     payload->InnerText(), static_cast<size_t>(count), {}};
  for (const xml::Node* version_el : doc->FindChildren("version")) {
    OBISWAP_ASSIGN_OR_RETURN(int64_t oid, version_el->GetIntAttr("oid"));
    OBISWAP_ASSIGN_OR_RETURN(int64_t version, version_el->GetIntAttr("v"));
    reply.versions.emplace_back(ObjectId(static_cast<uint64_t>(oid)),
                                static_cast<uint64_t>(version));
  }
  return reply;
}

}  // namespace obiswap::replication
