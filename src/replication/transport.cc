#include "replication/transport.h"

#include "net/bridge.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace obiswap::replication {

using net::ErrorResponse;
using net::ParseOkEnvelope;

namespace {

constexpr uint32_t kRoot = 0;

/// The `device` and `oid` a cluster or snapshot request names.
Status ReadTarget(const xml::Tape& request, DeviceId* device, ObjectId* oid) {
  Result<int64_t> device_attr = request.GetIntAttr(kRoot, "device");
  Result<int64_t> oid_attr = request.GetIntAttr(kRoot, "oid");
  if (!device_attr.ok() || !oid_attr.ok())
    return InvalidArgumentError("missing device/oid");
  std::optional<DeviceId> id = net::AsDeviceId(*device_attr);
  if (!id.has_value()) return InvalidArgumentError("bad device");
  *device = *id;
  *oid = ObjectId(static_cast<uint64_t>(*oid_attr));
  return OkStatus();
}

/// `<request op="op" device="d" oid="o"/>`.
std::string TargetRequest(std::string_view op, DeviceId device,
                          ObjectId oid) {
  std::string request = "<request";
  xml::AppendAttr(&request, "op", op);
  xml::AppendIntAttr(&request, "device", device.value());
  xml::AppendIntAttr(&request, "oid", static_cast<int64_t>(oid.value()));
  request += "/>";
  return request;
}

}  // namespace

std::string ReplicationService::Handle(const std::string& request_xml) {
  xml::Tape request;
  Result<std::string_view> op =
      net::ParseRequest(request_xml, "bad request", &request);
  if (!op.ok()) return ErrorResponse(op.status().code(), op.status().message());

  if (*op == "root") {
    const std::string_view* name = request.FindAttr(kRoot, "name");
    if (name == nullptr)
      return ErrorResponse(StatusCode::kInvalidArgument, "missing name");
    Result<RootInfo> info = server_.GetRoot(std::string(*name));
    if (!info.ok())
      return ErrorResponse(info.status().code(), info.status().message());
    std::string response(net::kOkResponseOpen);
    xml::AppendIntAttr(&response, "oid",
                       static_cast<int64_t>(info->oid.value()));
    xml::AppendAttr(&response, "class", info->class_name);
    response += "/>";
    return response;
  }
  if (*op != "cluster" && *op != "snapshot")
    return ErrorResponse(StatusCode::kInvalidArgument, "unknown op");
  DeviceId device;
  ObjectId oid;
  if (Status target = ReadTarget(request, &device, &oid); !target.ok())
    return ErrorResponse(target.code(), target.message());
  if (*op == "cluster") {
    Result<ClusterReply> reply = server_.FetchCluster(device, oid);
    if (!reply.ok())
      return ErrorResponse(reply.status().code(), reply.status().message());
    std::string response(net::kOkResponseOpen);
    xml::AppendIntAttr(&response, "cluster",
                       static_cast<int64_t>(reply->cluster.value()));
    xml::AppendIntAttr(&response, "count",
                       static_cast<int64_t>(reply->object_count));
    response += '>';
    for (const auto& [member, version] : reply->versions) {
      response += "<version";
      xml::AppendIntAttr(&response, "oid",
                         static_cast<int64_t>(member.value()));
      xml::AppendIntAttr(&response, "v", static_cast<int64_t>(version));
      response += "/>";
    }
    response += "<payload>";
    xml::AppendEscapedText(&response, reply->xml);
    response += "</payload></response>";
    return response;
  }
  Result<ReplicationServer::ValueSnapshot> snapshot =
      server_.SnapshotValues(device, oid);
  if (!snapshot.ok())
    return ErrorResponse(snapshot.status().code(),
                         snapshot.status().message());
  std::string response(net::kOkResponseOpen);
  xml::AppendIntAttr(&response, "oid",
                     static_cast<int64_t>(snapshot->oid.value()));
  xml::AppendIntAttr(&response, "v", static_cast<int64_t>(snapshot->version));
  if (snapshot->fields.empty()) return response + "/>";
  response += '>';
  for (const auto& [field, value] : snapshot->fields) {
    response += "<f";
    xml::AppendAttr(&response, "n", field);
    xml::AppendAttr(&response, "t", runtime::ValueKindName(value.kind()));
    if (value.is_nil() || value.is_ref()) {
      response += "/>";
      continue;
    }
    response += '>';
    xml::AppendEscapedText(&response, runtime::ScalarText(value));
    response += "</f>";
  }
  response += "</response>";
  return response;
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
  std::string request = "<request";
  xml::AppendAttr(&request, "op", "root");
  xml::AppendAttr(&request, "name", name);
  request += "/>";
  OBISWAP_ASSIGN_OR_RETURN(std::string response, Call(request));
  OBISWAP_ASSIGN_OR_RETURN(xml::Tape doc, ParseOkEnvelope(response));
  OBISWAP_ASSIGN_OR_RETURN(int64_t oid, doc.GetIntAttr(kRoot, "oid"));
  OBISWAP_ASSIGN_OR_RETURN(std::string_view class_name,
                           doc.GetAttr(kRoot, "class"));
  return RootInfo{ObjectId(static_cast<uint64_t>(oid)),
                  std::string(class_name)};
}

Result<ReplicationServer::ValueSnapshot> NetworkLink::SnapshotValues(
    DeviceId device, ObjectId oid) {
  OBISWAP_ASSIGN_OR_RETURN(std::string response,
                           Call(TargetRequest("snapshot", device, oid)));
  OBISWAP_ASSIGN_OR_RETURN(xml::Tape doc, ParseOkEnvelope(response));
  ReplicationServer::ValueSnapshot snapshot;
  OBISWAP_ASSIGN_OR_RETURN(int64_t oid_attr, doc.GetIntAttr(kRoot, "oid"));
  snapshot.oid = ObjectId(static_cast<uint64_t>(oid_attr));
  OBISWAP_ASSIGN_OR_RETURN(int64_t version, doc.GetIntAttr(kRoot, "v"));
  snapshot.version = static_cast<uint64_t>(version);
  std::string scratch;
  for (uint32_t field_el = doc.FindChild(kRoot, "f"); field_el != 0;
       field_el = doc.FindSibling(field_el, "f")) {
    OBISWAP_ASSIGN_OR_RETURN(std::string_view name,
                             doc.GetAttr(field_el, "n"));
    OBISWAP_ASSIGN_OR_RETURN(std::string_view kind_name,
                             doc.GetAttr(field_el, "t"));
    std::optional<runtime::ValueKind> kind =
        runtime::ParseValueKind(kind_name);
    if (!kind.has_value() || *kind == runtime::ValueKind::kRef)
      return DataLossError("bad snapshot field kind '" +
                           std::string(kind_name) + "'");
    OBISWAP_ASSIGN_OR_RETURN(
        runtime::Value value,
        runtime::ParseScalar(*kind, doc.InnerText(field_el, &scratch)));
    snapshot.fields.emplace_back(std::string(name), std::move(value));
  }
  return snapshot;
}

Result<ClusterReply> NetworkLink::FetchCluster(DeviceId device,
                                               ObjectId oid) {
  OBISWAP_ASSIGN_OR_RETURN(std::string response,
                           Call(TargetRequest("cluster", device, oid)));
  OBISWAP_ASSIGN_OR_RETURN(xml::Tape doc, ParseOkEnvelope(response));
  OBISWAP_ASSIGN_OR_RETURN(int64_t cluster, doc.GetIntAttr(kRoot, "cluster"));
  OBISWAP_ASSIGN_OR_RETURN(int64_t count, doc.GetIntAttr(kRoot, "count"));
  const uint32_t payload = doc.FindChild(kRoot, "payload");
  if (payload == 0)
    return NotFoundError("missing child <payload> in <response>");
  std::string scratch;
  ClusterReply reply{ClusterId(static_cast<uint32_t>(cluster)),
                     std::string(doc.InnerText(payload, &scratch)),
                     static_cast<size_t>(count), {}};
  for (uint32_t version_el = doc.FindChild(kRoot, "version");
       version_el != 0; version_el = doc.FindSibling(version_el, "version")) {
    OBISWAP_ASSIGN_OR_RETURN(int64_t member, doc.GetIntAttr(version_el, "oid"));
    OBISWAP_ASSIGN_OR_RETURN(int64_t version, doc.GetIntAttr(version_el, "v"));
    reply.versions.emplace_back(ObjectId(static_cast<uint64_t>(member)),
                                static_cast<uint64_t>(version));
  }
  return reply;
}

}  // namespace obiswap::replication
