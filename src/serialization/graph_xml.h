// Object-graph ⇄ XML serialization.
//
// This is the format that leaves the device: swapped-out swap-clusters are
// "serialized to XML and sent to a nearby device" (§3), and replication
// ships clusters from the master as XML through the web-service bridge
// (§2, Communication Services). One format serves both:
//
//   <swap-cluster id="2" count="3" checksum="...">
//     <object oid="..." class="Node" cluster="7">
//       <f n="next" t="ref" local="1"/>                  intra-cluster ref
//       <f n="prev" t="ref" out="0" oid="..."
//          class="Node" cluster="6"/>                    external ref
//       <f n="value" t="int">42</f>
//       <f n="name" t="str">bytes...</f>
//       <f n="w" t="real">1.5</f>
//       <f n="gone" t="nil"/>
//     </object>
//     ...
//   </swap-cluster>
//
// External references never name raw cross-swap-cluster objects — the
// paper's invariant says those are always mediated — so the serializer asks
// the caller to *describe* each external target (the swap layer describes
// its outbound swap-cluster-proxies; replication describes remote objects),
// and the deserializer asks the caller to *resolve* each description.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "runtime/runtime.h"

namespace obiswap::serialization {

/// Description of a reference leaving the serialized object set.
struct ExternalRef {
  size_t index = 0;         ///< position in the outbound list
  ObjectId oid;             ///< identity of the *ultimate* target
  std::string class_name;   ///< class of the ultimate target
  ClusterId cluster;        ///< replication cluster of the target (if known)
};

struct SerializedCluster {
  /// The serialized payload bytes — XML text from SerializeCluster, or the
  /// binary "OSWB" document from SerializeClusterBinary (graph_binary.h).
  std::string payload;
  std::vector<runtime::Object*> outbound; ///< external objects, by out index
  size_t object_count = 0;
};

/// Serializer callback: maps a non-member referenced object to an
/// ExternalRef (index/oid/class/cluster). Returning an error aborts
/// serialization — the swap layer uses this to enforce the "no raw
/// cross-swap-cluster references" invariant.
using DescribeExternalFn =
    std::function<Result<ExternalRef>(runtime::Object*)>;

/// Deserializer callback: produces the object to store for an external ref.
using ResolveExternalFn =
    std::function<Result<runtime::Object*>(const ExternalRef&)>;

/// The reference walk both cluster serializers share: member indices, and
/// one outbound slot per distinct external target in first-reference order
/// (appended to `outbound`). Every external occurrence is described, so a
/// reference that breaks the mediation invariant fails wherever it sits.
class ClusterRefs {
 public:
  static constexpr size_t kNotMember = static_cast<size_t>(-1);
  ClusterRefs(const DescribeExternalFn& describe,
              std::vector<runtime::Object*>* outbound)
      : describe_(describe), outbound_(outbound) {}

  /// Indexes `members`; fails when one is listed twice.
  Status Index(const std::vector<runtime::Object*>& members);
  /// `target`'s member index, or kNotMember.
  size_t MemberIndex(const runtime::Object* target) const;
  /// Describes the non-member `target`, `index` set to its outbound slot.
  Result<ExternalRef> External(runtime::Object* target);

 private:
  const DescribeExternalFn& describe_;
  std::vector<runtime::Object*>* outbound_;
  /// (member, index), sorted by address.
  std::vector<std::pair<const runtime::Object*, size_t>> members_;
  std::unordered_map<const runtime::Object*, size_t> outbound_index_;
};

/// Serializes `members` as one cluster document with the given id attribute.
/// Each distinct external target appears once in `outbound`.
Result<SerializedCluster> SerializeCluster(
    runtime::Runtime& rt, uint32_t cluster_attr_id,
    const std::vector<runtime::Object*>& members,
    const DescribeExternalFn& describe_external);

struct DeserializeOptions {
  /// If >= 0, the document's id attribute must equal this.
  int64_t expected_id = -1;
  /// Swap-cluster to label re-created objects with (invalid = keep none).
  SwapClusterId assign_swap_cluster;
  /// Verify the embedded checksum (on by default; off for tests that
  /// hand-author documents).
  bool verify_checksum = true;
};

/// Re-creates the objects of a cluster document inside `rt`. Objects keep
/// their serialized ObjectIds and replication-cluster labels. All slot
/// writes are middleware-level (no store mediation): external refs are
/// stored exactly as resolved.
Result<std::vector<runtime::Object*>> DeserializeCluster(
    runtime::Runtime& rt, const std::string& xml_text,
    const DeserializeOptions& options,
    const ResolveExternalFn& resolve_external);

}  // namespace obiswap::serialization
