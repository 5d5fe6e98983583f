// Object-graph ⇄ binary serialization, and binary cluster deltas.
//
// The XML format (graph_xml.h) is what the paper describes, but on a
// ~700 Kbps link its tag overhead dominates small objects. This module is
// the compact alternative behind SwappingManager's wire-format flag:
//
//   "OSWB" full document — varint/field-tag encoding of exactly the same
//   semantic content as the XML document (same member order, same external
//   describe/resolve protocol, same embedded semantic digest idea), at a
//   fraction of the bytes. Field *names* never hit the wire: values are
//   encoded in class field order and the class schema supplies the names,
//   which also makes the missing/duplicate-field damage the XML parser must
//   check for structurally impossible here. Schema skew is caught by the
//   class name plus a strict field-count check at decode; the digest covers
//   every value (reals by bit pattern) and is recomputed by the one
//   validating scan that reads a document, which is what lets delta apply
//   verify a merged document without a runtime.
//
//   "OSWD" delta document — the difference between two OSWB documents for
//   the same cluster: the full new member identity list (a carried member
//   costs ~2 bytes, an added one its class name), the full new outbound
//   identity table, and one patch per field whose value cannot be predicted
//   from the base. Apply(base, Diff(base, fresh)) reproduces `fresh`
//   byte-for-byte (the encoder is canonical), verified end-to-end by the
//   base and target digests embedded in the delta.
//
// Prediction rules (shared by Diff and Apply, so they can never disagree):
// a carried member's field is copied from the base unless patched; local
// references are compared and remapped *by target oid* (member indices
// shift when membership changes), external references by target oid against
// the delta's new outbound table. Anything unpredictable — changed scalars,
// retargeted refs, refs to removed members — is patched explicitly.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "serialization/graph_xml.h"

namespace obiswap::serialization {

/// True if `payload` is an "OSWB" binary cluster document.
bool IsBinaryClusterPayload(std::string_view payload);

/// True if `payload` is an "OSWD" binary cluster delta.
bool IsClusterDeltaPayload(std::string_view payload);

/// Serializes `members` as one binary cluster document. Same contract as
/// SerializeCluster: each distinct external target appears once in
/// `outbound`, and `describe_external` failing aborts serialization.
Result<SerializedCluster> SerializeClusterBinary(
    runtime::Runtime& rt, uint32_t cluster_attr_id,
    const std::vector<runtime::Object*>& members,
    const DescribeExternalFn& describe_external);

/// Re-creates the objects of a binary cluster document inside `rt`. Same
/// contract as DeserializeCluster (graph_xml.h).
Result<std::vector<runtime::Object*>> DeserializeClusterBinary(
    runtime::Runtime& rt, const std::string& payload,
    const DeserializeOptions& options,
    const ResolveExternalFn& resolve_external);

/// Dispatches on the payload's leading bytes: '<' → XML document, "OSWB" →
/// binary document. Lets swap-in handle either format transparently (e.g.
/// after the wire format was switched while clusters were swapped out).
Result<std::vector<runtime::Object*>> DeserializeClusterAny(
    runtime::Runtime& rt, const std::string& payload,
    const DeserializeOptions& options,
    const ResolveExternalFn& resolve_external);

/// Computes the "OSWD" delta that transforms the OSWB document `base` into
/// the OSWB document `fresh` (same cluster id required). The delta is
/// usually far smaller than `fresh` when few fields changed, but is NOT
/// guaranteed smaller — callers should fall back to shipping `fresh` when
/// it is not. kInvalidArgument if either payload is not OSWB or the cluster
/// ids differ.
Result<std::string> DiffClusterPayloads(std::string_view base,
                                        std::string_view fresh);

/// Reconstructs the fresh OSWB document from `base` and a delta produced by
/// DiffClusterPayloads. Verifies the delta was made against this exact base
/// (base digest) and that the merged result matches the encoder's digest
/// (target digest); kDataLoss on any mismatch.
Result<std::string> ApplyClusterDelta(std::string_view base,
                                      std::string_view delta);

}  // namespace obiswap::serialization
