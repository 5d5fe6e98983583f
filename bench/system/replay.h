// Replay pass of the traced run: real inputs fed through single layer
// functions, each call timed on its own.
//
// Inputs are the store-form payloads the run left on its stores (captured
// with StoreNode::Keys/Peek) and freshly built clusters of the workload's
// shape. Each cost is the median wall time of one call, in nanoseconds.
#pragma once

#include <string>
#include <vector>

#include "workload.h"

namespace sysbench {

struct ReplayCosts {
  double encode_ns = 0;      ///< serialize one cluster (workload's format)
  double decode_ns = 0;      ///< deserialize one cluster document
  double compress_ns = 0;    ///< Lz77Codec::Compress of one document
  double decompress_ns = 0;  ///< Lz77Codec::Decompress of one document
  double ratio = 0;          ///< lz77 output bytes / document bytes
  double adler_ns = 0;       ///< Adler32 of one document
  double probe_ns = 0;       ///< TierManager::Probe served from the RAM pool
  double fetch_ns = 0;       ///< StoreClient::Fetch of one payload
  double store_ns = 0;       ///< StoreClient::Store of one payload
  double drop_ns = 0;        ///< StoreClient::Drop of one key
  double targets_ns = 0;     ///< PlacementDirectory::Targets over the pool
};

ReplayCosts RunReplay(const ReplayShape& shape,
                      const std::vector<std::string>& captured, uint64_t seed);

}  // namespace sysbench
