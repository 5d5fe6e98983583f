// Checksums used to guard swapped payloads against store-side corruption
// (Status kDataLoss on mismatch at swap-in time).
#pragma once

#include <cstdint>
#include <string_view>

namespace obiswap {

/// Adler-32 over `data` (RFC 1950 variant). Fast, good enough for payload
/// integrity in the simulated store.
uint32_t Adler32(std::string_view data);

/// CRC-32 (IEEE 802.3 polynomial, reflected). Used for policy/file checks.
uint32_t Crc32(std::string_view data);

/// 64-bit FNV-1a hash, used for content-addressed dedup in StoreNode stats.
uint64_t Fnv1a64(std::string_view data);

/// Order-sensitive 32-bit digest over the semantic content of a cluster
/// document: the XML and binary serializers each feed it the primitive
/// sequence of their format, and the decoder feeds the same sequence back,
/// so the embedded checksum survives re-parsing (unlike a hash of the raw
/// bytes).
class Digest {
 public:
  void Mix(std::string_view text) {
    hash_ = Fnv1a64(text) * 1099511628211ull ^ (hash_ << 1);
  }
  void Mix(uint64_t value) {
    hash_ ^= value + 0x9E3779B97F4A7C15ull + (hash_ << 6) + (hash_ >> 2);
  }
  uint32_t Finish() const {
    return static_cast<uint32_t>(hash_ ^ (hash_ >> 32));
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace obiswap
