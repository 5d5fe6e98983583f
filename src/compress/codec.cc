#include "compress/codec.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/checksum.h"
#include "common/varint.h"

namespace obiswap::compress {

// --------------------------------------------------------------------------
// RLE
// --------------------------------------------------------------------------
// Token stream: (byte, varint run_length)*. Prefixed with varint total size.

Result<std::string> RleCodec::Compress(std::string_view input) const {
  std::string out;
  PutVarint64(&out, input.size());
  size_t i = 0;
  while (i < input.size()) {
    char byte = input[i];
    size_t run = 1;
    while (i + run < input.size() && input[i + run] == byte) ++run;
    out.push_back(byte);
    PutVarint64(&out, run);
    i += run;
  }
  return out;
}

Result<std::string> RleCodec::Decompress(std::string_view input) const {
  std::string_view rest = input;
  OBISWAP_ASSIGN_OR_RETURN(uint64_t total, GetVarint64(&rest));
  std::string out;
  // `total` comes off the wire: cap the upfront reservation so a corrupt
  // header cannot make reserve() itself throw. Growth past the cap is
  // amortized as usual (and bounded by the run-length checks below).
  out.reserve(static_cast<size_t>(std::min<uint64_t>(total, 1 << 20)));
  while (out.size() < total) {
    if (rest.empty()) return DataLossError("rle: truncated stream");
    char byte = rest[0];
    rest.remove_prefix(1);
    OBISWAP_ASSIGN_OR_RETURN(uint64_t run, GetVarint64(&rest));
    if (run == 0 || out.size() + run > total)
      return DataLossError("rle: bad run length");
    out.append(run, byte);
  }
  if (!rest.empty()) return DataLossError("rle: trailing bytes");
  return out;
}

// --------------------------------------------------------------------------
// LZ77
// --------------------------------------------------------------------------
// Token stream (after a varint original-size header):
//   0x00, varint len, <len literal bytes>     -- literal run
//   0x01, varint distance, varint length      -- match (copy from window)

namespace {
constexpr size_t kWindowSize = 32 * 1024;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1 << 16;
constexpr size_t kHashBits = 15;
constexpr size_t kMaxChain = 32;

inline uint32_t HashAt(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}
}  // namespace

// Aligned to 64 bytes so the byte-compare match loop sits the same way
// whatever code the linker places ahead of it: moving this function from
// offset 0 to 48 within a 64-byte line (no change to its code) took its
// median call on the system bench's payloads from ~12 us to ~18 us on an
// AMD EPYC host.
__attribute__((aligned(64)))
Result<std::string> Lz77Codec::Compress(std::string_view input) const {
  // The hash chains below (`head`/`prev`) store positions as int32_t; a
  // position at or past 2^31 would truncate and make the match finder copy
  // from the wrong offset — silent corruption. Refuse before touching the
  // data; callers see a clear error instead of a bad stream.
  if (input.size() > static_cast<size_t>(INT32_MAX))
    return InvalidArgumentError(
        "lz77: input too large (" + std::to_string(input.size()) +
        " bytes; positions are 32-bit, max " + std::to_string(INT32_MAX) +
        ")");
  std::string out;
  PutVarint64(&out, input.size());
  const size_t n = input.size();
  if (n == 0) return out;

  // head[h] = most recent position with hash h; prev[i] = previous position
  // in the same chain.
  std::vector<int32_t> head(size_t{1} << kHashBits, -1);
  std::vector<int32_t> prev(n, -1);

  std::string literals;
  auto flush_literals = [&]() {
    if (literals.empty()) return;
    out.push_back(0x00);
    PutVarint64(&out, literals.size());
    out += literals;
    literals.clear();
  };

  size_t i = 0;
  while (i < n) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      uint32_t h = HashAt(input.data() + i);
      int32_t candidate = head[h];
      size_t chain = 0;
      while (candidate >= 0 && chain < kMaxChain &&
             i - static_cast<size_t>(candidate) <= kWindowSize) {
        size_t len = 0;
        size_t max_len = n - i;
        if (max_len > kMaxMatch) max_len = kMaxMatch;
        const char* a = input.data() + candidate;
        const char* b = input.data() + i;
        while (len < max_len && a[len] == b[len]) ++len;
        if (len >= kMinMatch && len > best_len) {
          best_len = len;
          best_dist = i - static_cast<size_t>(candidate);
          if (len == max_len) break;
        }
        candidate = prev[candidate];
        ++chain;
      }
      // Insert current position into the chain.
      prev[i] = head[h];
      head[h] = static_cast<int32_t>(i);
    }
    if (best_len >= kMinMatch) {
      flush_literals();
      out.push_back(0x01);
      PutVarint64(&out, best_dist);
      PutVarint64(&out, best_len);
      // Insert skipped positions into the hash chains (cheap, improves
      // later matches).
      size_t end = i + best_len;
      for (size_t j = i + 1; j < end && j + kMinMatch <= n; ++j) {
        uint32_t h = HashAt(input.data() + j);
        prev[j] = head[h];
        head[h] = static_cast<int32_t>(j);
      }
      i = end;
    } else {
      literals.push_back(input[i]);
      ++i;
    }
  }
  flush_literals();
  return out;
}

Result<std::string> Lz77Codec::Decompress(std::string_view input) const {
  std::string_view rest = input;
  OBISWAP_ASSIGN_OR_RETURN(uint64_t total, GetVarint64(&rest));
  std::string out;
  // Same wire-sourced-size caution as RLE: never let a corrupt total make
  // reserve() throw.
  out.reserve(static_cast<size_t>(std::min<uint64_t>(total, 1 << 20)));
  while (out.size() < total) {
    if (rest.empty()) return DataLossError("lz77: truncated stream");
    uint8_t tag = static_cast<uint8_t>(rest[0]);
    rest.remove_prefix(1);
    if (tag == 0x00) {
      OBISWAP_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(&rest));
      if (len == 0 || len > rest.size() || out.size() + len > total)
        return DataLossError("lz77: bad literal run");
      out.append(rest.substr(0, len));
      rest.remove_prefix(len);
    } else if (tag == 0x01) {
      OBISWAP_ASSIGN_OR_RETURN(uint64_t dist, GetVarint64(&rest));
      OBISWAP_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(&rest));
      if (dist == 0 || dist > out.size() || len < kMinMatch ||
          out.size() + len > total)
        return DataLossError("lz77: bad match token");
      const size_t start = out.size() - dist;
      const size_t old_size = out.size();
      out.resize(old_size + len);
      if (dist >= len) {
        // Source and destination cannot overlap: one bulk copy. Pointers
        // are taken after the resize — it may reallocate.
        std::memcpy(out.data() + old_size, out.data() + start, len);
      } else {
        // Overlapping match (dist < len): the copy must read bytes it
        // itself produced, byte order is semantic (e.g. dist=1 replicates
        // the previous byte len times).
        for (uint64_t k = 0; k < len; ++k) out[old_size + k] = out[start + k];
      }
    } else {
      return DataLossError("lz77: unknown token tag");
    }
  }
  if (!rest.empty()) return DataLossError("lz77: trailing bytes");
  return out;
}

// --------------------------------------------------------------------------
// Registry and framing
// --------------------------------------------------------------------------

const Codec* FindCodec(std::string_view name) {
  static const IdentityCodec identity;
  static const RleCodec rle;
  static const Lz77Codec lz77;
  if (name == "identity") return &identity;
  if (name == "rle") return &rle;
  if (name == "lz77") return &lz77;
  return nullptr;
}

std::vector<std::string> CodecNames() { return {"identity", "rle", "lz77"}; }

// Frame: "OSWC" magic, varint name-length, name, varint original size,
// 4-byte little-endian Adler-32 of original, compressed payload.
Result<std::string> FrameCompress(const Codec& codec,
                                  std::string_view payload) {
  OBISWAP_ASSIGN_OR_RETURN(std::string compressed, codec.Compress(payload));
  std::string out = "OSWC";
  PutLengthPrefixed(&out, codec.name());
  PutVarint64(&out, payload.size());
  PutFixed(&out, Adler32(payload), 4);
  out += compressed;
  return out;
}

Result<FrameHeader> ReadFrameHeader(std::string_view frame) {
  if (frame.substr(0, 4) != "OSWC")
    return DataLossError("frame: bad magic");
  std::string_view rest = frame.substr(4);
  FrameHeader header;
  OBISWAP_ASSIGN_OR_RETURN(header.codec,
                           GetLengthPrefixed(&rest, "frame: truncated name"));
  OBISWAP_ASSIGN_OR_RETURN(header.original_size, GetVarint64(&rest));
  std::optional<uint64_t> checksum = GetFixed(&rest, 4);
  if (!checksum.has_value())
    return DataLossError("frame: truncated checksum");
  header.adler32 = static_cast<uint32_t>(*checksum);
  header.body = rest;
  return header;
}

Result<std::string> FrameDecompress(std::string_view frame) {
  OBISWAP_ASSIGN_OR_RETURN(FrameHeader header, ReadFrameHeader(frame));
  const Codec* codec = FindCodec(header.codec);
  if (codec == nullptr)
    return DataLossError("frame: unknown codec '" + std::string(header.codec) +
                         "'");
  OBISWAP_ASSIGN_OR_RETURN(std::string payload, codec->Decompress(header.body));
  if (payload.size() != header.original_size)
    return DataLossError("frame: size mismatch");
  if (Adler32(payload) != header.adler32)
    return DataLossError("frame: checksum mismatch");
  return payload;
}

}  // namespace obiswap::compress
