// Field codecs of the binary formats: LEB128-style varints, little-endian
// fixed-width words and varint-length-prefixed byte strings. Used by the
// compression frame (OSWC), the binary cluster formats (OSWB, OSWD) and
// the intent-journal image.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace obiswap {

/// Appends `value` to `out` as an unsigned LEB128 varint (1..10 bytes).
void PutVarint64(std::string* out, uint64_t value);

/// Reads a varint from the front of `*in`, advancing it past the encoding.
/// Fails with kDataLoss if `*in` is truncated or over-long. Inline: the
/// binary document scan reads several per member.
inline Result<uint64_t> GetVarint64(std::string_view* in) {
  uint64_t result = 0;
  int shift = 0;
  size_t i = 0;
  while (i < in->size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>((*in)[i]);
    ++i;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      in->remove_prefix(i);
      return result;
    }
    shift += 7;
  }
  return DataLossError("truncated or over-long varint");
}

/// Appends the low `bytes` bytes of `value` (4 or 8), little-endian.
inline void PutFixed(std::string* out, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
}

/// Reads a `bytes`-wide little-endian word from the front of `*in`,
/// advancing it; nullopt (and `*in` untouched) when fewer bytes remain, so
/// each format reports its own truncation error.
inline std::optional<uint64_t> GetFixed(std::string_view* in, int bytes) {
  if (in->size() < static_cast<size_t>(bytes)) return std::nullopt;
  uint64_t value = 0;
  for (int i = 0; i < bytes; ++i)
    value |= static_cast<uint64_t>(static_cast<unsigned char>((*in)[i]))
             << (8 * i);
  in->remove_prefix(static_cast<size_t>(bytes));
  return value;
}

/// Appends `text` as varint(length) followed by its bytes.
inline void PutLengthPrefixed(std::string* out, std::string_view text) {
  PutVarint64(out, text.size());
  out->append(text);
}

/// Reads a PutLengthPrefixed string from the front of `*in`, advancing it.
/// A bad length varint fails with GetVarint64's error; a length past the
/// end of `*in` fails with kDataLoss `truncated`, the format's own message.
inline Result<std::string_view> GetLengthPrefixed(std::string_view* in,
                                                  const char* truncated) {
  OBISWAP_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(in));
  if (len > in->size()) return DataLossError(truncated);
  std::string_view text = in->substr(0, static_cast<size_t>(len));
  in->remove_prefix(static_cast<size_t>(len));
  return text;
}

/// ZigZag mapping so small negative numbers stay short.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace obiswap
