// Compression codecs.
//
// These are the substrate for the heap-compression *baseline* (related work
// [2] Chen et al. OOPSLA'03 and [3] Chihaia & Gross), which the paper argues
// against: compression saves memory but burns CPU/energy. They are also
// available as an optional transform for swapped XML payloads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace obiswap::compress {

/// A lossless byte codec. Implementations are stateless and thread-safe.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Stable codec name ("rle", "lz77", "identity").
  virtual const char* name() const = 0;

  /// Compresses `input` (worst case expands slightly). kInvalidArgument if
  /// the input exceeds what the codec's internal indexing can address.
  virtual Result<std::string> Compress(std::string_view input) const = 0;

  /// Decompresses a buffer produced by Compress. kDataLoss on corruption.
  virtual Result<std::string> Decompress(std::string_view input) const = 0;
};

/// Pass-through codec (for ablation: swapping without compression).
class IdentityCodec : public Codec {
 public:
  const char* name() const override { return "identity"; }
  Result<std::string> Compress(std::string_view input) const override {
    return std::string(input);
  }
  Result<std::string> Decompress(std::string_view input) const override {
    return std::string(input);
  }
};

/// Byte run-length encoding with varint run lengths. Cheap, weak.
class RleCodec : public Codec {
 public:
  const char* name() const override { return "rle"; }
  Result<std::string> Compress(std::string_view input) const override;
  Result<std::string> Decompress(std::string_view input) const override;
};

/// LZ77 with a hash-chain match finder, 32 KiB window, varint token stream.
/// Roughly deflate-shaped cost profile: compression is CPU-heavy relative to
/// decompression — exactly the asymmetry the paper's related-work argument
/// relies on. The hash chains index positions as int32_t, so inputs of
/// 2 GiB or more are rejected with kInvalidArgument rather than silently
/// corrupted by position truncation.
class Lz77Codec : public Codec {
 public:
  const char* name() const override { return "lz77"; }
  Result<std::string> Compress(std::string_view input) const override;
  Result<std::string> Decompress(std::string_view input) const override;
};

/// Looks up a codec by name; nullptr if unknown. Returned pointer is a
/// process-lifetime singleton.
const Codec* FindCodec(std::string_view name);

/// Names of all registered codecs.
std::vector<std::string> CodecNames();

/// Wraps `payload` in a self-describing frame: codec name, original size and
/// Adler-32 of the original, so swap-in can verify integrity end-to-end.
/// Propagates the codec's Compress error (e.g. oversized input).
Result<std::string> FrameCompress(const Codec& codec,
                                  std::string_view payload);

/// The header FrameCompress writes, read without decoding the body. `codec`
/// and `body` view into the frame they were read from.
struct FrameHeader {
  std::string_view codec;      ///< name of the codec that packed the body
  uint64_t original_size = 0;  ///< size of the payload before packing
  uint32_t adler32 = 0;        ///< Adler-32 of the payload before packing
  std::string_view body;       ///< the codec's output
};

/// Reads a frame's header; kDataLoss when `frame` does not start with one.
/// Does not check that the codec exists or that the body decodes.
Result<FrameHeader> ReadFrameHeader(std::string_view frame);

/// Inverse of FrameCompress: detects codec from the frame, verifies checksum.
Result<std::string> FrameDecompress(std::string_view frame);

}  // namespace obiswap::compress
