// Tests for the compression codecs and the self-describing frame format.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "compress/codec.h"

namespace obiswap::compress {
namespace {

std::string RandomBytes(Rng& rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextBelow(256));
  return out;
}

std::string CompressibleText(Rng& rng, size_t n) {
  // Repetitive XML-ish text, similar to swapped payloads.
  static const char* kWords[] = {"<object ", "class=\"Node\"", "<f n=\"next\"",
                                 "</object>", "payload", "0123456789"};
  std::string out;
  while (out.size() < n) out += kWords[rng.NextBelow(6)];
  out.resize(n);
  return out;
}

// Compress is fallible (oversized inputs are rejected); everything in these
// tests is far below any limit, so unwrap.
std::string MustCompress(const Codec& codec, std::string_view input) {
  auto compressed = codec.Compress(input);
  EXPECT_TRUE(compressed.ok()) << compressed.status().ToString();
  return std::move(*compressed);
}

std::string MustFrame(const Codec& codec, std::string_view payload) {
  auto frame = FrameCompress(codec, payload);
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  return std::move(*frame);
}

class CodecTest : public ::testing::TestWithParam<const char*> {
 protected:
  const Codec& codec() const { return *FindCodec(GetParam()); }
};

TEST_P(CodecTest, EmptyInputRoundTrips) {
  auto decoded = codec().Decompress(MustCompress(codec(), ""));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, "");
}

TEST_P(CodecTest, SingleByteRoundTrips) {
  auto decoded = codec().Decompress(MustCompress(codec(), "x"));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, "x");
}

TEST_P(CodecTest, BinaryDataRoundTrips) {
  Rng rng(42);
  for (size_t n : {16u, 1000u, 65536u}) {
    std::string data = RandomBytes(rng, n);
    auto decoded = codec().Decompress(MustCompress(codec(), data));
    ASSERT_TRUE(decoded.ok()) << codec().name() << " n=" << n;
    EXPECT_EQ(*decoded, data);
  }
}

TEST_P(CodecTest, RepetitiveTextRoundTrips) {
  Rng rng(7);
  std::string data = CompressibleText(rng, 50000);
  auto decoded = codec().Decompress(MustCompress(codec(), data));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
}

TEST_P(CodecTest, EmbeddedNulsSurvive) {
  std::string data("a\0b\0\0c", 6);
  auto decoded = codec().Decompress(MustCompress(codec(), data));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecTest,
                         ::testing::Values("identity", "rle", "lz77"));

TEST(RleTest, LongRunsShrink) {
  RleCodec rle;
  std::string runs(10000, 'a');
  EXPECT_LT(MustCompress(rle, runs).size(), 20u);
}

TEST(RleTest, TruncatedStreamFails) {
  RleCodec rle;
  std::string compressed = MustCompress(rle, "aaaabbbb");
  compressed.resize(compressed.size() - 1);
  EXPECT_FALSE(rle.Decompress(compressed).ok());
}

TEST(Lz77Test, RepetitiveTextCompressesWell) {
  Rng rng(3);
  Lz77Codec lz;
  std::string data = CompressibleText(rng, 100000);
  std::string compressed = MustCompress(lz, data);
  EXPECT_LT(compressed.size(), data.size() / 3)
      << "expected >3x on repetitive XML-ish text, got "
      << data.size() / static_cast<double>(compressed.size()) << "x";
}

TEST(Lz77Test, RandomDataExpandsOnlySlightly) {
  Rng rng(5);
  Lz77Codec lz;
  std::string data = RandomBytes(rng, 10000);
  std::string compressed = MustCompress(lz, data);
  EXPECT_LT(compressed.size(), data.size() + 64);
}

TEST(Lz77Test, CorruptTokenTagFails) {
  Lz77Codec lz;
  Rng rng(9);
  std::string compressed = MustCompress(lz, CompressibleText(rng, 2000));
  // Flip a byte somewhere past the header.
  compressed[compressed.size() / 2] = '\x7E';
  auto decoded = lz.Decompress(compressed);
  // Either a decode error or (rarely) wrong output caught by frame checksum;
  // here we only require no crash and no silent success with equal bytes.
  if (decoded.ok()) {
    EXPECT_NE(*decoded, CompressibleText(rng, 2000));
  }
}

TEST(Lz77Test, RejectsInputsThatWouldTruncatePositions) {
  // The match finder's hash chains index positions as int32_t; an input of
  // 2 GiB or more would truncate positions and corrupt matches. Allocating
  // 2 GiB in a unit test is not practical, so fake the size: a string_view
  // with a huge length over a tiny buffer. The guard must fire on size()
  // alone, before any byte of the data is dereferenced.
  std::string small = "tiny";
  std::string_view fake(small.data(), size_t{0x80000001});
  Lz77Codec lz;
  auto compressed = lz.Compress(fake);
  ASSERT_FALSE(compressed.ok());
  EXPECT_EQ(compressed.status().code(), StatusCode::kInvalidArgument);
  // Exactly INT32_MAX bytes is still addressable; one past is not. (Only
  // checked via the boundary math here — the error message names the cap.)
  EXPECT_NE(compressed.status().ToString().find("lz77"), std::string::npos);
}

TEST(Lz77Test, MatchAtMaxDistance) {
  // Pattern, 32 KiB of noise-free filler, then the pattern again.
  std::string data = "HELLOWORLDHELLO";
  data += std::string(32 * 1024 - 10, 'x');
  data += "HELLOWORLDHELLO";
  Lz77Codec lz;
  auto decoded = lz.Decompress(MustCompress(lz, data));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
}

TEST(Lz77Test, OverlappingMatchDecodes) {
  // "abcabcabc..." produces matches with distance < length (overlap copy).
  std::string data;
  for (int i = 0; i < 1000; ++i) data += "abc";
  Lz77Codec lz;
  auto decoded = lz.Decompress(MustCompress(lz, data));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
}

// ----------------------------------------------------------------- frame --

TEST(FrameTest, RoundTripsEveryCodec) {
  Rng rng(21);
  std::string payload = CompressibleText(rng, 5000);
  for (const std::string& name : CodecNames()) {
    std::string frame = MustFrame(*FindCodec(name), payload);
    auto decoded = FrameDecompress(frame);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
    EXPECT_EQ(*decoded, payload);
  }
}

// The frame bytes of each codec, pinned by FNV-1a: stored frames of
// earlier runs must still decode, and their sizes set transfer times.
TEST(FrameTest, FrameBytesArePinned) {
  Rng rng(21);
  const std::string payload = CompressibleText(rng, 600);
  const std::vector<std::pair<const char*, uint64_t>> kPinned = {
      {"identity", 0xec19de61443b24bdull},
      {"rle", 0x094d7e2c31877555ull},
      {"lz77", 0x1e19310d6e8b73caull},
  };
  for (const auto& [name, digest] : kPinned) {
    std::string frame = MustFrame(*FindCodec(name), payload);
    EXPECT_EQ(Fnv1a64(frame), digest)
        << name << " (" << frame.size() << " bytes)";
  }
}

TEST(FrameTest, DetectsCorruption) {
  std::string frame = MustFrame(*FindCodec("lz77"), "some payload data");
  // Corrupt the compressed body (last byte).
  frame.back() = static_cast<char>(frame.back() ^ 0x55);
  EXPECT_FALSE(FrameDecompress(frame).ok());
}

TEST(FrameTest, DetectsBadMagic) {
  std::string frame = MustFrame(*FindCodec("identity"), "x");
  frame[0] = 'Z';
  auto result = FrameDecompress(frame);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(FrameTest, DetectsUnknownCodec) {
  // Hand-build a frame naming a codec that does not exist.
  std::string frame = MustFrame(*FindCodec("identity"), "x");
  // "identity" begins right after magic + 1-byte varint length (8).
  frame[5] = 'X';
  EXPECT_FALSE(FrameDecompress(frame).ok());
}

TEST(FrameTest, TruncatedFrameFails) {
  std::string frame = MustFrame(*FindCodec("rle"), "aaaa");
  for (size_t cut : {0u, 3u, 6u, 10u}) {
    if (cut >= frame.size()) continue;
    EXPECT_FALSE(FrameDecompress(frame.substr(0, cut)).ok()) << cut;
  }
}

// ------------------------------------------------------------------ fuzz --
//
// Deterministic-RNG fuzzing: every codec (raw and framed) must round-trip
// a spread of corpora, and a damaged frame must either fail cleanly or —
// never — succeed with bytes that differ from the original. Truncation and
// bit-flips go through the frame layer because the identity codec happily
// "round-trips" a truncated raw stream; the frame checksum is what makes
// damage detectable for every codec uniformly.

std::vector<std::string> FuzzCorpora() {
  Rng rng(1234);
  std::vector<std::string> corpora;
  corpora.push_back("");                          // empty
  corpora.push_back("x");                         // single byte
  corpora.push_back(std::string(300, 'q'));       // one long run
  corpora.push_back(RandomBytes(rng, 257));       // incompressible
  corpora.push_back(CompressibleText(rng, 600));  // XML-like
  return corpora;
}

TEST_P(CodecTest, FuzzCorporaRoundTripRawAndFramed) {
  for (const std::string& data : FuzzCorpora()) {
    auto raw = codec().Decompress(MustCompress(codec(), data));
    ASSERT_TRUE(raw.ok()) << codec().name() << " n=" << data.size();
    EXPECT_EQ(*raw, data);
    auto framed = FrameDecompress(MustFrame(codec(), data));
    ASSERT_TRUE(framed.ok()) << codec().name() << " n=" << data.size();
    EXPECT_EQ(*framed, data);
  }
}

TEST_P(CodecTest, FrameTruncationAtEveryPrefixFails) {
  for (const std::string& data : FuzzCorpora()) {
    std::string frame = MustFrame(codec(), data);
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      EXPECT_FALSE(FrameDecompress(frame.substr(0, cut)).ok())
          << codec().name() << " n=" << data.size() << " cut=" << cut;
    }
  }
}

TEST_P(CodecTest, FrameSingleBitFlipNeverYieldsWrongBytes) {
  for (const std::string& data : FuzzCorpora()) {
    std::string frame = MustFrame(codec(), data);
    for (size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string damaged = frame;
        damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
        auto decoded = FrameDecompress(damaged);
        // Almost every flip is a clean error. A flip may legitimately
        // decode (e.g. a body flip the codec maps back to the same bytes,
        // so the checksum passes) — but it must never silently produce
        // *different* bytes.
        if (decoded.ok()) {
          EXPECT_EQ(*decoded, data)
              << codec().name() << " n=" << data.size() << " byte=" << byte
              << " bit=" << bit;
        }
      }
    }
  }
}

TEST(CodecRegistryTest, FindCodec) {
  EXPECT_NE(FindCodec("lz77"), nullptr);
  EXPECT_NE(FindCodec("rle"), nullptr);
  EXPECT_NE(FindCodec("identity"), nullptr);
  EXPECT_EQ(FindCodec("zstd"), nullptr);
  EXPECT_EQ(CodecNames().size(), 3u);
}

}  // namespace
}  // namespace obiswap::compress
