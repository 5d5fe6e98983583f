// Tests for src/common: Status/Result, ids, checksums, varint, RNG, strings.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/checksum.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/varint.h"

namespace obiswap {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFoundError("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing thing");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, AllErrorConstructorsSetTheirCode) {
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EveryCodeNameDecodesBackToItsCode) {
  const int last = static_cast<int>(StatusCode::kDeadlineExceeded);
  for (int i = 0; i <= last; ++i) {
    const auto code = static_cast<StatusCode>(i);
    const std::string name = StatusCodeName(code);
    EXPECT_NE(name, "UNKNOWN") << i;
    EXPECT_EQ(StatusCodeFromName(name), code) << name;
  }
  EXPECT_EQ(StatusCodeFromName("NO_SUCH_CODE"), StatusCode::kInternal);
  EXPECT_EQ(StatusCodeFromName("UNKNOWN"), StatusCode::kInternal);
  EXPECT_EQ(StatusCodeFromName(""), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = InvalidArgumentError("nope");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return InvalidArgumentError("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  OBISWAP_ASSIGN_OR_RETURN(int half, Half(v));
  OBISWAP_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(7).ok());
}

// ------------------------------------------------------------------- ids --

TEST(IdsTest, DefaultIsInvalid) {
  ClusterId id;
  EXPECT_FALSE(id.valid());
}

TEST(IdsTest, ValueRoundTrip) {
  SwapClusterId id(17);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 17u);
  EXPECT_EQ(id.ToString(), "17");
}

TEST(IdsTest, Comparison) {
  EXPECT_EQ(ClusterId(3), ClusterId(3));
  EXPECT_NE(ClusterId(3), ClusterId(4));
  EXPECT_LT(ClusterId(3), ClusterId(4));
}

TEST(IdsTest, HashUsableInSets) {
  std::set<ObjectId> ids;
  ids.insert(ObjectId(1));
  ids.insert(ObjectId(2));
  ids.insert(ObjectId(1));
  EXPECT_EQ(ids.size(), 2u);
}

TEST(IdsTest, SwapCluster0IsReserved) {
  EXPECT_TRUE(kSwapCluster0.valid());
  EXPECT_EQ(kSwapCluster0.value(), 0u);
}

// -------------------------------------------------------------- checksum --

TEST(ChecksumTest, Adler32KnownVector) {
  // Standard known value for "Wikipedia".
  EXPECT_EQ(Adler32("Wikipedia"), 0x11E60398u);
}

TEST(ChecksumTest, Adler32Empty) { EXPECT_EQ(Adler32(""), 1u); }

TEST(ChecksumTest, Adler32LargeInputDoesNotOverflow) {
  std::string data(1 << 20, '\xFF');
  uint32_t checksum = Adler32(data);
  EXPECT_NE(checksum, 0u);
  EXPECT_EQ(checksum, Adler32(data));  // deterministic
}

TEST(ChecksumTest, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(ChecksumTest, Crc32DetectsSingleBitFlip) {
  std::string a = "the quick brown fox";
  std::string b = a;
  b[3] ^= 0x01;
  EXPECT_NE(Crc32(a), Crc32(b));
}

TEST(ChecksumTest, Fnv1aDistinguishesInputs) {
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64(std::string_view("\0", 1)));
}

// ---------------------------------------------------------------- varint --

TEST(VarintTest, RoundTripBoundaries) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                     0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    std::string buf;
    PutVarint64(&buf, v);
    std::string_view view = buf;
    Result<uint64_t> decoded = GetVarint64(&view);
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_TRUE(view.empty());
  }
}

TEST(VarintTest, SmallValuesAreOneByte) {
  std::string buf;
  PutVarint64(&buf, 127);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(VarintTest, TruncatedFails) {
  std::string buf;
  PutVarint64(&buf, 300);
  std::string_view view(buf.data(), 1);
  EXPECT_FALSE(GetVarint64(&view).ok());
}

TEST(VarintTest, SequentialDecoding) {
  std::string buf;
  PutVarint64(&buf, 5);
  PutVarint64(&buf, 1000);
  PutVarint64(&buf, 0);
  std::string_view view = buf;
  EXPECT_EQ(*GetVarint64(&view), 5u);
  EXPECT_EQ(*GetVarint64(&view), 1000u);
  EXPECT_EQ(*GetVarint64(&view), 0u);
  EXPECT_TRUE(view.empty());
}

TEST(VarintTest, ZigZagRoundTrip) {
  for (int64_t v : std::initializer_list<int64_t>{0, -1, 1, -64, 63,
                                                  INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(VarintTest, ZigZagSmallMagnitudeStaysSmall) {
  EXPECT_LT(ZigZagEncode(-1), 256u);
  EXPECT_LT(ZigZagEncode(1), 256u);
}

// ------------------------------------------------------------------- rng --

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, FirstOutputsOfSeedOneArePinned) {
  Rng rng(1);
  std::vector<uint64_t> got;
  for (int i = 0; i < 4; ++i) got.push_back(rng.Next());
  EXPECT_EQ(got, (std::vector<uint64_t>{
                     0xb3f2af6d0fc710c5ull, 0x853b559647364ceaull,
                     0x92f89756082a4514ull, 0x642e1c7bc266a3a7ull}));
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(10), 10u);
}

TEST(RngTest, NextIntIsInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.25) ? 1 : 0;
  EXPECT_GT(hits, 2200);
  EXPECT_LT(hits, 2800);
}

// --------------------------------------------------------------- strings --

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  std::vector<std::string> pieces = StrSplit("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
}

TEST(StringUtilTest, SplitSingle) {
  EXPECT_EQ(StrSplit("abc", ',').size(), 1u);
  EXPECT_EQ(StrSplit("", ',').size(), 1u);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(StrTrim("  x \t\n"), "x");
  EXPECT_EQ(StrTrim("x"), "x");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StrStartsWith("swap-cluster", "swap"));
  EXPECT_FALSE(StrStartsWith("swap", "swap-cluster"));
  EXPECT_TRUE(StrEndsWith("object.xml", ".xml"));
  EXPECT_FALSE(StrEndsWith("xml", "object.xml"));
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.0junk").ok());
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.0 MiB");
}

}  // namespace
}  // namespace obiswap
