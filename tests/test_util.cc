// Unit tests for util: Status/Result, Rng + distributions, stats, clocks,
// tables.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "util/clock.h"
#include "util/coding.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace liferaft {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("bucket 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "bucket 7");
  EXPECT_EQ(s.ToString(), "NotFound: bucket 7");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IOError("disk gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubleIfPositive(int x) {
  LIFERAFT_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = DoubleIfPositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  auto err = DoubleIfPositive(-3);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformU64InRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformU64(10), 10u);
  }
}

TEST(RngTest, UniformU64CoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformU64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(13);
  StreamingStats s;
  const double lambda = 0.5;  // mean 2
  for (int i = 0; i < 50000; ++i) s.Add(rng.Exponential(lambda));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  StreamingStats s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.Normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ------------------------------------------------------------------ Zipf --

TEST(ZipfTest, UniformWhenSkewZero) {
  ZipfDistribution z(4, 0.0);
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(z.Pmf(i), 0.25, 1e-12);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution z(100, 1.1);
  double sum = 0;
  for (size_t i = 0; i < 100; ++i) sum += z.Pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroMostPopular) {
  ZipfDistribution z(50, 1.0);
  for (size_t i = 1; i < 50; ++i) EXPECT_GT(z.Pmf(0), z.Pmf(i));
}

TEST(ZipfTest, SampleFrequenciesMatchPmf) {
  Rng rng(29);
  ZipfDistribution z(10, 1.0);
  std::vector<int> counts(10, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(&rng)];
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), z.Pmf(i), 0.01)
        << "rank " << i;
  }
}

TEST(ZipfTest, HighSkewConcentratesMass) {
  ZipfDistribution z(1000, 2.0);
  double top10 = 0;
  for (size_t i = 0; i < 10; ++i) top10 += z.Pmf(i);
  EXPECT_GT(top10, 0.9);
}

TEST(PoissonTest, MeanMatchesSmallAndLarge) {
  Rng rng(31);
  for (double mean : {0.5, 5.0, 80.0}) {
    StreamingStats s;
    for (int i = 0; i < 20000; ++i) {
      s.Add(static_cast<double>(PoissonSample(&rng, mean)));
    }
    EXPECT_NEAR(s.mean(), mean, mean * 0.05 + 0.05) << "mean " << mean;
  }
}

// ----------------------------------------------------------------- Stats --

TEST(StreamingStatsTest, Empty) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.coefficient_of_variation(), 0.0);
}

TEST(StreamingStatsTest, KnownValues) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(StreamingStatsTest, MergeEqualsCombined) {
  Rng rng(37);
  StreamingStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Normal(3, 2);
    all.Add(v);
    (i % 2 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(PercentilesTest, ExactOnSmallSet) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.Add(i);
  EXPECT_NEAR(p.Median(), 50.5, 1e-12);
  EXPECT_NEAR(p.Percentile(0), 1.0, 1e-12);
  EXPECT_NEAR(p.Percentile(100), 100.0, 1e-12);
  EXPECT_NEAR(p.Percentile(99), 99.01, 0.5);
}

TEST(PercentilesTest, EmptyReturnsZero) {
  Percentiles p;
  EXPECT_EQ(p.Percentile(50), 0.0);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);    // bin 0
  h.Add(9.99);   // bin 9
  h.Add(-5.0);   // clamps to bin 0
  h.Add(100.0);  // clamps to bin 9
  EXPECT_EQ(h.BinCount(0), 2u);
  EXPECT_EQ(h.BinCount(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.BinLow(3), 3.0);
}

// ----------------------------------------------------------------- Clock --

TEST(VirtualClockTest, AdvanceMonotone) {
  VirtualClock c(100.0);
  EXPECT_EQ(c.NowMs(), 100.0);
  c.Advance(50.0);
  EXPECT_EQ(c.NowMs(), 150.0);
  c.AdvanceTo(120.0);  // in the past: no-op
  EXPECT_EQ(c.NowMs(), 150.0);
  c.AdvanceTo(200.0);
  EXPECT_EQ(c.NowMs(), 200.0);
}

TEST(WallClockTest, MovesForward) {
  WallClock c;
  double t0 = c.NowMs();
  // Burn a little CPU; steady_clock must not go backwards.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + std::sqrt(static_cast<double>(i));
  EXPECT_GE(c.NowMs(), t0);
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, TextAndCsv) {
  Table t({"alg", "throughput"});
  t.AddRow({"NoShare", Table::Num(0.084, 3)});
  t.AddRow({"LifeRaft", Table::Num(0.212, 3)});
  std::string text = t.ToText();
  EXPECT_NE(text.find("NoShare"), std::string::npos);
  EXPECT_NE(text.find("0.212"), std::string::npos);
  std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("alg,throughput"), std::string::npos);
  EXPECT_NE(csv.find("NoShare,0.084"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, CsvQuotesCommas) {
  Table t({"a"});
  t.AddRow({"x,y"});
  EXPECT_NE(t.ToCsv().find("\"x,y\""), std::string::npos);
}

// ---------------------------------------------------------------- coding --

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  PutDouble(&buf, -1.5e-300);
  PutFloat(&buf, 3.25f);
  ASSERT_EQ(buf.size(), 4u + 8u + 8u + 4u);
  EXPECT_EQ(GetFixed32(buf.data()), 0xDEADBEEFu);
  EXPECT_EQ(GetFixed64(buf.data() + 4), 0x0123456789ABCDEFull);
  EXPECT_EQ(GetDouble(buf.data() + 12), -1.5e-300);
  EXPECT_EQ(GetFloat(buf.data() + 20), 3.25f);
  // Explicitly little-endian on disk.
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0xEF);
  EXPECT_EQ(static_cast<unsigned char>(buf[3]), 0xDE);
}

TEST(CodingTest, Varint64RoundTripBoundaries) {
  // Every 7-bit length boundary, both sides.
  std::vector<uint64_t> values = {0, 1, 0x7F, 0x80, 0x3FFF, 0x4000};
  for (int shift = 21; shift <= 63; shift += 7) {
    values.push_back((1ull << shift) - 1);
    values.push_back(1ull << shift);
  }
  values.push_back(UINT64_MAX - 1);
  values.push_back(UINT64_MAX);
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    ASSERT_LE(buf.size(), kMaxVarint64Bytes);
    uint64_t out = 0;
    const char* end = GetVarint64(buf.data(), buf.data() + buf.size(), &out);
    ASSERT_NE(end, nullptr) << v;
    EXPECT_EQ(end, buf.data() + buf.size()) << v;
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, Varint32RoundTripAndRejectsOverflow) {
  for (uint32_t v : {0u, 1u, 127u, 128u, 16383u, 16384u, UINT32_MAX}) {
    std::string buf;
    PutVarint32(&buf, v);
    ASSERT_LE(buf.size(), kMaxVarint32Bytes);
    uint32_t out = 0;
    ASSERT_NE(GetVarint32(buf.data(), buf.data() + buf.size(), &out),
              nullptr);
    EXPECT_EQ(out, v);
  }
  // A value above UINT32_MAX decodes as a varint64 but must be rejected by
  // the 32-bit reader.
  std::string buf;
  PutVarint64(&buf, uint64_t{UINT32_MAX} + 1);
  uint32_t out = 0;
  EXPECT_EQ(GetVarint32(buf.data(), buf.data() + buf.size(), &out), nullptr);
}

TEST(CodingTest, VarintRejectsTruncation) {
  std::string buf;
  PutVarint64(&buf, UINT64_MAX);  // 10 bytes
  uint64_t out = 0;
  for (size_t len = 0; len < buf.size(); ++len) {
    EXPECT_EQ(GetVarint64(buf.data(), buf.data() + len, &out), nullptr)
        << "prefix of " << len << " bytes must not decode";
  }
  EXPECT_NE(GetVarint64(buf.data(), buf.data() + buf.size(), &out), nullptr);
}

TEST(CodingTest, VarintRejectsOverlongAndOverflow) {
  // 10 continuation bytes: longer than any valid u64 varint.
  std::string overlong(10, static_cast<char>(0x80));
  overlong.push_back(0x01);
  uint64_t out = 0;
  EXPECT_EQ(
      GetVarint64(overlong.data(), overlong.data() + overlong.size(), &out),
      nullptr);
  // 10-byte encoding whose final byte carries bits above bit 63.
  std::string overflow(9, static_cast<char>(0xFF));
  overflow.push_back(0x02);  // shift 63, byte > 1
  EXPECT_EQ(
      GetVarint64(overflow.data(), overflow.data() + overflow.size(), &out),
      nullptr);
  // Same final-byte position with only the low bit set is exactly
  // UINT64_MAX's encoding tail and must decode.
  std::string max_enc(9, static_cast<char>(0xFF));
  max_enc.push_back(0x01);
  ASSERT_NE(
      GetVarint64(max_enc.data(), max_enc.data() + max_enc.size(), &out),
      nullptr);
  EXPECT_EQ(out, UINT64_MAX);
}

TEST(CodingTest, ZigZagRoundTripAndOrdering) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-2},
                    int64_t{INT64_MAX}, int64_t{INT64_MIN}}) {
    EXPECT_EQ(ZigZagDecode64(ZigZagEncode64(v)), v);
  }
  for (int32_t v : {0, -1, 1, -2, INT32_MAX, INT32_MIN}) {
    EXPECT_EQ(ZigZagDecode32(ZigZagEncode32(v)), v);
  }
  // Small magnitudes map to small codes (the property varints exploit).
  EXPECT_EQ(ZigZagEncode64(0), 0u);
  EXPECT_EQ(ZigZagEncode64(-1), 1u);
  EXPECT_EQ(ZigZagEncode64(1), 2u);
  EXPECT_EQ(ZigZagEncode64(-2), 3u);
}

TEST(CodingTest, DeltaVarintRoundTrip) {
  std::vector<uint64_t> vs = {5, 5, 6, 100, 100, 1ull << 40, UINT64_MAX};
  std::string buf;
  PutDeltaVarint64(&buf, vs);
  std::vector<uint64_t> out;
  out.reserve(vs.size());
  const char* end = GetDeltaVarint64(buf.data(), buf.data() + buf.size(),
                                     vs.size(), &out);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(end, buf.data() + buf.size());
  EXPECT_EQ(out, vs);
}

TEST(CodingTest, DeltaVarintEmptyAndSingle) {
  std::string buf;
  PutDeltaVarint64(&buf, std::span<const uint64_t>{});
  EXPECT_TRUE(buf.empty());
  std::vector<uint64_t> one = {42};
  PutDeltaVarint64(&buf, one);
  std::vector<uint64_t> out;
  ASSERT_NE(GetDeltaVarint64(buf.data(), buf.data() + buf.size(), 1, &out),
            nullptr);
  EXPECT_EQ(out, one);
}

TEST(CodingTest, DeltaVarintRejectsTruncationAndOverflow) {
  std::vector<uint64_t> vs = {10, 20, 30};
  std::string buf;
  PutDeltaVarint64(&buf, vs);
  std::vector<uint64_t> out;
  EXPECT_EQ(GetDeltaVarint64(buf.data(), buf.data() + buf.size() - 1,
                             vs.size(), &out),
            nullptr);
  // First value UINT64_MAX then a positive delta: the accumulator would
  // wrap, which the decoder must reject rather than emit a non-monotone id.
  std::string wrap;
  PutVarint64(&wrap, UINT64_MAX);
  PutVarint64(&wrap, 1);
  std::vector<uint64_t> out2;
  EXPECT_EQ(
      GetDeltaVarint64(wrap.data(), wrap.data() + wrap.size(), 2, &out2),
      nullptr);
}

}  // namespace
}  // namespace liferaft
