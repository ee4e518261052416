// Tests for the workload generators: catalog synthesis, the SDSS-like
// trace's calibrated skew (the Fig 5 / Fig 6 marginals), temporal locality,
// and trace persistence.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>

#include "query/preprocessor.h"
#include "storage/catalog.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/random.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace liferaft::workload {
namespace {

// ------------------------------------------------------------ CatalogGen --

TEST(CatalogGenTest, GeneratesRequestedCount) {
  CatalogGenConfig config;
  config.num_objects = 5000;
  auto objects = GenerateCatalog(config);
  ASSERT_TRUE(objects.ok());
  EXPECT_EQ(objects->size(), 5000u);
  std::set<uint64_t> ids;
  for (const auto& o : *objects) {
    ids.insert(o.object_id);
    EXPECT_GE(o.ra_deg, 0.0);
    EXPECT_LT(o.ra_deg, 360.0);
    EXPECT_GE(o.dec_deg, -90.0);
    EXPECT_LE(o.dec_deg, 90.0);
    EXPECT_EQ(htm::LevelOf(o.htm_id), htm::kObjectLevel);
  }
  EXPECT_EQ(ids.size(), 5000u) << "object ids must be unique";
}

TEST(CatalogGenTest, Deterministic) {
  CatalogGenConfig config;
  config.num_objects = 500;
  config.seed = 99;
  auto a = GenerateCatalog(config);
  auto b = GenerateCatalog(config);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].htm_id, (*b)[i].htm_id);
  }
}

TEST(CatalogGenTest, ClusteringConcentratesObjects) {
  CatalogGenConfig clustered;
  clustered.num_objects = 20'000;
  clustered.cluster_fraction = 0.8;
  clustered.num_clusters = 4;
  clustered.cluster_sigma_deg = 1.0;
  auto objects = GenerateCatalog(clustered);
  ASSERT_TRUE(objects.ok());
  // Count objects per level-2 trixel; clustering must produce a much more
  // skewed histogram than uniform would.
  std::map<htm::HtmId, size_t> per_trixel;
  for (const auto& o : *objects) {
    ++per_trixel[htm::AncestorAt(o.htm_id, 2)];
  }
  size_t max_count = 0;
  for (const auto& [_, c] : per_trixel) max_count = std::max(max_count, c);
  // 128 level-2 trixels; uniform would put ~156 in each.
  EXPECT_GT(max_count, 1000u);
}

TEST(CatalogGenTest, RejectsBadConfig) {
  CatalogGenConfig config;
  config.num_objects = 0;
  EXPECT_FALSE(GenerateCatalog(config).ok());
  config = CatalogGenConfig{};
  config.cluster_fraction = 1.5;
  EXPECT_FALSE(GenerateCatalog(config).ok());
  config = CatalogGenConfig{};
  config.cluster_fraction = 0.5;
  config.num_clusters = 0;
  EXPECT_FALSE(GenerateCatalog(config).ok());
}

TEST(RandomPointInCapTest, StaysInsideCap) {
  Rng rng(401);
  SkyPoint center{123.0, -37.0};
  for (int i = 0; i < 2000; ++i) {
    SkyPoint p = RandomPointInCap(&rng, center, 5.0);
    EXPECT_LE(AngularSeparationDeg(center, p), 5.0 + 1e-9);
  }
}

TEST(RandomPointInCapTest, CoversTheCapArea) {
  // The sampler is area-uniform: about 3/4 of samples should lie beyond
  // half the radius (area ratio ~ (1-cos r)(3/4) for small r).
  Rng rng(409);
  SkyPoint center{10.0, 10.0};
  int outer = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    SkyPoint p = RandomPointInCap(&rng, center, 2.0);
    if (AngularSeparationDeg(center, p) > 1.0) ++outer;
  }
  EXPECT_NEAR(outer / static_cast<double>(n), 0.75, 0.03);
}

// -------------------------------------------------------------- TraceGen --

class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    CatalogGenConfig gen;
    gen.num_objects = 100'000;
    gen.seed = 17;
    auto objects = GenerateCatalog(gen);
    ASSERT_TRUE(objects.ok());
    storage::CatalogOptions options;
    options.objects_per_bucket = 1000;  // 100 buckets
    options.build_index = false;
    auto catalog = storage::Catalog::Build(std::move(*objects), options);
    ASSERT_TRUE(catalog.ok());
    catalog_ = std::move(*catalog);
  }
  std::unique_ptr<storage::Catalog> catalog_;
};

TEST_F(TraceFixture, GeneratesRequestedQueries) {
  TraceConfig config;
  config.num_queries = 200;
  config.seed = 5;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->size(), 200u);
  for (size_t i = 0; i < trace->size(); ++i) {
    const auto& q = (*trace)[i];
    EXPECT_EQ(q.id, i + 1);
    EXPECT_GE(q.objects.size(), config.min_objects_per_query);
    EXPECT_LE(q.objects.size(), config.max_objects_per_query);
    EXPECT_FALSE(q.label.empty());
  }
}

TEST_F(TraceFixture, ValidateCatchesBadConfigs) {
  TraceConfig c;
  c.num_queries = 0;
  EXPECT_FALSE(GenerateTrace(c).ok());
  c = TraceConfig{};
  c.p_hotspot = 1.2;
  EXPECT_FALSE(GenerateTrace(c).ok());
  c = TraceConfig{};
  c.min_radius_deg = 5;
  c.max_radius_deg = 1;
  EXPECT_FALSE(GenerateTrace(c).ok());
  c = TraceConfig{};
  c.max_objects_per_query = 1;
  c.min_objects_per_query = 10;
  EXPECT_FALSE(GenerateTrace(c).ok());
  // A trace too large to hold is refused by Validate, before anything is
  // reserved; the error names the bound.
  c = TraceConfig{};
  c.num_queries = kMaxTraceQueries;
  EXPECT_TRUE(c.Validate().ok());
  c.num_queries = 1'000'000'000'000;
  Status s = c.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("kMaxTraceQueries"), std::string::npos)
      << s.ToString();
}

TEST_F(TraceFixture, ReproducesFig5TopTenReuse) {
  // Paper: the top-ten buckets are accessed by ~61% of queries. Accept a
  // generous band around it; the point is strong head concentration.
  TraceConfig config;  // defaults are the calibrated ones
  config.num_queries = 500;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  double frac = TopKTouchFraction(*trace, catalog_->bucket_map(), 10);
  EXPECT_GT(frac, 0.45) << "top-10 bucket reuse too weak";
  EXPECT_LT(frac, 0.85) << "top-10 bucket reuse implausibly strong";
}

TEST_F(TraceFixture, ReproducesFig6MassConcentration) {
  // Paper: ~2% of buckets carry 50% of the workload. With 100 buckets we
  // accept 1-10%.
  TraceConfig config;
  config.num_queries = 500;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  auto touches = CharacterizeTrace(*trace, catalog_->bucket_map());
  double frac =
      BucketFractionForMass(touches, catalog_->num_buckets(), 0.5);
  EXPECT_GT(frac, 0.005);
  EXPECT_LT(frac, 0.12) << "workload mass not concentrated enough";
}

TEST_F(TraceFixture, TemporalLocalityOfBucketReuse) {
  // Consecutive queries should overlap in buckets far more often than
  // distant pairs (Fig 5's visual clustering).
  TraceConfig config;
  config.num_queries = 300;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());

  auto buckets_of = [&](const query::CrossMatchQuery& q) {
    std::set<storage::BucketIndex> out;
    for (const auto& w :
         query::SplitQueryByBucket(q, catalog_->bucket_map())) {
      out.insert(w.bucket);
    }
    return out;
  };
  auto overlaps = [&](size_t i, size_t j) {
    auto a = buckets_of((*trace)[i]);
    auto b = buckets_of((*trace)[j]);
    for (auto x : a) {
      if (b.count(x)) return true;
    }
    return false;
  };
  Rng rng(419);
  int adjacent_hits = 0, random_hits = 0;
  const int trials = 150;
  for (int t = 0; t < trials; ++t) {
    size_t i = rng.UniformU64(trace->size() - 1);
    adjacent_hits += overlaps(i, i + 1);
    size_t a = rng.UniformU64(trace->size());
    size_t b = rng.UniformU64(trace->size());
    if (a != b) random_hits += overlaps(a, b);
  }
  EXPECT_GT(adjacent_hits, random_hits)
      << "consecutive queries should share buckets more than random pairs";
}

TEST_F(TraceFixture, CharacterizeTraceSortsByMass) {
  TraceConfig config;
  config.num_queries = 100;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  auto touches = CharacterizeTrace(*trace, catalog_->bucket_map());
  ASSERT_FALSE(touches.empty());
  for (size_t i = 1; i < touches.size(); ++i) {
    EXPECT_GE(touches[i - 1].workload_objects, touches[i].workload_objects);
  }
  uint64_t total_objects = 0;
  for (const auto& t : touches) total_objects += t.workload_objects;
  uint64_t expected = 0;
  for (const auto& q : *trace) {
    for (const auto& w :
         query::SplitQueryByBucket(q, catalog_->bucket_map())) {
      expected += w.objects.size();
    }
  }
  EXPECT_EQ(total_objects, expected);
}

TEST_F(TraceFixture, PSmallZeroIsByteIdenticalToLegacyTrace) {
  // p_small = 0 draws nothing extra from the rng, so the bimodal-mix knob
  // at its default must reproduce pre-mix traces exactly.
  TraceConfig legacy;
  legacy.num_queries = 120;
  TraceConfig mixed = legacy;
  mixed.p_small = 0.0;
  mixed.small_max_radius_deg = 2.0;  // irrelevant while p_small == 0
  auto a = GenerateTrace(legacy);
  auto b = GenerateTrace(mixed);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    ASSERT_EQ((*a)[i].objects.size(), (*b)[i].objects.size()) << i;
    for (size_t j = 0; j < (*a)[i].objects.size(); ++j) {
      EXPECT_EQ((*a)[i].objects[j].ra_deg, (*b)[i].objects[j].ra_deg);
      EXPECT_EQ((*a)[i].objects[j].dec_deg, (*b)[i].objects[j].dec_deg);
    }
  }
}

TEST_F(TraceFixture, PSmallBiasesTowardSmallFootprints) {
  // With most queries drawn from the small mode the mean footprint (query
  // objects, and with it bucket fan-out) must drop well below the
  // unimodal trace's.
  TraceConfig wide;
  wide.num_queries = 300;
  TraceConfig mixed = wide;
  mixed.p_small = 0.9;
  mixed.small_max_radius_deg = 1.0;
  auto a = GenerateTrace(wide);
  auto b = GenerateTrace(mixed);
  ASSERT_TRUE(a.ok() && b.ok());
  auto mean_objects = [](const std::vector<query::CrossMatchQuery>& t) {
    double sum = 0.0;
    for (const auto& q : t) sum += static_cast<double>(q.objects.size());
    return sum / static_cast<double>(t.size());
  };
  EXPECT_LT(mean_objects(*b), 0.5 * mean_objects(*a));
}

TEST_F(TraceFixture, PSmallValidation) {
  TraceConfig c;
  c.p_small = -0.1;
  EXPECT_FALSE(GenerateTrace(c).ok());
  c = TraceConfig{};
  c.p_small = 1.1;
  EXPECT_FALSE(GenerateTrace(c).ok());
  // small_max_radius must stay inside [min_radius, max_radius] when the
  // small mode is live.
  c = TraceConfig{};
  c.p_small = 0.5;
  c.small_max_radius_deg = 0.1;  // below min_radius_deg = 0.4
  EXPECT_FALSE(GenerateTrace(c).ok());
  c.small_max_radius_deg = 100.0;  // above max_radius_deg
  EXPECT_FALSE(GenerateTrace(c).ok());
  c.small_max_radius_deg = 1.0;
  EXPECT_TRUE(GenerateTrace(c).ok());
}

TEST_F(TraceFixture, SkewPresetsOrderConcentration) {
  // The scenario matrix's skew axis: hotspot concentration must rise
  // monotonically from kUniform through kDefault to kExtreme, measured as
  // the fraction of queries touching the ten most-reused buckets.
  auto frac_for = [&](SkewLevel level) {
    auto trace = GenerateTrace(SkewedTracePreset(level, 400, 31));
    EXPECT_TRUE(trace.ok());
    return TopKTouchFraction(*trace, catalog_->bucket_map(), 10);
  };
  double uniform = frac_for(SkewLevel::kUniform);
  double fallback = frac_for(SkewLevel::kDefault);
  double extreme = frac_for(SkewLevel::kExtreme);
  EXPECT_LT(uniform, fallback);
  EXPECT_LT(fallback, extreme);
  EXPECT_GT(extreme, 0.9) << "extreme skew should touch the head constantly";
}

TEST(SkewPresetTest, NamesAndPassthrough) {
  EXPECT_STREQ(SkewLevelName(SkewLevel::kUniform), "uniform");
  EXPECT_STREQ(SkewLevelName(SkewLevel::kDefault), "default");
  EXPECT_STREQ(SkewLevelName(SkewLevel::kExtreme), "extreme");
  TraceConfig c = SkewedTracePreset(SkewLevel::kDefault, 77, 5);
  EXPECT_EQ(c.num_queries, 77u);
  EXPECT_EQ(c.seed, 5u);
  // kDefault is exactly the calibrated default hotspot model.
  TraceConfig d;
  EXPECT_EQ(c.num_hotspots, d.num_hotspots);
  EXPECT_EQ(c.zipf_s, d.zipf_s);
  EXPECT_EQ(c.p_hotspot, d.p_hotspot);
  EXPECT_EQ(c.p_stay, d.p_stay);
  // kUniform turns the hotspot pull off entirely.
  TraceConfig u = SkewedTracePreset(SkewLevel::kUniform, 77, 5);
  EXPECT_EQ(u.p_hotspot, 0.0);
  EXPECT_EQ(u.p_stay, 0.0);
}

TEST(BucketFractionForMassTest, HandCheckedExample) {
  std::vector<BucketTouch> touches = {
      {0, 1, 500}, {1, 1, 300}, {2, 1, 150}, {3, 1, 50}};
  // 50% of 1000 = 500: first bucket suffices -> 1/10 buckets.
  EXPECT_DOUBLE_EQ(BucketFractionForMass(touches, 10, 0.5), 0.1);
  // 90% needs 500+300+150 = 950 >= 900 -> 3 buckets.
  EXPECT_DOUBLE_EQ(BucketFractionForMass(touches, 10, 0.9), 0.3);
  EXPECT_EQ(BucketFractionForMass({}, 10, 0.5), 0.0);
  EXPECT_EQ(BucketFractionForMass(touches, 0, 0.5), 0.0);
}

// --------------------------------------------------------------- TraceIO --

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("liferaft_trace_test_" + std::to_string(::getpid()) + ".lft");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(TraceIoTest, RoundTrip) {
  TraceConfig config;
  config.num_queries = 50;
  config.seed = 77;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  (*trace)[3].arrival_ms = 1234.5;

  ASSERT_TRUE(SaveTrace(path_.string(), *trace).ok());
  auto loaded = LoadTrace(path_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), trace->size());
  for (size_t i = 0; i < trace->size(); ++i) {
    const auto& a = (*trace)[i];
    const auto& b = (*loaded)[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_DOUBLE_EQ(a.arrival_ms, b.arrival_ms);
    EXPECT_EQ(a.label, b.label);
    EXPECT_FLOAT_EQ(a.predicate.max_mag, b.predicate.max_mag);
    ASSERT_EQ(a.objects.size(), b.objects.size());
    for (size_t j = 0; j < a.objects.size(); ++j) {
      EXPECT_EQ(a.objects[j].id, b.objects[j].id);
      EXPECT_DOUBLE_EQ(a.objects[j].ra_deg, b.objects[j].ra_deg);
      EXPECT_DOUBLE_EQ(a.objects[j].dec_deg, b.objects[j].dec_deg);
      EXPECT_DOUBLE_EQ(a.objects[j].radius_arcsec,
                       b.objects[j].radius_arcsec);
      // Covers are recomputed deterministically.
      EXPECT_EQ(a.objects[j].htm_ranges.ToString(),
                b.objects[j].htm_ranges.ToString());
    }
  }
}

TEST_F(TraceIoTest, SkewedMixedTraceRoundTripsExactly) {
  // The scenario matrix persists skew-preset traces with the bimodal QoS
  // mix live; the new generator paths must survive the format round trip
  // object for object.
  TraceConfig config = SkewedTracePreset(SkewLevel::kExtreme, 40, 19);
  config.p_small = 0.5;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(SaveTrace(path_.string(), *trace).ok());
  auto loaded = LoadTrace(path_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), trace->size());
  for (size_t i = 0; i < trace->size(); ++i) {
    const auto& a = (*trace)[i];
    const auto& b = (*loaded)[i];
    EXPECT_EQ(a.id, b.id);
    ASSERT_EQ(a.objects.size(), b.objects.size());
    for (size_t j = 0; j < a.objects.size(); ++j) {
      EXPECT_DOUBLE_EQ(a.objects[j].ra_deg, b.objects[j].ra_deg);
      EXPECT_DOUBLE_EQ(a.objects[j].dec_deg, b.objects[j].dec_deg);
    }
  }
}

TEST_F(TraceIoTest, DetectsCorruption) {
  TraceConfig config;
  config.num_queries = 10;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(SaveTrace(path_.string(), *trace).ok());
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    f.put('\x42');
  }
  auto loaded = LoadTrace(path_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(TraceIoTest, RejectsForeignFile) {
  {
    std::ofstream f(path_);
    f << "not a trace file at all, but long enough to pass size checks";
  }
  EXPECT_FALSE(LoadTrace(path_.string()).ok());
}

// Writes `payload` as a trace file with a correct checksum, so LoadTrace
// gets past the CRC and parses the counts inside.
void WriteTracePayload(const std::filesystem::path& path,
                       const std::string& payload) {
  std::string out = "LFRTRC01";
  PutFixed32(&out, Crc32(payload.data(), payload.size()));
  out += payload;
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
}

// One query's fields up to and including its object count.
std::string QueryHeader(uint32_t label_len, uint64_t n_objects) {
  std::string s;
  PutFixed64(&s, 1);          // id
  PutDouble(&s, 0.0);         // arrival_ms
  for (int i = 0; i < 4; ++i) PutFloat(&s, 0.0f);  // predicate
  PutFixed32(&s, label_len);
  s.append(label_len < 64 ? label_len : 0, 'x');
  PutFixed64(&s, n_objects);
  return s;
}

TEST_F(TraceIoTest, HugeQueryCountIsCorruption) {
  // A count of 2^61 queries with only one query's bytes behind it must be
  // rejected before anything is reserved for it.
  std::string payload;
  PutFixed64(&payload, uint64_t{1} << 61);
  payload += QueryHeader(0, 0);
  WriteTracePayload(path_, payload);
  auto loaded = LoadTrace(path_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(TraceIoTest, HugeObjectCountIsCorruption) {
  // 2^59 objects of 32 bytes each wrap a 64-bit byte count to zero.
  std::string payload;
  PutFixed64(&payload, 1);
  payload += QueryHeader(0, uint64_t{1} << 59);
  WriteTracePayload(path_, payload);
  auto loaded = LoadTrace(path_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(TraceIoTest, LabelLengthNearUint32MaxIsCorruption) {
  // A label length whose 32-bit sum with the object count's 8 bytes would
  // wrap must be checked against the bytes left in 64 bits.
  std::string payload;
  PutFixed64(&payload, 1);
  payload += QueryHeader(UINT32_MAX - 3, 0);
  WriteTracePayload(path_, payload);
  auto loaded = LoadTrace(path_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// An object the join cannot place is refused at load, naming its query
// and object, instead of failing a replay mid-run (a NaN position covers
// no HTM range) or completing its query with no work. The edges of the
// valid ranges still load.
TEST_F(TraceIoTest, OutOfRangeObjectIsCorruption) {
  TraceConfig config;
  config.num_queries = 3;
  config.min_objects_per_query = 4;
  config.max_objects_per_query = 8;
  config.seed = 81;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using query::QueryObject;
  struct Case {
    const char* name;
    double QueryObject::*field;
    double value;
  };
  const auto load_with = [&](const Case& c) {
    std::vector<query::CrossMatchQuery> mutated = *trace;
    mutated[1].objects[2].*c.field = c.value;
    EXPECT_TRUE(SaveTrace(path_.string(), mutated).ok());
    return LoadTrace(path_.string());
  };
  for (const Case& c : {Case{"ra nan", &QueryObject::ra_deg, nan},
                        Case{"ra inf", &QueryObject::ra_deg, inf},
                        Case{"dec nan", &QueryObject::dec_deg, nan},
                        Case{"dec -inf", &QueryObject::dec_deg, -inf},
                        Case{"dec 95", &QueryObject::dec_deg, 95.0},
                        Case{"dec -90.5", &QueryObject::dec_deg, -90.5},
                        Case{"radius nan", &QueryObject::radius_arcsec, nan},
                        Case{"radius inf", &QueryObject::radius_arcsec, inf},
                        Case{"radius -5", &QueryObject::radius_arcsec,
                             -5.0}}) {
    SCOPED_TRACE(c.name);
    auto loaded = load_with(c);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    const std::string named =
        "query " + std::to_string((*trace)[1].id) + " object " +
        std::to_string((*trace)[1].objects[2].id);
    EXPECT_NE(loaded.status().message().find(named), std::string::npos)
        << loaded.status().ToString();
  }
  for (const Case& c : {Case{"dec 90", &QueryObject::dec_deg, 90.0},
                        Case{"dec -90", &QueryObject::dec_deg, -90.0},
                        Case{"radius 0", &QueryObject::radius_arcsec, 0.0}}) {
    SCOPED_TRACE(c.name);
    auto loaded = load_with(c);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_FALSE((*loaded)[1].objects[2].htm_ranges.empty());
  }
}

// Every driver keys its outcomes by query id, so a trace whose ids repeat
// cannot be replayed: LoadTrace refuses it, naming the id.
TEST_F(TraceIoTest, DuplicateQueryIdIsCorruption) {
  TraceConfig config;
  config.num_queries = 6;
  config.seed = 9;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  (*trace)[3].id = (*trace)[2].id;
  ASSERT_TRUE(SaveTrace(path_.string(), *trace).ok());
  auto loaded = LoadTrace(path_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find(
                "duplicate query id " + std::to_string((*trace)[2].id)),
            std::string::npos)
      << loaded.status().ToString();
}

// LoadTrace parses an untrusted file, so no mutant of a saved trace may
// crash or throw: it loads, or it fails with Corruption. Mutations: bit
// flips anywhere, the query count or one query's object count or label
// length rewritten, one object's ra, dec or radius set to NaN, ±inf, a
// value just out of range or one at the edge of its range, and
// truncation. Seven mutants in eight get the payload crc recomputed, so
// the parse behind the crc runs. A trace that loads must have distinct
// query ids, and every object in it must be finite, in range and cover
// at least one HTM range. tools/ci.sh --asan runs this, where a read past
// the buffer traps.
TEST(TraceIoMutationTest, MutantsLoadOrFailWithCorruption) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("liferaft_trace_mutants_" + std::to_string(::getpid()) + ".lft");
  TraceConfig config;
  config.num_queries = 6;
  config.min_objects_per_query = 4;
  config.max_objects_per_query = 12;
  config.seed = 1237;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(SaveTrace(path.string(), *trace).ok());
  std::string intact;
  {
    std::ifstream f(path, std::ios::binary);
    intact.assign(std::istreambuf_iterator<char>(f), {});
  }
  constexpr size_t kHeader = 8 + 4;  // magic, payload crc

  // Where each query's label length and object count sit, and each
  // object's ra, walking the intact file's layout.
  std::vector<size_t> label_at;
  std::vector<size_t> count_at;
  std::vector<size_t> object_at;
  size_t at = kHeader + 8;
  for (const query::CrossMatchQuery& q : *trace) {
    at += 8 + 8 + 16;
    label_at.push_back(at);
    at += 4 + q.label.size();
    count_at.push_back(at);
    at += 8;
    for (size_t j = 0; j < q.objects.size(); ++j) {
      object_at.push_back(at + 8);
      at += 32;
    }
  }
  ASSERT_EQ(at, intact.size());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {nan, inf, -inf, 90.0, -90.0, 90.000001,
                           -90.000001, 0.0, -1e-9, 1e300};
  const auto poke32 = [](std::string* b, size_t pos, uint32_t v) {
    std::string field;
    PutFixed32(&field, v);
    b->replace(pos, 4, field);
  };
  const auto poke64 = [](std::string* b, size_t pos, uint64_t v) {
    std::string field;
    PutFixed64(&field, v);
    b->replace(pos, 8, field);
  };

  constexpr int kMutants = 3000;
  Rng rng(1249);
  int loaded_ok = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string bytes = intact;
    switch (rng.UniformU64(5)) {
      case 0: {  // bit flips
        const int flips = 1 + static_cast<int>(rng.UniformU64(4));
        for (int e = 0; e < flips; ++e) {
          bytes[rng.UniformU64(bytes.size())] ^=
              static_cast<char>(1 << rng.UniformU64(8));
        }
        break;
      }
      case 1: {  // the query count or one object count, nudged or anything
        const size_t pos = rng.Bernoulli(0.3)
                               ? kHeader
                               : count_at[rng.UniformU64(count_at.size())];
        const uint64_t count = GetFixed64(bytes.data() + pos);
        poke64(&bytes, pos,
               rng.Bernoulli(0.5)
                   ? count + static_cast<uint64_t>(rng.UniformInt(-2, 2))
                   : rng.Next() >> (8 * rng.UniformU64(8)));
        break;
      }
      case 2: {  // one label length, nudged or anything
        const size_t pos = label_at[rng.UniformU64(label_at.size())];
        const uint32_t len = GetFixed32(bytes.data() + pos);
        poke32(&bytes, pos,
               rng.Bernoulli(0.5)
                   ? len + static_cast<uint32_t>(rng.UniformInt(-2, 2))
                   : static_cast<uint32_t>(rng.Next()));
        break;
      }
      case 3: {  // one object's ra, dec or radius
        const size_t pos = object_at[rng.UniformU64(object_at.size())] +
                           8 * rng.UniformU64(3);
        std::string field;
        PutDouble(&field, values[rng.UniformU64(std::size(values))]);
        bytes.replace(pos, 8, field);
        break;
      }
      default:  // truncation
        bytes.resize(rng.UniformU64(bytes.size()));
        break;
    }
    if (bytes.size() >= kHeader && rng.UniformU64(8) != 0) {
      poke32(&bytes, 8,
             Crc32(bytes.data() + kHeader, bytes.size() - kHeader));
    }
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    SCOPED_TRACE("mutant " + std::to_string(m));
    auto loaded = LoadTrace(path.string());
    if (!loaded.ok()) {
      ASSERT_EQ(loaded.status().code(), StatusCode::kCorruption)
          << loaded.status().ToString();
      continue;
    }
    ++loaded_ok;
    std::set<query::QueryId> ids;
    for (const query::CrossMatchQuery& q : *loaded) {
      ASSERT_TRUE(ids.insert(q.id).second) << "query " << q.id;
      for (const query::QueryObject& o : q.objects) {
        ASSERT_TRUE(std::isfinite(o.ra_deg) && std::isfinite(o.dec_deg) &&
                    std::isfinite(o.radius_arcsec))
            << "query " << q.id << " object " << o.id;
        ASSERT_LE(std::abs(o.dec_deg), 90.0);
        ASSERT_GE(o.radius_arcsec, 0.0);
        ASSERT_FALSE(o.htm_ranges.empty())
            << "query " << q.id << " object " << o.id;
      }
    }
  }
  std::filesystem::remove(path);
  // Both outcomes occur: mutants load, and mutants are refused.
  EXPECT_GT(loaded_ok, 0);
  EXPECT_LT(loaded_ok, kMutants);
}

TEST_F(TraceIoTest, MissingFileIsIOError) {
  auto loaded = LoadTrace("/nonexistent/liferaft.trace");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace liferaft::workload
