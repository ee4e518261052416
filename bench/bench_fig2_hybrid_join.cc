// Reproduces Figure 2: speed-up of the non-indexed sequential scan over the
// indexed join as a function of the workload-queue/bucket size ratio, on
// the paper's 40 MB / 10,000-object bucket.
//
//   Paper shapes to verify:
//   * break-even at a queue of ~3% of the bucket size;
//   * up to a ~20x gap at the extremes.
//
// Costs are the disk model's (the paper's empirically derived T_b and T_m,
// plus the calibrated per-probe cost); both joins also *execute* against a
// real bucket so the measured probe/candidate counts back the model.

#include <cmath>

#include "bench/bench_common.h"
#include "join/hybrid.h"
#include "join/indexed_join.h"
#include "join/merge_join.h"
#include "query/query.h"
#include "storage/btree.h"
#include "storage/partitioner.h"

namespace liferaft::bench {
namespace {

void Run() {
  Banner("Figure 2: non-indexed scan vs. spatial index by queue/bucket ratio");

  // One paper-sized bucket: 10,000 objects in a compact sky region.
  const size_t kBucketObjects = 10'000;
  Rng rng(2003);
  SkyPoint center{180.0, 0.0};
  std::vector<storage::CatalogObject> objects;
  objects.reserve(kBucketObjects);
  for (size_t i = 0; i < kBucketObjects; ++i) {
    objects.push_back(storage::MakeObject(
        i, workload::RandomPointInCap(&rng, center, 2.0), 18.0f, 0.5f));
  }
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  auto page = storage::ColumnarPage::Encode(
      htm::IdRange{htm::LevelMin(htm::kObjectLevel),
                   htm::LevelMax(htm::kObjectLevel)},
      objects);
  if (!page.ok()) std::exit(1);
  const storage::Bucket bucket(0, std::move(*page));
  auto index = storage::BTreeIndex::BulkLoad(objects);
  if (!index.ok()) std::exit(1);

  storage::DiskModel model;
  const uint64_t bucket_bytes = kBucketObjects * storage::Bucket::kBytesPerObject;
  std::printf("bucket: %zu objects, %.0f MB, T_b = %.2f s, probe = %.2f ms\n",
              kBucketObjects, bucket_bytes / (1024.0 * 1024.0),
              model.SequentialReadMs(bucket_bytes) / 1000.0,
              model.params().index_probe_ms);

  Table table({"queue_ratio", "queue_objects", "scan_ms", "indexed_ms",
               "speedup_scan_over_index", "probes", "leaves"});
  double prev_speedup = 0.0;
  double break_even = 0.0;
  for (double ratio : {0.001, 0.002, 0.005, 0.01, 0.02, 0.03, 0.05, 0.1,
                       0.2, 0.5, 1.0}) {
    auto queue_objects =
        std::max<uint64_t>(1, static_cast<uint64_t>(ratio * kBucketObjects));
    // Build the workload entry: objects planted near catalog objects so
    // the joins do real match work.
    query::WorkloadEntry entry;
    entry.query_id = 1;
    for (uint64_t i = 0; i < queue_objects; ++i) {
      const auto& co = objects[rng.UniformU64(objects.size())];
      entry.objects.push_back(
          query::MakeQueryObject(i, SkyPoint{co.ra_deg, co.dec_deg}, 3.0));
    }
    const std::vector<query::WorkloadEntry> batch = {entry};

    join::MergeCrossMatch(bucket, batch, nullptr);
    auto indexed_counters =
        join::IndexedCrossMatch(*index, bucket.range(), batch, nullptr);

    double scan_ms = model.ScanJoinMs(bucket_bytes, queue_objects, false);
    double indexed_ms = model.IndexedJoinMs(queue_objects);
    double speedup = indexed_ms / scan_ms;
    if (prev_speedup < 1.0 && speedup >= 1.0) break_even = ratio;
    prev_speedup = speedup;

    table.AddRow({Table::Num(ratio, 3), std::to_string(queue_objects),
                  Table::Num(scan_ms, 1), Table::Num(indexed_ms, 1),
                  Table::Num(speedup, 2),
                  std::to_string(indexed_counters.probes),
                  std::to_string(indexed_counters.leaves_visited)});
  }
  std::printf("%s\n", table.ToText().c_str());
  (void)table.WriteCsv("fig2_hybrid_join.csv");

  double model_break_even = join::BreakEvenRatio(model, kBucketObjects);
  std::printf("observed break-even ratio: ~%.3f (paper: ~0.03)\n",
              break_even);
  std::printf("analytic break-even ratio: %.4f\n", model_break_even);
  std::printf("max speedup at ratio=1:    %.1fx (paper: up to ~20x)\n",
              model.IndexedJoinMs(kBucketObjects) /
                  model.ScanJoinMs(bucket_bytes, kBucketObjects, false));
}

}  // namespace
}  // namespace liferaft::bench

int main() {
  liferaft::bench::Run();
  return 0;
}
