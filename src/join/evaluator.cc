#include "join/evaluator.h"

#include <algorithm>
#include <cassert>
#include <future>
#include <span>

namespace liferaft::join {
namespace {

uint64_t CountObjects(const std::vector<query::WorkloadEntry>& batch) {
  uint64_t n = 0;
  for (const auto& e : batch) n += e.objects.size();
  return n;
}

/// Splits `[0, n)` into at most `parts` contiguous slices of near-equal
/// size (earlier slices get the remainder). Deterministic in (n, parts).
std::vector<std::span<const query::WorkloadEntry>> SliceBatch(
    const std::vector<query::WorkloadEntry>& batch, size_t parts) {
  std::vector<std::span<const query::WorkloadEntry>> slices;
  const size_t n = batch.size();
  parts = std::max<size_t>(std::min(parts, n), 1);
  slices.reserve(parts);
  const size_t base = n / parts;
  const size_t rem = n % parts;
  size_t offset = 0;
  for (size_t i = 0; i < parts; ++i) {
    const size_t len = base + (i < rem ? 1 : 0);
    slices.push_back(std::span<const query::WorkloadEntry>(batch).subspan(
        offset, len));
    offset += len;
  }
  return slices;
}

/// Fans `kernel(slice, out)` across the pool, one task per contiguous
/// slice of `batch`, and merges counters and matches in slice (= entry)
/// order, which makes the result identical to one serial kernel call over
/// the whole batch. Every task is drained before any exception
/// propagates: tasks reference stack-owned inputs, so unwinding while a
/// worker still runs would be a use-after-free.
template <typename Counters, typename Kernel>
Counters ParallelJoin(util::ThreadPool& pool,
                      const std::vector<query::WorkloadEntry>& batch,
                      std::vector<query::Match>* out,
                      const Kernel& kernel) {
  struct SliceResult {
    Counters counters{};
    std::vector<query::Match> matches;
  };
  const bool collect = out != nullptr;
  std::vector<std::future<SliceResult>> futures;
  try {
    auto slices = SliceBatch(batch, pool.num_threads());
    futures.reserve(slices.size());
    for (auto slice : slices) {
      futures.push_back(pool.Submit([&kernel, slice, collect] {
        SliceResult r;
        r.counters = kernel(slice, collect ? &r.matches : nullptr);
        return r;
      }));
    }
    for (auto& f : futures) f.wait();
  } catch (...) {
    for (auto& f : futures) {
      if (f.valid()) f.wait();
    }
    throw;
  }
  Counters total{};
  for (auto& f : futures) {
    SliceResult r = f.get();  // rethrows a worker's exception, post-drain
    total += r.counters;
    if (out != nullptr) {
      out->insert(out->end(), r.matches.begin(), r.matches.end());
    }
  }
  return total;
}

}  // namespace

JoinEvaluator::JoinEvaluator(storage::BucketCache* cache,
                             const storage::BTreeIndex* index,
                             storage::DiskModel model, HybridConfig config)
    : cache_(cache), index_(index), model_(model), config_(config) {
  assert(cache_ != nullptr);
}

Result<BatchResult> JoinEvaluator::EvaluateBucket(
    storage::BucketIndex bucket,
    const std::vector<query::WorkloadEntry>& batch, bool collect_matches) {
  if (batch.empty()) {
    return Status::InvalidArgument("empty batch for bucket " +
                                   std::to_string(bucket));
  }
  BatchResult result;
  const uint64_t queue_objects = CountObjects(batch);
  const bool cached = cache_->Contains(bucket);
  const uint64_t bucket_objects =
      cache_->store().BucketObjectCount(bucket);

  result.strategy =
      (index_ == nullptr)
          ? JoinStrategy::kScan
          : ChooseStrategy(config_, queue_objects, bucket_objects, cached);

  const bool parallel = pool_ != nullptr && batch.size() > 1;
  std::vector<query::Match>* out = collect_matches ? &result.matches
                                                   : nullptr;
  if (result.strategy == JoinStrategy::kScan) {
    // Pull the bucket through the cache: a miss reads from the store and
    // pays T_b; a hit pays only the in-memory matching term. The cache is
    // touched once, serially, before any fan-out.
    LIFERAFT_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Bucket> b,
                              cache_->Get(bucket));
    result.cache_hit = cached;
    // T_b from the bucket's volume (identical to model_ when the topology
    // is uniform or absent); T_m stays global — matching is CPU.
    result.io_ms = cached ? 0.0
                          : SequentialModelFor(bucket).SequentialReadMs(
                                ModeledBytes(bucket));
    result.cpu_ms = model_.MatchMs(queue_objects);
    result.cost_ms = result.io_ms + result.cpu_ms;
    if (parallel) {
      result.counters = ParallelJoin<JoinCounters>(
          *pool_, batch, out,
          [b](std::span<const query::WorkloadEntry> slice,
              std::vector<query::Match>* slice_out) {
            return MergeCrossMatch(*b, slice, slice_out);
          });
    } else {
      result.counters = MergeCrossMatch(*b, batch, out);
    }
    ++stats_.scan_batches;
  } else {
    // Indexed path: per-object random probes; the bucket itself is never
    // materialized, so the cache is untouched (the paper's age-biased
    // scheduler leans on this to serve uncached buckets cheaply). The
    // B+tree is immutable after bulk load, so concurrent probes are safe.
    const htm::IdRange range = cache_->store().bucket_map().RangeOf(bucket);
    IndexedJoinCounters counters;
    if (parallel) {
      counters = ParallelJoin<IndexedJoinCounters>(
          *pool_, batch, out,
          [this, range](std::span<const query::WorkloadEntry> slice,
                        std::vector<query::Match>* slice_out) {
            return IndexedCrossMatch(*index_, range, slice, slice_out);
          });
    } else {
      counters = IndexedCrossMatch(*index_, range, batch, out);
    }
    result.cache_hit = false;
    result.io_ms = model_.IndexedProbesMs(queue_objects);
    result.cpu_ms = model_.MatchMs(queue_objects);
    result.cost_ms = result.io_ms + result.cpu_ms;
    result.counters = counters.join;
    stats_.index_probes += counters.probes;
    ++stats_.indexed_batches;
  }
  ++stats_.batches;
  stats_.total_cost_ms += result.cost_ms;
  return result;
}

Result<std::vector<PerQueryResult>> JoinEvaluator::EvaluatePerQueryWindow(
    PerQueryMode mode, const std::vector<PerQueryWork>& window,
    bool collect_matches) {
  if (mode == PerQueryMode::kIndexProbes && index_ == nullptr) {
    return Status::FailedPrecondition("index probes require an index");
  }
  const bool parallel = pool_ != nullptr && window.size() > 1;
  // NoShare bucket reads go store-direct. In the parallel case, when the
  // store supports concurrent reads, each worker reads its own buckets one
  // at a time through ReadBucketForPrefetch — memory is bounded by the
  // buckets in flight, not the backlog — and the owner applies the
  // deferred I/O accounting per query in window order. Otherwise the owner
  // pre-reads in window order via the stats-recording ReadBucket. Either
  // way the store totals equal serial evaluation's (one read per
  // sub-query, duplicates included).
  const bool worker_reads =
      mode == PerQueryMode::kNoShareScan && parallel &&
      cache_->mutable_store()->SupportsConcurrentReads();
  std::vector<std::vector<std::shared_ptr<const storage::Bucket>>> buckets;
  if (mode == PerQueryMode::kNoShareScan && !worker_reads) {
    buckets.resize(window.size());
    for (size_t i = 0; i < window.size(); ++i) {
      buckets[i].reserve(window[i].workloads->size());
      for (const query::BucketWorkload& w : *window[i].workloads) {
        LIFERAFT_ASSIGN_OR_RETURN(
            std::shared_ptr<const storage::Bucket> b,
            cache_->mutable_store()->ReadBucket(w.bucket));
        buckets[i].push_back(std::move(b));
      }
    }
  }

  // One query's evaluation plus its deferred I/O charges.
  struct QueryEval {
    PerQueryResult result;
    uint64_t reads = 0;
    uint64_t read_bytes = 0;
    uint64_t read_objects = 0;
  };

  // Deterministic in isolation: reads only this query's (immutable) inputs,
  // so it computes the same result on any thread at any time. Materialized
  // matches are per-query scratch (counts are the result).
  auto evaluate_one = [this, mode, collect_matches, worker_reads, &window,
                       &buckets](size_t i) -> Result<QueryEval> {
    const PerQueryWork& work = window[i];
    QueryEval eval;
    std::vector<query::Match> out;
    std::vector<query::Match>* outp = collect_matches ? &out : nullptr;
    size_t wi = 0;
    for (const query::BucketWorkload& w : *work.workloads) {
      query::WorkloadEntry entry;
      entry.query_id = work.query_id;
      entry.arrival_ms = work.arrival_ms;
      entry.predicate = work.predicate;
      entry.objects = w.objects;
      const std::vector<query::WorkloadEntry> batch = {std::move(entry)};
      if (mode == PerQueryMode::kNoShareScan) {
        // Independent evaluation: no shared cache, pay full T_b + T_m.
        std::shared_ptr<const storage::Bucket> b;
        if (worker_reads) {
          LIFERAFT_ASSIGN_OR_RETURN(
              b, cache_->mutable_store()->ReadBucketForPrefetch(w.bucket));
          ++eval.reads;
          eval.read_bytes += b->EstimatedBytes();
          eval.read_objects += b->size();
        } else {
          b = buckets[i][wi];
        }
        ++wi;
        JoinCounters counters = MergeCrossMatch(*b, batch, outp);
        eval.result.matches += counters.output_matches;
        // Full T_b from the bucket's volume, T_m global (see
        // set_topology).
        eval.result.cost_ms +=
            SequentialModelFor(w.bucket)
                .SequentialReadMs(ModeledBytes(w.bucket)) +
            model_.MatchMs(w.objects.size());
        // b drops here, so a materializing store holds at most one bucket
        // per worker at a time.
      } else {
        // Legacy index-exclusive execution (paper §5): every probe pays a
        // cold root-to-leaf descent plus a heap row fetch — height + 2
        // random I/Os per probe.
        const htm::IdRange range = cache_->store().bucket_map().RangeOf(
            w.bucket);
        IndexedJoinCounters counters =
            IndexedCrossMatch(*index_, range, batch, outp);
        eval.result.matches += counters.join.output_matches;
        uint64_t ios_per_probe = static_cast<uint64_t>(index_->height()) + 2;
        eval.result.cost_ms +=
            model_.IndexedProbesMs(counters.probes * ios_per_probe) +
            model_.MatchMs(counters.join.workload_objects);
      }
    }
    return eval;
  };

  std::vector<PerQueryResult> results(window.size());
  auto commit = [this, worker_reads, &results](size_t i, QueryEval eval) {
    if (worker_reads) {
      cache_->mutable_store()->RecordPrefetchedReads(
          eval.reads, eval.read_bytes, eval.read_objects);
    }
    results[i] = eval.result;
  };
  if (!parallel) {
    for (size_t i = 0; i < window.size(); ++i) {
      LIFERAFT_ASSIGN_OR_RETURN(QueryEval eval, evaluate_one(i));
      commit(i, std::move(eval));
    }
    return results;
  }
  // One task per query; merged by submission index, so the window order
  // (and with it every downstream accounting order) is preserved. Drain
  // every task before an exception unwinds the stack the tasks reference.
  std::vector<std::future<Result<QueryEval>>> futures;
  try {
    futures.reserve(window.size());
    for (size_t i = 0; i < window.size(); ++i) {
      futures.push_back(pool_->Submit([&evaluate_one, i] {
        return evaluate_one(i);
      }));
    }
    for (auto& f : futures) f.wait();
  } catch (...) {
    for (auto& f : futures) {
      if (f.valid()) f.wait();
    }
    throw;
  }
  for (size_t i = 0; i < window.size(); ++i) {
    Result<QueryEval> eval = futures[i].get();  // rethrows worker exceptions
    if (!eval.ok()) return eval.status();
    commit(i, std::move(*eval));
  }
  return results;
}

}  // namespace liferaft::join
