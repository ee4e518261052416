// The execution stack of one archive, built once for both drivers
// (core::LifeRaft and sim::SimEngine): the storage topology, the bucket
// cache, the join evaluator, the workload manager, the optional measured-
// I/O reader, and the batch pipeline — the paper's Figure 3 minus the
// catalog and the scheduler, which the drivers build (or are handed)
// themselves.
//
// StackConfig declares the stack's knobs once; sim::EngineConfig and
// core::LifeRaftOptions inherit it, so both drivers validate and apply
// the same fields the same way.

#ifndef LIFERAFT_EXEC_STACK_H_
#define LIFERAFT_EXEC_STACK_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "exec/batch_pipeline.h"
#include "join/evaluator.h"
#include "join/hybrid.h"
#include "query/workload.h"
#include "sched/scheduler.h"
#include "storage/async_io.h"
#include "storage/bucket_cache.h"
#include "storage/catalog.h"
#include "storage/disk_model.h"
#include "storage/topology.h"
#include "util/status.h"

namespace liferaft::exec {

/// Knobs of the execution stack, declared once (the prefetch knobs come
/// from PipelineConfig). Defaults follow the paper's configuration.
struct StackConfig : PipelineConfig {
  /// Bucket cache capacity in buckets (paper: 20).
  size_t cache_capacity = 20;
  /// Hybrid join configuration (index threshold ~3%).
  join::HybridConfig hybrid;
  /// Disk cost model (defaults calibrated to T_b = 1.2 s, T_m = 0.13 ms).
  /// With a multi-volume topology this is the default every volume
  /// inherits unless topology.volume_disk overrides it.
  storage::DiskModelParams disk;
  /// Multi-volume storage topology (num_volumes, range/hash placement,
  /// optional per-volume disk params): each volume is an independent disk
  /// arm with its own prefetch queue and virtual busy time. The default
  /// single volume reproduces the pre-topology system byte for byte.
  /// Without a pipeline (the engine's per-query modes) it only prices
  /// per-volume T_b.
  storage::StorageTopologyConfig topology;

  Status Validate() const;
};

/// The components one driver runs, created in dependency order and
/// destroyed in reverse.
class ExecutionStack {
 public:
  /// Builds the stack over `catalog` (not owned; must outlive the stack).
  /// @param config    must Validate()
  /// @param scheduler bucket policy (not owned; must outlive the stack).
  ///                  It is attached to the topology and drives the
  ///                  pipeline. Null builds no pipeline (the engine's
  ///                  per-query modes).
  /// @param real_io   run the pipeline on the store's per-volume
  ///                  submission queues instead of the modeled oracle
  ///                  (needs a scheduler and a store that supports
  ///                  concurrent reads)
  static Result<std::unique_ptr<ExecutionStack>> Create(
      const StackConfig& config, storage::Catalog* catalog,
      sched::Scheduler* scheduler, bool real_io = false);

  ExecutionStack(const ExecutionStack&) = delete;
  ExecutionStack& operator=(const ExecutionStack&) = delete;

  const storage::StorageTopology& topology() const { return *topology_; }
  storage::BucketCache& cache() const { return *cache_; }
  join::JoinEvaluator& evaluator() const { return *evaluator_; }
  query::WorkloadManager& manager() const { return *manager_; }
  /// The measured-I/O submission queues; null on the modeled oracle.
  storage::AsyncReader* reader() const { return reader_.get(); }
  /// Null without a scheduler.
  BatchPipeline* pipeline() const { return pipeline_.get(); }

 private:
  ExecutionStack() = default;

  // Declaration order is construction order; destruction runs in reverse.
  // The topology outlives everything that routes by it (evaluator T_b,
  // reader workers, the pipeline's arms); the reader outlives the pipeline
  // that borrows it.
  std::unique_ptr<storage::StorageTopology> topology_;
  std::unique_ptr<storage::BucketCache> cache_;
  std::unique_ptr<join::JoinEvaluator> evaluator_;
  std::unique_ptr<query::WorkloadManager> manager_;
  std::unique_ptr<storage::AsyncReader> reader_;
  std::unique_ptr<BatchPipeline> pipeline_;
};

}  // namespace liferaft::exec

#endif  // LIFERAFT_EXEC_STACK_H_
