#include "exec/stack.h"

namespace liferaft::exec {

Status StackConfig::Validate() const {
  if (cache_capacity == 0) {
    return Status::InvalidArgument("cache_capacity must be positive");
  }
  if (hybrid.index_threshold < 0.0) {
    return Status::InvalidArgument("index_threshold must be >= 0");
  }
  LIFERAFT_RETURN_IF_ERROR(PipelineConfig::Validate());
  LIFERAFT_RETURN_IF_ERROR(topology.Validate());
  return disk.Validate();
}

Result<std::unique_ptr<ExecutionStack>> ExecutionStack::Create(
    const StackConfig& config, storage::Catalog* catalog,
    sched::Scheduler* scheduler, bool real_io) {
  auto stack = std::unique_ptr<ExecutionStack>(new ExecutionStack());
  LIFERAFT_ASSIGN_OR_RETURN(
      storage::StorageTopology topology,
      storage::StorageTopology::Create(catalog->num_buckets(),
                                       config.topology, config.disk));
  stack->topology_ =
      std::make_unique<storage::StorageTopology>(std::move(topology));
  // Evictions are priced by the arm that must re-read (equal disks: LRU).
  stack->cache_ = std::make_unique<storage::BucketCache>(
      catalog->store(), config.cache_capacity, stack->topology_.get());
  stack->evaluator_ = std::make_unique<join::JoinEvaluator>(
      stack->cache_.get(), catalog->index(), storage::DiskModel(config.disk),
      config.hybrid);
  stack->evaluator_->set_topology(stack->topology_.get());
  stack->manager_ =
      std::make_unique<query::WorkloadManager>(catalog->num_buckets());
  if (scheduler == nullptr) return stack;

  // Cost-based policies price T_b with the owning volume's model
  // (heterogeneous volume_disk; uniform topologies rank identically).
  scheduler->AttachTopology(stack->topology_.get());
  if (real_io) {
    stack->reader_ = catalog->store()->NewAsyncReader(stack->topology_.get());
  }
  stack->pipeline_ = std::make_unique<BatchPipeline>(
      scheduler, stack->manager_.get(), stack->evaluator_.get(), config,
      stack->topology_.get(), stack->reader_.get());
  return stack;
}

}  // namespace liferaft::exec
