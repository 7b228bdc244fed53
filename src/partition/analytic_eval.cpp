#include "partition/analytic_eval.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/expect.hpp"

namespace autopipe::partition {

StageShape stage_shape(const StageAssignment& stage,
                       const EnvironmentView& env, bool with_bandwidth) {
  StageShape shape;
  shape.first_layer = stage.first_layer;
  shape.last_layer = stage.last_layer;
  shape.min_speed = env.min_speed(stage.workers);
  shape.replication = stage.replication();
  if (with_bandwidth || shape.replication > 1)
    shape.min_bandwidth = env.min_bandwidth(stage.workers);
  return shape;
}

StageCostBreakdown stage_cost(const models::ModelSpec& model,
                              const StageShape& stage,
                              const EnvironmentView& env, std::size_t batch) {
  AUTOPIPE_EXPECT(stage.last_layer < model.num_layers());
  AUTOPIPE_EXPECT(stage.first_layer <= stage.last_layer);
  StageCostBreakdown out;
  // A replicated stage processes whole mini-batches round-robin, so the
  // per-batch compute cost is the full-stage cost at the slowest member's
  // speed, amortized by the replication factor.
  AUTOPIPE_EXPECT(stage.min_speed > 0.0);
  const Flops work =
      model.range_fwd_flops(stage.first_layer, stage.last_layer, batch) +
      model.range_bwd_flops(stage.first_layer, stage.last_layer, batch);
  // Two passes (FP and BP) of per-layer launch overhead.
  const Seconds overhead =
      2.0 * env.per_layer_overhead *
      static_cast<double>(stage.last_layer - stage.first_layer + 1);
  out.compute = work / stage.min_speed + overhead;
  if (stage.replication > 1) {
    const Bytes params =
        model.range_param_bytes(stage.first_layer, stage.last_layer);
    out.sync = comm::sync_time(env.sync_scheme, params, stage.replication,
                               stage.min_bandwidth, env.comm_efficiency);
  }
  out.effective =
      (out.compute + out.sync) / static_cast<double>(stage.replication);
  return out;
}

StageCostBreakdown stage_cost(const models::ModelSpec& model,
                              const StageAssignment& stage,
                              const EnvironmentView& env, std::size_t batch) {
  return stage_cost(model, stage_shape(stage, env, false), env, batch);
}

Seconds boundary_transfer_time(const models::ModelSpec& model,
                               const StageShape& up, const StageShape& down,
                               const EnvironmentView& env, std::size_t batch) {
  AUTOPIPE_EXPECT(up.last_layer + 1 == down.first_layer);
  const Bytes activation = model.activation_bytes(up.last_layer, batch);
  // Forward activation and backward gradient have the same size and cross
  // the same links in opposite directions; with full-duplex NICs they do
  // not contend, so the boundary's period contribution is one transfer.
  const BytesPerSec bw = std::min(up.min_bandwidth, down.min_bandwidth);
  AUTOPIPE_EXPECT(bw > 0.0);
  return activation / (bw * env.comm_efficiency);
}

Seconds boundary_transfer_time(const models::ModelSpec& model,
                               const Partition& partition,
                               std::size_t boundary_stage,
                               const EnvironmentView& env, std::size_t batch) {
  AUTOPIPE_EXPECT(boundary_stage + 1 < partition.num_stages());
  return boundary_transfer_time(
      model, stage_shape(partition.stage(boundary_stage), env, true),
      stage_shape(partition.stage(boundary_stage + 1), env, true), env,
      batch);
}

Seconds analytic_batch_time(const models::ModelSpec& model,
                            const Partition& partition,
                            const EnvironmentView& env, std::size_t batch) {
  const std::size_t n = partition.num_stages();
  std::vector<StageShape> shapes;
  shapes.reserve(n);
  for (const StageAssignment& stage : partition.stages())
    shapes.push_back(stage_shape(stage, env, n > 1));
  Seconds bottleneck = 0.0;
  for (const StageShape& shape : shapes)
    bottleneck =
        std::max(bottleneck, stage_cost(model, shape, env, batch).effective);
  for (std::size_t s = 0; s + 1 < n; ++s) {
    bottleneck = std::max(bottleneck,
                          boundary_transfer_time(model, shapes[s],
                                                 shapes[s + 1], env, batch));
  }
  return bottleneck;
}

double analytic_throughput(const models::ModelSpec& model,
                           const Partition& partition,
                           const EnvironmentView& env, std::size_t batch) {
  const Seconds t = analytic_batch_time(model, partition, env, batch);
  AUTOPIPE_EXPECT(t > 0.0);
  return static_cast<double>(batch) / t;
}

std::size_t optimal_in_flight(const Partition& partition) {
  // PipeDream's NOW = ceil(#machines / #machines in the input stage) is a
  // *per-replica* in-flight count; the executor tracks total active
  // mini-batches, so the pipeline needs NOW batches per input replica.
  const std::size_t total = partition.num_workers();
  const std::size_t first = partition.stage(0).replication();
  const std::size_t now_per_replica = (total + first - 1) / first;
  return now_per_replica * first;
}

}  // namespace autopipe::partition
