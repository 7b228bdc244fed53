// Closed-form steady-state pipeline model: the per-mini-batch period of a
// 1F1B pipeline is the bottleneck over (a) every stage's compute+sync time
// amortized over its replicas and (b) every inter-stage transfer. This is
// the "integrated pipeline model" evaluated against the *full* environment
// view; feeding it PipeDream's collapsed view instead reproduces PipeDream's
// planning error.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "models/model.hpp"
#include "partition/environment.hpp"
#include "partition/partition.hpp"

namespace autopipe::partition {

struct StageCostBreakdown {
  Seconds compute = 0.0;      ///< whole-mini-batch FP+BP at the stage's speed
  Seconds sync = 0.0;         ///< weight sync across replicas (0 if r == 1)
  Seconds effective = 0.0;    ///< (compute + sync) / replication
};

/// What a stage's cost depends on: its inclusive layer range, its slowest
/// member's speed, its narrowest member's bandwidth and its replica count.
/// The stage and boundary formulas below read nothing else, so a caller
/// that knows how an edit changes these five values (MoveScorer) can cost
/// the edited stage without building it.
struct StageShape {
  std::size_t first_layer = 0;
  std::size_t last_layer = 0;
  FlopsPerSec min_speed = 0.0;
  /// Read by the sync term (replication > 1) and by boundary transfers.
  BytesPerSec min_bandwidth = 0.0;
  std::size_t replication = 1;
};

/// A stage's shape under `env`. The bandwidth is looked up only where the
/// stage's own cost reads it (replication > 1) or `with_bandwidth` asks for
/// it (a neighbouring boundary will).
StageShape stage_shape(const StageAssignment& stage,
                       const EnvironmentView& env, bool with_bandwidth);

/// Compute one stage's steady-state contribution.
StageCostBreakdown stage_cost(const models::ModelSpec& model,
                              const StageShape& stage,
                              const EnvironmentView& env, std::size_t batch);
StageCostBreakdown stage_cost(const models::ModelSpec& model,
                              const StageAssignment& stage,
                              const EnvironmentView& env, std::size_t batch);

/// Transfer time for the activation (forward) or gradient (backward)
/// crossing the boundary between stage `up` and the stage `down` after it,
/// at the bandwidth between the two stages' workers.
Seconds boundary_transfer_time(const models::ModelSpec& model,
                               const StageShape& up, const StageShape& down,
                               const EnvironmentView& env, std::size_t batch);
Seconds boundary_transfer_time(const models::ModelSpec& model,
                               const Partition& partition,
                               std::size_t boundary_stage,
                               const EnvironmentView& env, std::size_t batch);

/// Steady-state seconds per mini-batch for the whole pipeline: the maximum
/// over stage costs and boundary transfers.
Seconds analytic_batch_time(const models::ModelSpec& model,
                            const Partition& partition,
                            const EnvironmentView& env, std::size_t batch);

/// Images (samples) per second implied by analytic_batch_time.
double analytic_throughput(const models::ModelSpec& model,
                           const Partition& partition,
                           const EnvironmentView& env, std::size_t batch);

/// PipeDream's NOW: in-flight mini-batches to fill the pipeline,
/// ceil(total workers / replication of the input stage).
std::size_t optimal_in_flight(const Partition& partition);

}  // namespace autopipe::partition
