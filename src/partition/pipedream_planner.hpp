// PipeDream's dynamic-programming work partitioner (Narayanan et al.,
// SOSP'19, §3.1), generalized so the same solver serves two roles:
//
//   * `Mode::kPipeDream` reproduces the original planner, including its two
//     simplifications the paper criticizes: compute speed profiled on one
//     exclusively-used GPU, and a single uniform bandwidth with ring
//     all-reduce assumed for replicated stages.
//   * `Mode::kCurrentEnvironment` is the "optimal" baseline of Figs 3-6:
//     the identical DP re-solved against the *current* environment view
//     (contended speeds, changed bandwidth, actual sync scheme).
//
// The DP minimizes the pipeline's bottleneck period:
//   A[j][m] = min( S(0..j-1, m),
//                  min_{k,m'} max( A[k][m-m'], C(k-1), S(k..j-1, m') ) )
// where S is the amortized stage cost and C a boundary transfer. One solve
// evaluates S O(L^2 N) times: S(k..j-1, m') does not depend on m, so it is
// computed once per (j, k) and reused across the sweep over m.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "models/model.hpp"
#include "partition/environment.hpp"
#include "partition/partition.hpp"

namespace autopipe::partition {

class PipeDreamPlanner {
 public:
  enum class Mode {
    kPipeDream,           ///< uniform-speed / uniform-bandwidth assumptions
    kCurrentEnvironment,  ///< plan against the full environment view
  };

  PipeDreamPlanner(const models::ModelSpec& model, EnvironmentView env,
                   std::size_t batch_size, Mode mode = Mode::kPipeDream);

  /// Solve for the best plan using at most `max_workers` workers drawn from
  /// worker ids [0, max_workers). Also permits leaving workers idle when
  /// that wins (it can, under very low bandwidth).
  PlanResult plan(std::size_t max_workers);

  /// Wall-clock time the most recent plan() spent in the DP (Fig 12).
  Seconds last_solve_seconds() const { return last_solve_seconds_; }

  Mode mode() const { return mode_; }

 private:
  /// Amortized per-batch cost of layers [first, last] replicated r ways.
  Seconds stage_time(std::size_t first, std::size_t last,
                     std::size_t replication) const;
  /// Transfer across the boundary after `layer`.
  Seconds boundary_time(std::size_t layer) const;

  const models::ModelSpec& model_;
  EnvironmentView env_;
  std::size_t batch_;
  Mode mode_;
  Seconds last_solve_seconds_ = 0.0;

  // The mode's view of the environment, fixed at construction: one compute
  // speed, one bandwidth and the weight-sync scheme every stage is costed
  // with.
  FlopsPerSec speed_ = 0.0;
  BytesPerSec bandwidth_ = 0.0;
  comm::SyncScheme scheme_ = comm::SyncScheme::kRing;

  // Prefix sums over layers for O(1) range cost queries.
  std::vector<Flops> prefix_flops_;   // fwd+bwd
  std::vector<Bytes> prefix_params_;
};

}  // namespace autopipe::partition
