// The one scenario assembler. A World builds a run from a scenario::Spec in
// a single fixed order —
//
//   simulator (sinks) → cluster → background tenants → churn → faults
//     → plan → executor → controller attach     (or the fleet JobManager)
//
// — so every caller's run schedules the same events in the same sequence
// and replays bit-for-bit. The constructor builds the shared environment
// (through faults); launch() builds the job on it. Between the two a caller
// may shape the environment (extra flows, its own planning); between
// launch() and run() it may add hooks on the exposed simulator, cluster,
// executor or controller (switch fault plans, switch triggers, probes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/job_manager.hpp"
#include "scenario/spec.hpp"
#include "sim/trace.hpp"

namespace autopipe::scenario {

/// Simulated outcomes of a finished run. Fleet runs sum throughput,
/// switches and aborts over the jobs and average utilization.
struct Summary {
  double throughput = 0.0;  ///< samples/s (simulated)
  double utilization = 0.0;
  std::size_t batch = 0;  ///< mini-batch size (the first job's in a fleet)
  std::size_t switches = 0;
  std::size_t switch_aborts = 0;
  std::uint64_t events = 0;
  /// Measured-window iteration times (each job past its warmup), in ms;
  /// zero when there are none.
  double iteration_p50_ms = 0.0;
  double iteration_p95_ms = 0.0;
  double iteration_p99_ms = 0.0;
};

/// Every worker id of the cluster, in order.
std::vector<sim::WorkerId> all_workers(const sim::Cluster& cluster);

class World {
 public:
  /// Builds the environment: simulator, cluster, tenants, churn, faults.
  explicit World(Spec spec);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Builds the job: plan → executor → controller attach for `spec.job`,
  /// or the JobManager for a fleet spec. Called by run() when not yet done.
  void launch();
  /// Replaces the spec's job, then launch().
  void launch(Job job);

  /// Applies `trace` at the iterations it names, before the controller's
  /// round (single-job runs; `trace` must outlive run()).
  void set_resource_trace(const sim::ResourceTrace* trace) {
    resources_ = trace;
  }

  /// Runs the job (or fleet) to completion, then finalizes the ledger and
  /// the time series, so every artifact is ready to write.
  Summary run();

  const Spec& spec() const { return spec_; }
  sim::Simulator& simulator() { return *simulator_; }
  const sim::Simulator& simulator() const { return *simulator_; }
  sim::Cluster& cluster() { return *cluster_; }
  const faults::FaultPlan& fault_plan() const { return fault_plan_; }

  /// Single-job runs, after launch(). The planner's plan is unset when the
  /// job's partition was given.
  const std::optional<partition::PlanResult>& plan() const { return plan_; }
  pipeline::PipelineExecutor& executor() { return *executor_; }
  /// Null when the job has no controller.
  core::AutoPipeController* controller() { return controller_.get(); }
  /// Valid after run().
  const pipeline::ExecutionReport& report() const { return report_; }

  /// Fleet runs, after launch() / run().
  cluster::JobManager& manager() { return *manager_; }
  const cluster::FleetReport& fleet_report() const { return fleet_report_; }

 private:
  Spec spec_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<sim::Cluster> cluster_;
  faults::FaultPlan fault_plan_;
  const sim::ResourceTrace* resources_ = nullptr;
  bool launched_ = false;

  std::optional<partition::PlanResult> plan_;
  std::unique_ptr<pipeline::PipelineExecutor> executor_;
  std::unique_ptr<core::AutoPipeController> controller_;
  pipeline::ExecutionReport report_;

  std::unique_ptr<cluster::JobManager> manager_;
  cluster::FleetReport fleet_report_;
};

}  // namespace autopipe::scenario
