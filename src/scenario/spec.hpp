// The one description of a simulated AutoPipe run that every tool hands
// to scenario::World: the shared cluster and its background tenants, churn
// and faults, the job (model, initial partition, executor, controller) or a
// co-tenant fleet, and which recording sinks are on. Every field here is one
// some caller varies; defaults reproduce the sweep runner's scenario.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "autopipe/controller.hpp"
#include "cluster/jobs_spec.hpp"
#include "faults/fault_plan.hpp"
#include "models/zoo.hpp"
#include "partition/pipedream_planner.hpp"
#include "pipeline/executor.hpp"
#include "sim/background.hpp"
#include "sim/cluster.hpp"

namespace autopipe::scenario {

/// Which recorders of the simulator are on for the run.
struct Sinks {
  bool trace = false;
  bool ledger = false;
  /// > 0 samples the metrics registry every this many sim-seconds.
  double timeseries_interval = 0.0;
};

/// The single training job of a run.
struct Job {
  models::ModelSpec model = models::resnet50();
  partition::PipeDreamPlanner::Mode planner_mode =
      partition::PipeDreamPlanner::Mode::kPipeDream;
  /// The initial partition when given; otherwise the planner's plan, or an
  /// even split over every worker when `even_split`.
  std::optional<partition::Partition> partition;
  bool even_split = false;
  pipeline::ExecutorConfig executor;
  /// When set, an AutoPipeController with this config is attached.
  std::optional<core::ControllerConfig> controller;
  /// The controller's learned components and feature encoder, forwarded to
  /// its constructor: a null `meta` means the analytic predictor; `agent`
  /// is required only by the RL arbiter.
  core::MetaNetwork* meta = nullptr;
  rl::DqnAgent* agent = nullptr;
  core::FeatureEncoder encoder;
  std::size_t iterations = 40;
  std::size_t warmup = 10;
};

struct Spec {
  sim::ClusterConfig cluster;
  /// Co-located tenants: each adds one background job on every worker.
  int extra_tenants = 0;
  /// Stochastic background churn, seeded by `seed`; unset = none.
  std::optional<sim::BackgroundWorkloadConfig> churn;
  std::uint64_t seed = 1;
  /// faults::parse_spec input; when empty, `fault_plan` is installed.
  std::string faults;
  faults::FaultPlan fault_plan;
  Sinks sinks;
  Job job;
  /// A non-empty job list runs this co-tenant fleet instead of `job`.
  cluster::FleetSpec fleet;
};

/// The churn shape of autopipe_sim and the sweep runner.
sim::BackgroundWorkloadConfig default_churn();

/// The controller config of autopipe_sim and the sweep runner: threshold
/// arbiter on the analytic predictor, no pre-trained networks.
core::ControllerConfig default_controller();

}  // namespace autopipe::scenario
