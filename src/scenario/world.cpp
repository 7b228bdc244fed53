#include "scenario/world.hpp"

#include <utility>

#include "common/log.hpp"
#include "common/stats.hpp"

namespace autopipe::scenario {

sim::BackgroundWorkloadConfig default_churn() {
  sim::BackgroundWorkloadConfig config;
  config.horizon = 600.0;
  return config;
}

core::ControllerConfig default_controller() {
  core::ControllerConfig config;
  config.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
  config.use_meta_network = false;
  return config;
}

std::vector<sim::WorkerId> all_workers(const sim::Cluster& cluster) {
  std::vector<sim::WorkerId> out(cluster.num_workers());
  for (sim::WorkerId w = 0; w < out.size(); ++w) out[w] = w;
  return out;
}

World::World(Spec spec) : spec_(std::move(spec)) {
  simulator_ = std::make_unique<sim::Simulator>();
  if (spec_.sinks.trace) simulator_->tracer().set_enabled(true);
  if (spec_.sinks.ledger) simulator_->ledger().set_enabled(true);
  if (spec_.sinks.timeseries_interval > 0.0)
    simulator_->timeseries().configure(spec_.sinks.timeseries_interval);

  cluster_ = std::make_unique<sim::Cluster>(*simulator_, spec_.cluster);

  for (int j = 0; j < spec_.extra_tenants; ++j)
    for (sim::WorkerId w = 0; w < cluster_->num_workers(); ++w)
      cluster_->add_background_job(w);

  // The churn schedule is materialized at install time from an Rng seeded
  // by the spec alone.
  if (spec_.churn) {
    sim::BackgroundWorkload churn(*spec_.churn, Rng(spec_.seed));
    churn.install(*simulator_, *cluster_);
  }

  fault_plan_ = spec_.faults.empty()
                    ? spec_.fault_plan
                    : faults::parse_spec(spec_.faults,
                                         spec_.cluster.num_servers,
                                         spec_.cluster.gpus_per_server);
  if (!fault_plan_.empty()) {
    fault_plan_.install(*simulator_, *cluster_,
                        [](const faults::FaultEvent& ev) {
                          LOG_DEBUG("fault: " << ev.describe());
                        });
  }
}

World::~World() = default;

void World::launch(Job job) {
  spec_.job = std::move(job);
  launch();
}

void World::launch() {
  AUTOPIPE_EXPECT_MSG(!launched_, "scenario already launched");
  launched_ = true;

  if (!spec_.fleet.jobs.empty()) {
    cluster::assign_default_workers(spec_.fleet, cluster_->num_workers());
    manager_ = std::make_unique<cluster::JobManager>(*simulator_, *cluster_,
                                                     spec_.fleet);
    return;
  }

  const Job& job = spec_.job;
  if (!job.partition) {
    const auto env = partition::EnvironmentView::from_cluster(
        *cluster_, job.executor.framework, job.executor.sync_scheme);
    partition::PipeDreamPlanner planner(
        job.model, env, job.model.default_batch_size(), job.planner_mode);
    plan_ = planner.plan(cluster_->num_workers());
  }
  partition::Partition initial =
      job.partition ? *job.partition
      : job.even_split
          ? partition::Partition::even_split(job.model.num_layers(),
                                             all_workers(*cluster_))
          : plan_->partition;
  executor_ = std::make_unique<pipeline::PipelineExecutor>(
      *cluster_, job.model, std::move(initial), job.executor);

  if (job.controller) {
    controller_ = std::make_unique<core::AutoPipeController>(
        *cluster_, *executor_, *job.controller, job.meta, job.agent,
        job.encoder);
    controller_->attach();
  }
  executor_->set_iteration_callback([this](std::size_t iters) {
    if (resources_ != nullptr) resources_->apply_iteration(iters, *cluster_);
    if (controller_) controller_->on_iteration(iters);
    if (observer_) observer_(iters);
  });
}

Summary World::run() {
  if (!launched_) launch();
  Summary s;
  Histogram gaps;
  const auto add_gaps = [&gaps](const std::vector<double>& ends,
                                std::size_t warmup) {
    for (std::size_t i = warmup + 1; i < ends.size(); ++i)
      gaps.add(ends[i] - ends[i - 1]);
  };

  if (manager_) {
    fleet_report_ = manager_->run();
    s.throughput = fleet_report_.fleet_throughput;
    s.batch = manager_->job(0).executor->batch_size();
    for (std::size_t i = 0; i < manager_->num_jobs(); ++i) {
      const cluster::JobRuntime& job = manager_->job(i);
      s.utilization += job.report.worker_utilization;
      s.switches += job.executor->switches_performed();
      s.switch_aborts += job.executor->switches_aborted();
      add_gaps(job.report.iteration_end_times, job.spec.warmup);
    }
    s.utilization /= static_cast<double>(manager_->num_jobs());
  } else {
    report_ = executor_->run(spec_.job.iterations, spec_.job.warmup);
    s.throughput = report_.throughput;
    s.utilization = report_.worker_utilization;
    s.batch = executor_->batch_size();
    s.switches = executor_->switches_performed();
    s.switch_aborts = executor_->switches_aborted();
    add_gaps(report_.iteration_end_times, spec_.job.warmup);
  }
  s.events = simulator_->events_processed();
  if (!gaps.empty()) {
    const Histogram::Summary h = gaps.summary();
    s.iteration_p50_ms = h.p50 * 1e3;
    s.iteration_p95_ms = h.p95 * 1e3;
    s.iteration_p99_ms = h.p99 * 1e3;
  }

  // Terminal-state any decision still mid-measurement, and close the time
  // series at the final clock.
  simulator_->ledger().finalize("run_end");
  simulator_->timeseries().finalize(simulator_->now(),
                                    simulator_->metrics());
  return s;
}

}  // namespace autopipe::scenario
