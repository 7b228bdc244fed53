#include "sweep/runner.hpp"

#include <chrono>
#include <exception>

#include "common/spec_lexer.hpp"
#include "models/zoo.hpp"
#include "pipeline/schedule.hpp"
#include "scenario/artifacts.hpp"
#include "scenario/world.hpp"

namespace autopipe::sweep {

namespace {

/// The scenario as the assembler's spec. Fleet jobs cycle the job-models
/// mix (falling back to the scenario's single model).
scenario::Spec to_scenario(const ScenarioSpec& s,
                           const ArtifactOptions& artifacts) {
  scenario::Spec spec;
  spec.cluster.num_servers = s.servers;
  spec.cluster.gpus_per_server = s.gpus_per_server;
  spec.cluster.nic_bandwidth = gbps(s.bandwidth_gbps);
  spec.extra_tenants = s.extra_jobs;
  if (s.churn) spec.churn = scenario::default_churn();
  spec.seed = s.seed;
  spec.faults = s.faults;

  if (s.jobs > 1) {
    std::vector<std::string> mix;
    for (const std::string& part : lex::split(s.job_models, '+')) {
      const std::string name = lex::trim(part);
      if (!name.empty()) mix.push_back(name);
    }
    if (mix.empty()) mix.push_back(s.model);
    spec.fleet.arbiter = s.arbiter;
    for (std::size_t k = 0; k < s.jobs; ++k) {
      cluster::JobSpec job;
      job.model = mix[k % mix.size()];
      job.iterations = s.iterations;
      job.warmup = s.warmup;
      spec.fleet.jobs.push_back(std::move(job));
    }
  } else {
    spec.job.model = models::model_by_name(s.model);
    spec.job.even_split = s.system == "even";
    spec.job.executor.mode = pipeline::schedule_by_name(s.schedule);
    spec.job.executor.micro_batches = s.micro_batches;
    if (s.system == "autopipe")
      spec.job.controller = scenario::default_controller();
    spec.job.iterations = s.iterations;
    spec.job.warmup = s.warmup;
  }

  if (!artifacts.directory.empty()) {
    spec.sinks.trace = true;
    spec.sinks.ledger = s.jobs > 1 || s.system == "autopipe";
    spec.sinks.timeseries_interval = artifacts.timeseries_interval;
  }
  return spec;
}

/// Trace, flattened metrics, and (when recorded) ledger and time series,
/// under `<directory>/<label>.*`.
void emit_artifacts(const scenario::World& world, const std::string& label,
                    const ArtifactOptions& artifacts, ScenarioResult& result) {
  const std::string base = artifacts.directory + "/" + label;
  const scenario::Sinks& sinks = world.spec().sinks;
  scenario::OutputPaths paths;
  paths.trace = base + ".trace";
  paths.metrics = base + ".metrics.json";
  if (sinks.ledger) paths.ledger = base + ".ledger";
  if (sinks.timeseries_interval > 0.0) paths.timeseries = base + ".ts";
  scenario::write_outputs(world.simulator(), paths);
  result.trace_file = paths.trace;
  result.metrics_file = paths.metrics;
  result.ledger_file = paths.ledger;
  result.timeseries_file = paths.timeseries;
}

void run_body(const ScenarioSpec& spec, const ArtifactOptions& artifacts,
              ScenarioResult& result) {
  scenario::World world(to_scenario(spec, artifacts));
  const scenario::Summary s = world.run();
  result.throughput = s.throughput;
  result.utilization = s.utilization;
  result.batch = s.batch;
  result.switches = s.switches;
  result.switch_aborts = s.switch_aborts;
  result.events = s.events;
  result.iteration_p50_ms = s.iteration_p50_ms;
  result.iteration_p95_ms = s.iteration_p95_ms;
  result.iteration_p99_ms = s.iteration_p99_ms;
  if (spec.jobs > 1) {
    const cluster::FleetReport& fleet = world.fleet_report();
    result.fleet_jain = fleet.jain;
    result.fleet_conflicts = fleet.conflicts;
    result.fleet_grants = fleet.grants;
    result.fleet_contention_aborts = fleet.contention_aborts;
    for (const auto& job : fleet.jobs)
      result.job_throughputs.push_back(job.report.throughput);
  }
  if (!artifacts.directory.empty())
    emit_artifacts(world, spec.label, artifacts, result);
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const ArtifactOptions& artifacts) {
  ScenarioResult result;
  result.spec = spec;
  const auto start = std::chrono::steady_clock::now();
  try {
    run_body(spec, artifacts, result);
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace autopipe::sweep
