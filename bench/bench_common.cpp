#include "bench_common.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <tuple>

#include "analysis/report.hpp"
#include "analysis/trace_view.hpp"
#include "common/expect.hpp"
#include "common/profile.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/neighborhood.hpp"
#include "scenario/artifacts.hpp"
#include "sweep/engine.hpp"

namespace autopipe::bench {

namespace {
std::string g_trace_path;
std::string g_metrics_path;
std::string g_ledger_path;
std::string g_timeseries_path;
double g_timeseries_interval = 1.0;
std::string g_profile_path;
std::size_t g_jobs = 1;
}  // namespace

void parse_common_flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--trace=", 0) == 0) {
      g_trace_path = a.substr(8);
    } else if (a == "--trace" && i + 1 < argc) {
      g_trace_path = argv[++i];
    } else if (a.rfind("--metrics=", 0) == 0) {
      g_metrics_path = a.substr(10);
    } else if (a == "--metrics" && i + 1 < argc) {
      g_metrics_path = argv[++i];
    } else if (a.rfind("--ledger=", 0) == 0) {
      g_ledger_path = a.substr(9);
    } else if (a == "--ledger" && i + 1 < argc) {
      g_ledger_path = argv[++i];
    } else if (a.rfind("--timeseries=", 0) == 0) {
      std::tie(g_timeseries_path, g_timeseries_interval) =
          scenario::split_timeseries_arg(a.substr(13));
    } else if (a == "--timeseries" && i + 1 < argc) {
      std::tie(g_timeseries_path, g_timeseries_interval) =
          scenario::split_timeseries_arg(argv[++i]);
    } else if (a.rfind("--profile=", 0) == 0) {
      g_profile_path = a.substr(10);
    } else if (a == "--profile" && i + 1 < argc) {
      g_profile_path = argv[++i];
    } else if (a.rfind("--jobs=", 0) == 0) {
      g_jobs = static_cast<std::size_t>(
          std::strtoull(a.c_str() + 7, nullptr, 10));
    } else if (a == "--jobs" && i + 1 < argc) {
      g_jobs = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 10));
    }
  }
  if (!g_profile_path.empty()) {
    prof::reset();
    prof::set_enabled(true);
  }
}

std::size_t jobs() { return g_jobs; }

void for_each_scenario(std::size_t count,
                       const std::function<void(std::size_t)>& body) {
  sweep::run_indexed(count, g_jobs, body);
}

const std::string& trace_path() { return g_trace_path; }

const std::string& metrics_path() { return g_metrics_path; }

const std::string& ledger_path() { return g_ledger_path; }

const std::string& timeseries_path() { return g_timeseries_path; }

double timeseries_interval() { return g_timeseries_interval; }

const std::string& profile_path() { return g_profile_path; }

std::string scenario_path(const std::string& base,
                          const std::string& scenario) {
  if (scenario.empty()) return base;
  std::string label = scenario;
  for (char& c : label) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '_' && c != '-') {
      c = '_';
    }
  }
  const std::size_t dot = base.rfind('.');
  const std::size_t slash = base.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + "." + label;  // no extension to splice around
  }
  return base.substr(0, dot) + "." + label + base.substr(dot);
}

std::vector<sim::WorkerId> Testbed::all_workers() const {
  return scenario::all_workers(*cluster);
}

Testbed make_testbed(double bandwidth_gbps) {
  scenario::Spec spec;
  spec.cluster.nic_bandwidth = gbps(bandwidth_gbps);
  spec.sinks.trace = !g_trace_path.empty();
  spec.sinks.ledger = !g_ledger_path.empty();
  if (!g_timeseries_path.empty())
    spec.sinks.timeseries_interval = g_timeseries_interval;
  Testbed t;
  t.world = std::make_unique<scenario::World>(std::move(spec));
  t.simulator = &t.world->simulator();
  t.cluster = &t.world->cluster();
  return t;
}

void add_shared_jobs(Testbed& testbed, int extra_jobs) {
  AUTOPIPE_EXPECT(extra_jobs >= 0);
  sim::Cluster& cluster = *testbed.cluster;
  const std::size_t gpus = cluster.config().gpus_per_server;
  // Co-located jobs land where the scheduler packs them, not uniformly:
  // job j occupies a contiguous block of 60% of the GPUs (offset per job)
  // and runs elephant flows between the servers it spans. The resulting
  // per-worker heterogeneity is exactly what PipeDream's exclusive-GPU,
  // uniform-bandwidth profile cannot see (Observation 2).
  const std::size_t total = cluster.num_workers();
  const std::size_t span = (total * 3 + 4) / 5;  // 60%, rounded up
  for (int j = 0; j < extra_jobs; ++j) {
    const std::size_t offset = (static_cast<std::size_t>(j) * 2 + 3) % total;
    for (std::size_t i = 0; i < span; ++i) {
      const sim::WorkerId w = (offset + i) % total;
      cluster.add_background_job(w);
    }
    const std::size_t first_server = offset / gpus;
    const std::size_t last_server = ((offset + span - 1) % total) / gpus;
    cluster.transfer(first_server * gpus, last_server * gpus, 1e18, nullptr);
    cluster.transfer(last_server * gpus, first_server * gpus, 1e18, nullptr);
  }
}

partition::PlanResult plan_pipedream(const Testbed& testbed,
                                     const models::ModelSpec& model,
                                     const comm::FrameworkProfile& framework,
                                     comm::SyncScheme scheme) {
  const auto env = partition::EnvironmentView::from_cluster(
      *testbed.cluster, framework, scheme);
  partition::PipeDreamPlanner planner(
      model, env, model.default_batch_size(),
      partition::PipeDreamPlanner::Mode::kPipeDream);
  return planner.plan(testbed.cluster->num_workers());
}

partition::PlanResult plan_current(const Testbed& testbed,
                                   const models::ModelSpec& model,
                                   const comm::FrameworkProfile& framework,
                                   comm::SyncScheme scheme) {
  const auto env = partition::EnvironmentView::from_cluster(
      *testbed.cluster, framework, scheme);
  partition::PipeDreamPlanner planner(
      model, env, model.default_batch_size(),
      partition::PipeDreamPlanner::Mode::kCurrentEnvironment);
  return planner.plan(testbed.cluster->num_workers());
}

partition::PlanResult plan_refined(const Testbed& testbed,
                                   const models::ModelSpec& model,
                                   const comm::FrameworkProfile& framework,
                                   comm::SyncScheme scheme) {
  const auto env = partition::EnvironmentView::from_cluster(
      *testbed.cluster, framework, scheme);
  partition::PlanResult plan = plan_current(testbed, model, framework, scheme);
  partition::Descent refined =
      partition::descend(model, std::move(plan.partition), env,
                         model.default_batch_size(), 50);
  plan.partition = std::move(refined.partition);
  plan.in_flight = partition::optimal_in_flight(plan.partition);
  plan.predicted_batch_time = refined.batch_time;
  return plan;
}

void write_run_outputs(const scenario::World& world,
                       const std::string& label) {
  const sim::Simulator& simulator = world.simulator();
  // Benches run many scenarios on separate worlds; a labelled run gets its
  // own <base>.<label>.* files, an unlabelled one overwrites the given path.
  const auto path = [&label](const std::string& base) {
    return base.empty() ? base : scenario_path(base, label);
  };
  scenario::OutputPaths paths;
  paths.trace = path(g_trace_path);
  paths.metrics = path(g_metrics_path);
  paths.ledger = path(g_ledger_path);
  paths.timeseries = path(g_timeseries_path);
  scenario::write_outputs(simulator, paths);

  if (!paths.trace.empty()) {
    std::cout << "trace: " << simulator.tracer().size() << " events -> "
              << paths.trace << "\n";
    TextTable metrics_table({"metric", "value"});
    for (const auto& [name, value] : simulator.metrics().all())
      metrics_table.add_row({name, TextTable::num(value, 3)});
    if (!simulator.metrics().all().empty())
      metrics_table.print(std::cout, "run metrics");

    // The analyzer runs straight off the in-memory recorder, so every
    // traced bench run reports where its GPU seconds went.
    const analysis::TraceView view(simulator.tracer().events());
    const analysis::RunAnalysis breakdown = analysis::analyze(view);
    std::cout << render_bubbles_text(breakdown) << '\n'
              << render_critical_path_text(breakdown, 5);
  }
  if (!paths.metrics.empty()) {
    std::cout << "metrics: " << simulator.metrics().flattened().size()
              << " values -> " << paths.metrics << "\n";
  }
  if (!paths.ledger.empty()) {
    std::cout << "ledger: " << simulator.ledger().size() << " decisions -> "
              << paths.ledger << "\n";
  }
  if (!paths.timeseries.empty()) {
    std::cout << "timeseries: " << simulator.timeseries().size()
              << " samples -> " << paths.timeseries << "\n";
  }
}

const pipeline::ExecutionReport& run_job(Testbed& testbed, scenario::Job job,
                                         const sim::ResourceTrace* trace,
                                         const std::string& label) {
  scenario::World& world = *testbed.world;
  world.launch(std::move(job));
  world.set_resource_trace(trace);
  world.run();
  write_run_outputs(world, label);
  return world.report();
}

RunResult run_pipeline(Testbed& testbed, const models::ModelSpec& model,
                       const partition::Partition& partition,
                       const RunOptions& options) {
  scenario::Job job;
  job.model = model;
  job.partition = partition;
  job.executor.framework = options.framework;
  job.executor.sync_scheme = options.scheme;
  job.executor.mode = options.mode;
  job.executor.micro_batches = options.micro_batches;
  if (options.autopipe) {
    core::ControllerConfig cc = scenario::default_controller();
    cc.decision_interval = options.decision_interval;
    // Predicted gains below this floor are not worth a migration; measured
    // validation reverts mispredicted switches.
    cc.candidate_gain_floor = 0.02;
    cc.replan_on_change = true;
    // Figure runs are fault-free, so the stall watchdog has nothing to
    // catch; leaving it off keeps watchdog ticks out of their event stream.
    cc.enable_watchdog = false;
    job.controller = cc;
  }
  job.iterations = options.iterations;
  job.warmup = options.warmup;

  const pipeline::ExecutionReport& report =
      run_job(testbed, std::move(job), options.trace, options.scenario);
  const pipeline::PipelineExecutor& executor = testbed.world->executor();
  RunResult result;
  result.throughput = report.throughput;
  result.per_iteration = report.iteration_throughput;
  result.end_times = report.iteration_end_times;
  result.batch = executor.batch_size();
  result.switches = executor.switches_performed();
  result.utilization = report.worker_utilization;
  return result;
}

double RunResult::window_mean(std::size_t lo, std::size_t hi) const {
  AUTOPIPE_EXPECT(lo < hi && hi <= end_times.size());
  const double start = lo == 0 ? 0.0 : end_times[lo - 1];
  const double span = end_times[hi - 1] - start;
  AUTOPIPE_EXPECT(span > 0.0);
  return static_cast<double>((hi - lo) * batch) / span;
}

double run_baseline(Testbed& testbed, const models::ModelSpec& model,
                    const RunOptions& options) {
  baselines::DataParallelConfig config;
  config.framework = options.framework;
  config.sync_scheme = options.scheme;
  return baselines::run_data_parallel(
             *testbed.cluster, model, testbed.all_workers(),
             options.iterations, options.warmup, config)
      .throughput;
}

double speedup_pct(double a, double b) {
  AUTOPIPE_EXPECT(b > 0.0);
  return (a / b - 1.0) * 100.0;
}

namespace {
// Atomic: scenario bodies may run concurrently under for_each_scenario.
std::atomic<std::size_t> g_failed_scenarios{0};
}

bool run_scenario(const std::string& label,
                  const std::function<void()>& body) {
  try {
    body();
    return true;
  } catch (const std::exception& e) {
    ++g_failed_scenarios;
    std::cerr << "scenario '" << label << "' failed: " << e.what() << "\n";
    return false;
  }
}

int exit_status() {
  if (!g_profile_path.empty()) {
    // Scenario workers joined inside for_each_scenario, so collecting the
    // profile is safe by the time main() asks for its exit code.
    try {
      const auto profiles = scenario::write_profile(g_profile_path);
      std::cout << "profile: " << profiles.size() << " thread(s) -> "
                << g_profile_path << "\n";
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
    }
    g_profile_path.clear();  // idempotent if called twice
  }
  return g_failed_scenarios == 0 ? 0 : 1;
}

}  // namespace autopipe::bench
