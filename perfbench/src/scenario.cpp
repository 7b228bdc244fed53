#include "scenario.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "analysis/json.hpp"
#include "analysis/report.hpp"
#include "analysis/trace_view.hpp"
#include "autopipe/controller.hpp"
#include "cluster/job_manager.hpp"
#include "common/profile.hpp"
#include "common/units.hpp"
#include "faults/fault_plan.hpp"
#include "models/zoo.hpp"
#include "partition/pipedream_planner.hpp"
#include "sim/background.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"

namespace perfbench {

using namespace autopipe;

namespace {

/// Time `fn` as one span named `name`, adding its duration to `acc`.
template <class Fn>
auto timed(SpanLog& log, const char* name, double& acc, Fn&& fn) {
  Scope scope(log, name);
  if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
    fn();
    acc += scope.stop();
  } else {
    auto value = fn();
    acc += scope.stop();
    return value;
  }
}

/// prof:: sites record only while one of these is alive (and the op asked
/// for profiling), so the per-event queue probes never fire in the loop.
class ProfWindow {
 public:
  explicit ProfWindow(bool on) : on_(on) {
    if (on_) prof::set_enabled(true);
  }
  ~ProfWindow() {
    if (on_) prof::set_enabled(false);
  }
  ProfWindow(const ProfWindow&) = delete;
  ProfWindow& operator=(const ProfWindow&) = delete;

 private:
  bool on_;
};

/// Exclusive time per prof:: span name. Spans are recorded when they
/// close (children before parents), each with its depth at entry.
void collect_prof(OpResult& r) {
  for (const prof::ThreadProfile& tp : prof::collect()) {
    std::vector<double> child_ns(1, 0.0);
    for (const prof::Span& s : tp.spans) {
      if (child_ns.size() < s.depth + 2) child_ns.resize(s.depth + 2, 0.0);
      const double dur = static_cast<double>(s.dur_ns);
      const double self = dur - child_ns[s.depth + 1];
      child_ns[s.depth + 1] = 0.0;
      child_ns[s.depth] += dur;
      ProfSite* site = s.name == "planner/decide_round" ? &r.decide_round
                       : s.name == "planner/replan"     ? &r.replan
                       : s.name == "planner/solve"      ? &r.solve
                                                        : nullptr;
      if (site != nullptr) {
        site->self_ns += self;
        ++site->calls;
      }
    }
    for (const prof::Aggregate& a : tp.aggregates) {
      if (a.name != "predictor/infer") continue;
      r.predictor_infer.self_ns += static_cast<double>(a.total_ns);
      r.predictor_infer.calls += a.count;
    }
  }
  prof::reset();
}

/// Write one artifact and return its size: streamed into the file (format
/// and write timed together as `format_span`), or formatted into memory
/// first and then written, timed apart as `format_span` and io.write.
template <class Format>
std::size_t emit(SpanLog& log, const char* format_span,
                 const std::string& path, bool in_memory, Format&& format,
                 double& format_s, double& io_s) {
  if (in_memory) {
    std::ostringstream text;
    timed(log, format_span, format_s, [&] { format(text); });
    const std::string body = text.str();
    timed(log, "io.write", io_s, [&] {
      std::ofstream out(path, std::ios::binary);
      out.write(body.data(), static_cast<std::streamsize>(body.size()));
      out.close();
      if (!out) throw std::runtime_error("cannot write " + path);
    });
    return body.size();
  }
  return timed(log, format_span, format_s, [&] {
    std::ofstream out(path, std::ios::binary);
    format(out);
    const auto bytes = static_cast<std::size_t>(out.tellp());
    out.close();
    if (!out) throw std::runtime_error("cannot write " + path);
    return bytes;
  });
}

/// Sinks, analysis and ledger read-out shared by single-job and fleet ops.
void finish_artifacts(sim::Simulator& simulator, const OpOptions& opt,
                      SpanLog& log, OpResult& r) {
  if (simulator.ledger().enabled()) {
    simulator.ledger().finalize("run_end");
    for (const trace::DecisionRecord& rec : simulator.ledger().records()) {
      if (rec.outcome.status == trace::OutcomeStatus::kExecuted)
        ++r.ledger_executed;
      if (rec.outcome.status == trace::OutcomeStatus::kReverted)
        ++r.ledger_reverted;
      // The controller's live calibration: the chosen action's predicted
      // speed against the speed realized over its window.
      const double realized = rec.outcome.realized_speed;
      if (realized > 0.0 && rec.chosen_pred > 0.0) {
        const double rel = (rec.chosen_pred - realized) / realized;
        r.ape_sum += std::abs(rel);
        r.bias_sum += rel;
        ++r.ape_count;
      }
    }
  }
  if (!opt.sinks) return;

  const std::string& base = opt.artifact_base;
  const bool mem = opt.traced;
  r.trace_events = simulator.tracer().size();
  r.trace_bytes =
      emit(log, "sink.trace", base + ".trace", mem,
           [&](std::ostream& os) { simulator.tracer().write_text(os); },
           r.trace_format_s, r.io_write_s);
  timed(log, "analysis.bubbles", r.bubbles_s, [&] {
    const analysis::TraceView view(simulator.tracer().events());
    if (analysis::render_bubbles_text(analysis::analyze(view)).empty())
      throw std::runtime_error("empty bubbles report");
  });
  emit(log, "sink.metrics", base + ".metrics.json", mem,
       [&](std::ostream& os) {
         analysis::write_scalar_map_json(simulator.metrics().flattened(), os);
       },
       r.metrics_format_s, r.io_write_s);
  r.ledger_records = simulator.ledger().size();
  r.ledger_bytes =
      emit(log, "sink.ledger", base + ".ledger", mem,
           [&](std::ostream& os) { simulator.ledger().write_text(os); },
           r.ledger_format_s, r.io_write_s);
  r.timeseries_bytes = emit(
      log, "sink.timeseries", base + ".ts", mem,
      [&](std::ostream& os) {
        simulator.timeseries().finalize(simulator.now(), simulator.metrics());
        simulator.timeseries().write_text(os);
      },
      r.timeseries_format_s, r.io_write_s);
  r.timeseries_rows = simulator.timeseries().size();
}

void configure_sinks(sim::Simulator& simulator, const OpOptions& opt) {
  if (opt.sinks) {
    simulator.tracer().set_enabled(true);
    simulator.ledger().set_enabled(true);
    simulator.timeseries().configure(1.0);
  } else if (opt.ledger) {
    simulator.ledger().set_enabled(true);
  }
}

/// The sweep runner's and autopipe_sim's churn shape.
sim::BackgroundWorkloadConfig churn_config() {
  sim::BackgroundWorkloadConfig config;
  config.horizon = 600.0;
  return config;
}

sim::ClusterConfig cluster_config(const Scenario& sc) {
  sim::ClusterConfig cc;
  cc.num_servers = sc.servers;
  cc.gpus_per_server = sc.gpus_per_server;
  cc.nic_bandwidth = gbps(sc.bandwidth_gbps);
  return cc;
}

/// Mini-batch conservation across faults: injected == completed + dropped
/// + in flight.
void check_executor(const pipeline::PipelineExecutor& executor,
                    const std::string& who) {
  if (!executor.weight_layout_consistent())
    throw std::runtime_error(who + ": weight layout inconsistent");
  const auto& fs = executor.fault_stats();
  if (fs.injected != fs.completed + fs.dropped + executor.active_batches()) {
    std::ostringstream os;
    os << who << ": batch conservation broken: injected " << fs.injected
       << " != completed " << fs.completed << " + dropped " << fs.dropped
       << " + active " << executor.active_batches();
    throw std::runtime_error(os.str());
  }
}

void add_gaps(const std::vector<double>& ends, std::size_t warmup,
              std::vector<double>& gaps) {
  for (std::size_t i = warmup + 1; i < ends.size(); ++i)
    gaps.push_back(ends[i] - ends[i - 1]);
}

double metric(const sim::Simulator& simulator, const char* name) {
  return simulator.metrics().has(name) ? simulator.metrics().value(name)
                                       : 0.0;
}

void run_single(const Scenario& sc, const OpOptions& opt, SpanLog& log,
                OpResult& r) {
  Scope setup(log, "setup");

  sim::Simulator simulator;
  configure_sinks(simulator, opt);
  sim::Cluster cluster(simulator, cluster_config(sc));
  sim::BackgroundWorkload churn(churn_config(), Rng(sc.seed));
  if (sc.churn) churn.install(simulator, cluster);
  faults::FaultPlan fault_plan;
  if (!sc.faults.empty()) {
    fault_plan =
        faults::parse_spec(sc.faults, sc.servers, sc.gpus_per_server);
    fault_plan.install(simulator, cluster);
  }

  const auto model = models::model_by_name(sc.model);
  const auto env = partition::EnvironmentView::from_cluster(
      cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
  partition::PipeDreamPlanner planner(model, env, model.default_batch_size());
  const auto plan = timed(log, "setup.plan", r.plan_s, [&] {
    const ProfWindow window(opt.traced);
    return planner.plan(cluster.num_workers());
  });

  pipeline::ExecutorConfig executor_config;
  executor_config.framework = comm::pytorch_profile();
  executor_config.sync_scheme = comm::SyncScheme::kRing;
  pipeline::PipelineExecutor executor(cluster, model, plan.partition,
                                      executor_config);

  std::unique_ptr<core::AutoPipeController> controller;
  if (sc.system == "autopipe") {
    core::ControllerConfig cc;
    cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
    cc.use_meta_network = false;
    controller = std::make_unique<core::AutoPipeController>(
        cluster, executor, cc, nullptr, nullptr);
    controller->attach();
  }

  sim::ResourceTrace resources;
  if (sc.bw_drop_iter > 0) {
    resources.at_iteration(sc.bw_drop_iter,
                           sim::ResourceTrace::set_all_nic_bandwidth(
                               gbps(sc.bw_drop_gbps)));
  }
  executor.set_iteration_callback([&](std::size_t iters) {
    Scope callback(log, "iteration_callback");
    {
      const Scope span(log, "sim.resource_trace");
      resources.apply_iteration(iters, cluster);
    }
    const std::size_t flows = cluster.network().active_flow_count();
    r.flows_sum += static_cast<double>(flows);
    r.flows_max = std::max(r.flows_max, flows);
    ++r.flow_samples;
    if (controller) {
      const std::size_t before = controller->stats().decisions;
      double seconds = 0.0;
      timed(log, "autopipe.on_iteration", seconds, [&] {
        const ProfWindow window(opt.traced);
        controller->on_iteration(iters);
      });
      r.round_s += seconds;
      ++r.rounds;
      if (controller->stats().decisions > before)
        r.decide_ms.push_back(seconds * 1e3);
    }
    r.callbacks_s += callback.stop();
  });
  r.setup_s = setup.stop();

  pipeline::ExecutionReport report;
  {
    Scope loop(log, "loop");
    executor.begin_run(sc.iterations, sc.warmup);
    while (!executor.run_complete()) {
      if (!simulator.step())
        throw std::runtime_error("pipeline deadlock: event queue drained");
    }
    r.loop_s = loop.stop();
    report = timed(log, "pipeline.finish_run", r.finish_s,
                   [&] { return executor.finish_run(); });
  }

  check_executor(executor, "job");
  r.events = simulator.events_processed();
  r.digest = SimDigest{report.throughput, r.events,
                       executor.switches_performed(),
                       report.iteration_end_times};
  add_gaps(report.iteration_end_times, sc.warmup, r.iteration_gaps);
  r.switch_attempts = executor.switch_attempts();
  r.switches_aborted = executor.switches_aborted();
  r.dropped_batches = metric(simulator, "executor.dropped_batches");
  r.utilization = report.worker_utilization;
  r.bytes_on_wire = report.bytes_on_wire;
  r.switch_stall_s = report.switch_stall;
  r.bubble_s = metric(simulator, "pipeline.bubble_seconds");
  r.replans = static_cast<std::size_t>(metric(simulator, "controller.replans"));
  if (controller) {
    r.decisions = controller->stats().decisions;
    r.emergency_replans = controller->stats().emergency_replans;
  }
  finish_artifacts(simulator, opt, log, r);
}

/// Fleet assembly, mirroring the sweep runner's co-tenant scenario.
void run_fleet(const Scenario& sc, const OpOptions& opt, SpanLog& log,
               OpResult& r) {
  r.fleet = true;
  Scope setup(log, "setup");

  sim::Simulator simulator;
  configure_sinks(simulator, opt);
  sim::Cluster cluster(simulator, cluster_config(sc));
  sim::BackgroundWorkload churn(churn_config(), Rng(sc.seed));
  if (sc.churn) churn.install(simulator, cluster);
  faults::FaultPlan fault_plan;
  if (!sc.faults.empty()) {
    fault_plan =
        faults::parse_spec(sc.faults, sc.servers, sc.gpus_per_server);
    fault_plan.install(simulator, cluster);
  }

  cluster::FleetSpec fleet;
  fleet.arbiter = sc.arbiter;
  std::vector<std::string> mix;
  std::istringstream parts(sc.job_models);
  for (std::string part; std::getline(parts, part, '+');)
    if (!part.empty()) mix.push_back(part);
  if (mix.empty()) mix.push_back(sc.model);
  for (std::size_t k = 0; k < sc.jobs; ++k) {
    cluster::JobSpec job;
    job.model = mix[k % mix.size()];
    job.iterations = sc.iterations;
    job.warmup = sc.warmup;
    fleet.jobs.push_back(std::move(job));
  }
  cluster::assign_default_workers(fleet, cluster.num_workers());
  cluster::JobManager manager(simulator, cluster, fleet);
  r.setup_s = setup.stop();

  cluster::FleetReport fr;
  {
    // JobManager installs the controllers' iteration hooks itself, so a
    // fleet's loop is timed whole.
    Scope loop(log, "loop");
    fr = manager.run();
    r.loop_s = loop.stop();
  }

  r.events = simulator.events_processed();
  std::vector<double> ends;
  std::size_t switches = 0;
  double job_sum = 0.0;
  for (std::size_t i = 0; i < manager.num_jobs(); ++i) {
    const cluster::JobRuntime& job = manager.job(i);
    check_executor(*job.executor, "job " + std::to_string(job.id));
    switches += job.executor->switches_performed();
    job_sum += job.report.throughput;
    ends.insert(ends.end(), job.report.iteration_end_times.begin(),
                job.report.iteration_end_times.end());
    add_gaps(job.report.iteration_end_times, sc.warmup, r.iteration_gaps);
    r.switch_attempts += job.executor->switch_attempts();
    r.switches_aborted += job.executor->switches_aborted();
    r.utilization += job.report.worker_utilization;
    r.bytes_on_wire += job.report.bytes_on_wire;
    r.switch_stall_s += job.report.switch_stall;
    r.decisions += job.controller->stats().decisions;
    r.emergency_replans += job.controller->stats().emergency_replans;
  }
  r.utilization /= static_cast<double>(manager.num_jobs());
  if (std::abs(fr.fleet_throughput - job_sum) >
      1e-9 * std::max(1.0, std::abs(job_sum))) {
    std::ostringstream os;
    os.precision(17);
    os << "fleet throughput " << fr.fleet_throughput
       << " != sum of job throughputs " << job_sum;
    throw std::runtime_error(os.str());
  }
  r.digest = SimDigest{fr.fleet_throughput, r.events, switches, ends};
  r.dropped_batches = metric(simulator, "executor.dropped_batches");
  r.bubble_s = metric(simulator, "pipeline.bubble_seconds");
  r.replans = static_cast<std::size_t>(metric(simulator, "controller.replans"));
  r.claim_rounds = fr.claim_rounds;
  r.conflicts = fr.conflicts;
  r.grants = fr.grants;
  r.contention_aborts = fr.contention_aborts;
  r.jain = fr.jain;
  finish_artifacts(simulator, opt, log, r);
}

/// Linux: "5" in clear_refs resets VmHWM to the current RSS, so each
/// operation's high-water mark is its own, not the process's so far.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

}  // namespace

autopipe::sweep::ScenarioSpec to_sweep_spec(const Scenario& sc) {
  sweep::ScenarioSpec spec;
  spec.label = sc.model + "." + sc.system + ".J" + std::to_string(sc.jobs) +
               ".seed" + std::to_string(sc.seed);
  spec.model = sc.model;
  spec.system = sc.system;
  spec.servers = sc.servers;
  spec.gpus_per_server = sc.gpus_per_server;
  spec.bandwidth_gbps = sc.bandwidth_gbps;
  spec.churn = sc.churn;
  spec.faults = sc.faults;
  spec.seed = sc.seed;
  spec.jobs = sc.jobs;
  spec.job_models = sc.job_models;
  spec.arbiter = sc.arbiter;
  spec.iterations = sc.iterations;
  spec.warmup = sc.warmup;
  return spec;
}

OpResult run_op(const Scenario& scenario, const OpOptions& options,
                SpanLog& log) {
  OpResult r;
  if (options.traced) prof::reset();
  reset_peak_rss();
  try {
    if (scenario.jobs > 1) {
      run_fleet(scenario, options, log, r);
    } else {
      run_single(scenario, options, log, r);
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.peak_rss_mb = peak_rss_mb();
  if (options.traced) collect_prof(r);
  return r;
}

}  // namespace perfbench
