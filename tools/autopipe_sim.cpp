// autopipe_sim — the scenario driver. Runs any (model, bandwidth, sharing,
// schedule, system) combination from the command line and prints a
// one-block report, so new scenarios don't require writing C++.
//
// Examples:
//   autopipe_sim --model vgg16 --bandwidth 25 --system autopipe
//   autopipe_sim --model resnet50 --bandwidth 10 --extra-jobs 2
//                --system pipedream --iterations 200
//   autopipe_sim --model bert48 --schedule dapple --micro-batches 8
//                --system autopipe --bw-drop-iter 30 --bw-drop-gbps 10
//   autopipe_sim --model alexnet --system baseline --scheme ps
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <utility>

#include "analysis/report.hpp"
#include "analysis/trace_view.hpp"
#include "baselines/data_parallel.hpp"
#include "common/flags.hpp"
#include "common/log.hpp"
#include "common/profile.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "pipeline/schedule.hpp"
#include "scenario/artifacts.hpp"
#include "scenario/world.hpp"

using namespace autopipe;

namespace {

void usage() {
  std::cout <<
      "autopipe_sim — shared-GPU-cluster pipeline-parallelism scenarios\n\n"
      "  --model NAME          alexnet | vgg16 | resnet50 | bert48 (default"
      " resnet50)\n"
      "  --system NAME         autopipe | pipedream | baseline | even"
      " (default autopipe)\n"
      "  --schedule NAME       1f1b | gpipe | dapple | chimera | 2bw"
      " (default 1f1b)\n"
      "  --scheme NAME         ring | ps (default ring)\n"
      "  --framework NAME      pytorch | tensorflow | mxnet (default"
      " pytorch)\n"
      "  --bandwidth GBPS      NIC line rate (default 25)\n"
      "  --servers N           physical servers (default 5)\n"
      "  --gpus-per-server N   (default 2)\n"
      "  --extra-jobs N        co-located identical jobs (default 0)\n"
      "  --iterations N        training iterations (default 100)\n"
      "  --warmup N            iterations excluded from the measurement"
      " (default 20)\n"
      "  --micro-batches N     for synchronous schedules (default 4)\n"
      "  --batch N             mini-batch size (default: model's)\n"
      "  --bw-drop-iter N      change bandwidth mid-run at iteration N\n"
      "  --bw-drop-gbps GBPS   the new bandwidth for --bw-drop-iter\n"
      "  --jobs-iter N         add a tenant on every GPU at iteration N\n"
      "  --churn               stochastic background workload\n"
      "  --faults SPEC         inject faults; SPEC is 'random:key=v,...'\n"
      "                        (keys: seed,start,clear,gpus,links,flaps,\n"
      "                        stragglers,profiler_drops,min_outage,\n"
      "                        max_outage), '@file' with one\n"
      "                        '<time> <kind> <index> [scale]' per line, or\n"
      "                        the same lines inline separated by ';'\n"
      "                        (see docs/FAULTS.md)\n"
      "  --seed N              RNG seed (default 1)\n"
      "  --jobs-spec SPEC|@FILE\n"
      "                        co-tenancy mode: run N independent AutoPipe\n"
      "                        jobs on the shared cluster under a\n"
      "                        cluster-level arbiter. SPEC is 'key = value'\n"
      "                        statements ('job' declares one job; arbiter,\n"
      "                        claim-window, preempt are fleet-level); see\n"
      "                        docs/COTENANCY.md. Replaces the single-job\n"
      "                        run; --model/--system/--schedule are ignored\n"
      "  --trace PATH          write an event trace of the run; .json gives\n"
      "                        Chrome trace_event format (chrome://tracing,\n"
      "                        Perfetto), .txt/.trace the plain-text format\n"
      "                        (see docs/TRACING.md; analyze either text\n"
      "                        trace with the autopipe_trace tool)\n"
      "  --metrics PATH        write the run's full metrics registry (flat\n"
      "                        counters/gauges plus rolling-series .ema/\n"
      "                        .mean/.count keys) as one JSON object with\n"
      "                        stable key order\n"
      "  --ledger PATH         write the controller's decision ledger (one\n"
      "                        record per planning round; see\n"
      "                        docs/DECISIONS.md, analyze with\n"
      "                        autopipe_trace decisions / calibration)\n"
      "  --timeseries PATH[:INTERVAL]\n"
      "                        sample the full metrics registry every\n"
      "                        INTERVAL sim-seconds (default 1) into the\n"
      "                        columnar autopipe-ts-v1 format; analyze with\n"
      "                        autopipe_trace timeseries (docs/TELEMETRY.md)\n"
      "  --profile PATH        record the host self-profiler (where the\n"
      "                        tool itself spends wall time: planner,\n"
      "                        predictor, event queue); .json gives Chrome\n"
      "                        trace_event format, anything else the\n"
      "                        autopipe-prof-v1 text format for\n"
      "                        autopipe_trace profile\n"
      "  --verbose             debug logging\n";
}

/// Write whatever outputs were requested and report each on stdout. Shared
/// by the single-job and --jobs-spec fleet paths.
void emit_outputs(const sim::Simulator& simulator,
                  const scenario::OutputPaths& paths,
                  double timeseries_interval) {
  scenario::write_outputs(simulator, paths);
  if (!paths.trace.empty()) {
    std::cout << "trace: " << simulator.tracer().size() << " events -> "
              << paths.trace << "\n";
    // Breakdown straight off the in-memory recorder — the same report
    // `autopipe_trace bubbles` would print from the file.
    const analysis::TraceView view(simulator.tracer().events());
    std::cout << analysis::render_bubbles_text(analysis::analyze(view));
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
              << " samples every " << TextTable::num(timeseries_interval, 3)
              << "s -> " << paths.timeseries << "\n";
  }
  if (!paths.profile.empty()) {
    const std::vector<prof::ThreadProfile> profiles = prof::collect();
    std::size_t spans = 0;
    for (const prof::ThreadProfile& tp : profiles)
      spans += tp.spans.size() + tp.aggregates.size();
    std::cout << "profile: " << spans << " span record(s) across "
              << profiles.size() << " thread(s) -> " << paths.profile << "\n";
  }
}

/// Parse --faults for a cluster of the given shape and announce it; exits
/// 2 on a malformed spec.
faults::FaultPlan parse_faults(const Flags& flags,
                               const sim::ClusterConfig& c) {
  const std::string spec = flags.get("faults", "");
  if (spec.empty()) return {};
  faults::FaultPlan plan;
  try {
    plan = faults::parse_spec(spec, c.num_servers, c.gpus_per_server);
  } catch (const std::exception& e) {
    std::cerr << "autopipe_sim: bad --faults spec: " << e.what() << "\n";
    std::exit(2);
  }
  std::cout << "faults: " << plan.size() << " scheduled events (horizon "
            << TextTable::num(plan.horizon(), 2) << "s)\n";
  return plan;
}

/// Co-tenancy mode: the whole fleet run, from parsed spec to summary
/// tables. Returns the process exit code.
int run_fleet(scenario::Spec spec, const scenario::OutputPaths& paths,
              double timeseries_interval) {
  scenario::World world(std::move(spec));
  world.run();
  const cluster::FleetReport& fr = world.fleet_report();

  emit_outputs(world.simulator(), paths, timeseries_interval);

  TextTable jobs({"job", "model", "priority", "samples/s", "util", "commits",
                  "contention aborts", "finished at (s)"});
  for (const auto& j : fr.jobs) {
    jobs.add_row({std::to_string(j.id), j.model,
                  TextTable::num(j.priority, 2),
                  TextTable::num(j.report.throughput, 1),
                  TextTable::num(j.report.worker_utilization, 3),
                  std::to_string(j.commits),
                  std::to_string(j.contention_aborts),
                  TextTable::num(j.finished_at, 2)});
  }
  jobs.print(std::cout, "fleet: " + std::to_string(fr.jobs.size()) +
                            " job(s), " + fr.arbiter + " arbiter");

  TextTable summary({"metric", "value"});
  summary.add_row({"fleet throughput (samples/s)",
                   TextTable::num(fr.fleet_throughput, 1)});
  summary.add_row({"jain fairness", TextTable::num(fr.jain, 4)});
  summary.add_row({"claim rounds", std::to_string(fr.claim_rounds)});
  summary.add_row({"conflicts", std::to_string(fr.conflicts)});
  summary.add_row({"grants", std::to_string(fr.grants)});
  summary.add_row({"denials", std::to_string(fr.denials)});
  summary.add_row({"contention aborts",
                   std::to_string(fr.contention_aborts)});
  summary.print(std::cout, "autopipe_sim fleet report");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }
  if (flags.get_bool("verbose", false)) set_log_level(LogLevel::kDebug);

  const auto model = models::model_by_name(flags.get("model", "resnet50"));
  const std::string system = flags.get("system", "autopipe");
  const auto framework =
      comm::framework_by_name(flags.get("framework", "pytorch"));
  const auto scheme = flags.get("scheme", "ring") == "ps"
                          ? comm::SyncScheme::kParameterServer
                          : comm::SyncScheme::kRing;

  scenario::Spec spec;
  const std::string trace_path = flags.get("trace", "");
  const std::string metrics_path = flags.get("metrics", "");
  const std::string ledger_path = flags.get("ledger", "");
  // Fail on an unwritable output path now, not after the whole run.
  const auto expect_writable = [](const std::string& path, const char* what) {
    std::ofstream probe(path);
    if (!probe.good()) {
      std::cerr << "autopipe_sim: cannot open " << what << " file: " << path
                << "\n";
      std::exit(2);
    }
  };
  if (!trace_path.empty()) {
    expect_writable(trace_path, "trace");
    spec.sinks.trace = true;
  }
  if (!metrics_path.empty()) expect_writable(metrics_path, "metrics");
  if (!ledger_path.empty()) {
    expect_writable(ledger_path, "ledger");
    spec.sinks.ledger = true;
  }
  std::string timeseries_path;
  double timeseries_interval = 1.0;
  if (flags.has("timeseries")) {
    std::tie(timeseries_path, timeseries_interval) =
        scenario::split_timeseries_arg(flags.get("timeseries", ""));
    expect_writable(timeseries_path, "timeseries");
    spec.sinks.timeseries_interval = timeseries_interval;
  }
  const std::string profile_path = flags.get("profile", "");
  if (!profile_path.empty()) {
    expect_writable(profile_path, "profile");
    prof::reset();
    prof::set_enabled(true);
  }
  const scenario::OutputPaths outputs{trace_path, metrics_path, ledger_path,
                                      timeseries_path, profile_path};
  spec.cluster.num_servers =
      static_cast<std::size_t>(flags.get_int("servers", 5));
  spec.cluster.gpus_per_server =
      static_cast<std::size_t>(flags.get_int("gpus-per-server", 2));
  spec.cluster.nic_bandwidth = gbps(flags.get_double("bandwidth", 25));
  spec.extra_tenants = static_cast<int>(flags.get_int("extra-jobs", 0));
  if (flags.get_bool("churn", false)) {
    spec.churn = scenario::default_churn();
    spec.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  }
  const std::size_t num_workers =
      spec.cluster.num_servers * spec.cluster.gpus_per_server;

  // Co-tenancy mode: --jobs-spec replaces the single-job pipeline below
  // with a JobManager fleet. Shares the cluster/churn/fault environment and
  // all --trace/--metrics/--ledger/--timeseries/--profile outputs.
  const std::string jobs_spec_arg = flags.get("jobs-spec", "");
  if (!jobs_spec_arg.empty()) {
    try {
      spec.fleet = cluster::load_jobs_spec(jobs_spec_arg);
      cluster::assign_default_workers(spec.fleet, num_workers);
    } catch (const std::exception& e) {
      std::cerr << "autopipe_sim: bad --jobs-spec: " << e.what() << "\n";
      return 2;
    }
    spec.fault_plan = parse_faults(flags, spec.cluster);
    for (const std::string& flag : flags.unused())
      std::cerr << "warning: unknown flag --" << flag << " (see --help)\n";
    return run_fleet(std::move(spec), outputs, timeseries_interval);
  }

  const auto iterations =
      static_cast<std::size_t>(flags.get_int("iterations", 100));
  const auto warmup = static_cast<std::size_t>(flags.get_int("warmup", 20));

  // Baseline short-circuits: plain data parallelism.
  if (system == "baseline") {
    scenario::World world(std::move(spec));
    baselines::DataParallelConfig dp;
    dp.framework = framework;
    dp.sync_scheme = scheme;
    dp.batch_size = static_cast<std::size_t>(flags.get_int("batch", 0));
    const auto report = baselines::run_data_parallel(
        world.cluster(), model, scenario::all_workers(world.cluster()),
        iterations, warmup, dp);
    std::cout << "data-parallel baseline: "
              << TextTable::num(report.throughput, 1) << " samples/s over "
              << iterations << " iterations\n";
    return 0;
  }

  scenario::Job& job = spec.job;
  job.model = model;
  job.even_split = system == "even";
  job.executor.framework = framework;
  job.executor.sync_scheme = scheme;
  job.executor.mode =
      pipeline::schedule_by_name(flags.get("schedule", "1f1b"));
  job.executor.micro_batches =
      static_cast<std::size_t>(flags.get_int("micro-batches", 4));
  job.executor.batch_size =
      static_cast<std::size_t>(flags.get_int("batch", 0));
  if (system == "autopipe") job.controller = scenario::default_controller();
  job.iterations = iterations;
  job.warmup = warmup;

  sim::ResourceTrace trace;
  if (flags.has("bw-drop-iter")) {
    trace.at_iteration(
        static_cast<std::size_t>(flags.get_int("bw-drop-iter", 0)),
        sim::ResourceTrace::set_all_nic_bandwidth(
            gbps(flags.get_double("bw-drop-gbps", 10))));
  }
  if (flags.has("jobs-iter")) {
    trace.at_iteration(
        static_cast<std::size_t>(flags.get_int("jobs-iter", 0)),
        sim::ResourceTrace::add_job_all_gpus());
  }
  spec.fault_plan = parse_faults(flags, spec.cluster);

  for (const std::string& flag : flags.unused()) {
    std::cerr << "warning: unknown flag --" << flag << " (see --help)\n";
  }

  scenario::World world(std::move(spec));
  world.set_resource_trace(&trace);
  const scenario::Summary result = world.run();
  const pipeline::ExecutionReport& report = world.report();
  pipeline::PipelineExecutor& executor = world.executor();
  const core::AutoPipeController* controller = world.controller();
  const sim::Simulator& simulator = world.simulator();

  emit_outputs(simulator, outputs, timeseries_interval);

  TextTable summary({"metric", "value"});
  summary.add_row({"model", model.name()});
  summary.add_row({"system", system});
  summary.add_row({"initial partition", world.plan()->partition.to_string()});
  summary.add_row({"final partition",
                   executor.current_partition().to_string()});
  summary.add_row({"throughput (samples/s)",
                   TextTable::num(report.throughput, 1)});
  if (report.iteration_end_times.size() > warmup + 1) {
    summary.add_row({"iteration time p50 (ms)",
                     TextTable::num(result.iteration_p50_ms, 3)});
    summary.add_row({"iteration time p95 (ms)",
                     TextTable::num(result.iteration_p95_ms, 3)});
    summary.add_row({"iteration time p99 (ms)",
                     TextTable::num(result.iteration_p99_ms, 3)});
  }
  summary.add_row({"worker utilization",
                   TextTable::num(report.worker_utilization, 3)});
  summary.add_row({"partition switches",
                   std::to_string(executor.switches_performed())});
  summary.add_row({"bytes on wire (GB)",
                   TextTable::num(report.bytes_on_wire / 1e9, 2)});
  if (controller) {
    summary.add_row({"decisions",
                     std::to_string(controller->stats().decisions)});
    summary.add_row({"changes detected",
                     std::to_string(controller->stats().changes_detected)});
    summary.add_row(
        {"decision host time (ms)",
         TextTable::num(
             controller->stats().total_decision_wall_seconds * 1e3, 2)});
  }
  for (const auto& [name, value] : simulator.metrics().all())
    summary.add_row({name, TextTable::num(value, 3)});
  summary.print(std::cout, "autopipe_sim report");
  return 0;
}
