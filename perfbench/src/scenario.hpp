// One benchmark operation: assemble a scenario through the program's public
// API (as tools/autopipe_sim and the sweep runner do), drive its event loop,
// write its artifacts, check its invariants and report what every layer
// cost. Each call into a layer is timed from here, never from inside src/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "sweep/spec.hpp"

namespace perfbench {

/// A single-job run (jobs == 1) or a co-tenant fleet (jobs > 1).
struct Scenario {
  std::string model = "resnet50";
  std::string system = "autopipe";  ///< autopipe | pipedream
  std::size_t servers = 5;
  std::size_t gpus_per_server = 2;
  double bandwidth_gbps = 25.0;
  bool churn = false;       ///< autopipe_sim --churn background load
  std::uint64_t seed = 1;  ///< churn stream seed
  std::string faults;      ///< faults::parse_spec input; empty = none
  /// Set every NIC to `bw_drop_gbps` after iteration `bw_drop_iter`
  /// (0 = no drop).
  std::size_t bw_drop_iter = 0;
  double bw_drop_gbps = 10.0;
  std::size_t iterations = 100;
  std::size_t warmup = 20;
  std::size_t jobs = 1;
  std::string job_models;  ///< '+'-separated fleet model cycle
  std::string arbiter = "greedy";
};

/// The same scenario as the sweep runner's input.
autopipe::sweep::ScenarioSpec to_sweep_spec(const Scenario& scenario);

struct OpOptions {
  /// Record the controller's decision ledger in memory (not written); the
  /// predictor's calibration is read from it.
  bool ledger = false;
  /// Every sink on, written under `artifact_base`: text trace, ledger, a
  /// 1 s time series, the metrics JSON, plus the in-memory bubbles
  /// analysis of the trace.
  bool sinks = false;
  std::string artifact_base;
  /// The traced run: enable the program's prof:: sites around the calls
  /// into the planner and the controller, and format each artifact into
  /// memory before writing it, so format and write time are separate.
  /// Otherwise artifacts stream into their files as autopipe_sim writes
  /// them.
  bool traced = false;
};

/// Exclusive time and call count of one prof:: site.
struct ProfSite {
  double self_ns = 0.0;
  std::uint64_t calls = 0;
};

struct OpResult {
  bool ok = false;
  std::string error;  ///< exception text or the failed check

  SimDigest digest;
  std::vector<double> iteration_gaps;  ///< measured window, seconds (sim)

  // Host time, seconds.
  double setup_s = 0.0;
  double plan_s = 0.0;   ///< PipeDreamPlanner::plan (single-job only)
  double loop_s = 0.0;   ///< event loop including the iteration callbacks
  double callbacks_s = 0.0;   ///< everything the iteration callback timed
  double round_s = 0.0;  ///< Σ AutoPipeController::on_iteration
  double finish_s = 0.0;
  std::vector<double> decide_ms;  ///< on_iteration calls that decided
  std::size_t rounds = 0;
  std::size_t decisions = 0;
  std::size_t replans = 0;
  std::size_t emergency_replans = 0;

  /// Resident-memory high-water mark of this operation (VmHWM, reset
  /// before the operation starts).
  double peak_rss_mb = 0.0;

  // Event loop.
  std::uint64_t events = 0;
  double flows_sum = 0.0;
  std::size_t flow_samples = 0;
  std::size_t flows_max = 0;

  // Pipeline (summed over fleet jobs).
  std::size_t switch_attempts = 0;
  std::size_t switches_aborted = 0;
  double dropped_batches = 0.0;
  double utilization = 0.0;  ///< mean over jobs
  double bytes_on_wire = 0.0;
  double switch_stall_s = 0.0;
  double bubble_s = 0.0;

  // Ledger (when recorded).
  std::size_t ledger_executed = 0;
  std::size_t ledger_reverted = 0;
  double ape_sum = 0.0;
  double bias_sum = 0.0;
  std::size_t ape_count = 0;

  // Sinks and analysis.
  std::size_t trace_events = 0, trace_bytes = 0;
  std::size_t ledger_records = 0, ledger_bytes = 0;
  std::size_t timeseries_rows = 0, timeseries_bytes = 0;
  double trace_format_s = 0.0, ledger_format_s = 0.0;
  double timeseries_format_s = 0.0, metrics_format_s = 0.0;
  double io_write_s = 0.0, bubbles_s = 0.0;

  // Fleet.
  bool fleet = false;
  std::size_t claim_rounds = 0, conflicts = 0, grants = 0;
  std::size_t contention_aborts = 0;
  double jain = 0.0;

  // prof:: sites (traced run only).
  ProfSite decide_round, replan, solve, predictor_infer;
};

/// Run one scenario. Never throws: failures land in {ok=false, error}.
OpResult run_op(const Scenario& scenario, const OpOptions& options,
                SpanLog& log);

}  // namespace perfbench
