// Shared scaffolding for the figure benchmarks: the paper's testbed, the
// "three identical jobs" shared-cluster emulation, plan construction and
// standard measurement runs. Every fig*_ binary builds on these so the
// scenarios stay consistent across figures.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autopipe/controller.hpp"
#include "baselines/data_parallel.hpp"
#include "comm/framework.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "models/zoo.hpp"
#include "partition/pipedream_planner.hpp"
#include "pipeline/executor.hpp"
#include "scenario/world.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"

namespace autopipe::bench {

/// The paper's bandwidth grid.
inline const std::vector<double> kBandwidthGridGbps = {10, 25, 40, 100};

/// One self-contained simulated testbed instance: a scenario world whose
/// job run_pipeline (or the bench itself) launches. `simulator` and
/// `cluster` point into it.
struct Testbed {
  std::unique_ptr<scenario::World> world;
  sim::Simulator* simulator = nullptr;
  sim::Cluster* cluster = nullptr;

  std::vector<sim::WorkerId> all_workers() const;
};

/// 5 servers x 2 P100 behind one switch at the given line rate. Tracing is
/// enabled on the testbed's simulator when `--trace` was parsed.
Testbed make_testbed(double bandwidth_gbps);

/// Parse the flags every fig benchmark shares (`--trace=PATH`,
/// `--metrics=PATH`, `--ledger=PATH`, `--timeseries=PATH[:INTERVAL]`,
/// `--profile=PATH`, `--jobs=N`). Call at the top of main(); unknown flags
/// are ignored so each benchmark may layer its own parsing on top.
void parse_common_flags(int argc, const char* const* argv);

/// Worker threads requested via `--jobs` (default 1; 0 = one per core).
std::size_t jobs();

/// Fan `body(0) .. body(count-1)` across the `--jobs` thread pool
/// (sweep::run_indexed). Each body must confine itself to per-index state
/// — build its own testbed, write slot i of a preallocated vector — and
/// emit nothing; the caller renders tables/stdout in index order
/// afterwards, so benchmark output is identical at any --jobs value.
void for_each_scenario(std::size_t count,
                       const std::function<void(std::size_t)>& body);

/// The `--trace` path captured by parse_common_flags; empty when unset.
const std::string& trace_path();

/// The `--metrics` path captured by parse_common_flags; empty when unset.
const std::string& metrics_path();

/// The `--ledger` path captured by parse_common_flags; empty when unset.
/// When set, every AutoPipe-controlled run records its decision ledger and
/// write_run_outputs writes it next to the trace (scenario-spliced the same
/// way; analyze with `autopipe_trace decisions` / `calibration`).
const std::string& ledger_path();

/// The `--timeseries=PATH[:INTERVAL]` path captured by parse_common_flags;
/// empty when unset. When set, every run samples its metrics registry at
/// the interval (default 1 sim-second) and write_run_outputs writes the
/// autopipe-ts-v1 series scenario-spliced like the trace (analyze with
/// `autopipe_trace timeseries`; see docs/TELEMETRY.md).
const std::string& timeseries_path();
double timeseries_interval();

/// The `--profile=PATH` path captured by parse_common_flags; empty when
/// unset. When set the host self-profiler records from flag parsing until
/// exit_status(), which writes the capture (autopipe-prof-v1, or Chrome
/// JSON for a .json path) before returning.
const std::string& profile_path();

/// `base` with ".<scenario>" spliced in before the extension
/// ("fig3.trace" + "vgg16_25gbps" -> "fig3.vgg16_25gbps.trace"); scenario
/// characters outside [A-Za-z0-9._-] become '_'. Returns `base` unchanged
/// when `scenario` is empty.
std::string scenario_path(const std::string& base,
                          const std::string& scenario);

/// Emulate `extra_jobs` co-located identical jobs (the paper runs three
/// identical jobs in every static experiment): each extra job adds one
/// tenant per GPU and one persistent cross-server flow per NIC, so both
/// compute and bandwidth are genuinely contended in the max-min sense.
void add_shared_jobs(Testbed& testbed, int extra_jobs);

/// PipeDream's one-shot plan: exclusive-GPU profile, uniform bandwidth.
partition::PlanResult plan_pipedream(const Testbed& testbed,
                                     const models::ModelSpec& model,
                                     const comm::FrameworkProfile& framework,
                                     comm::SyncScheme scheme);

/// The "Optimal" bar of Figs 3-6: the same DP re-solved against the current
/// environment view.
partition::PlanResult plan_current(const Testbed& testbed,
                                   const models::ModelSpec& model,
                                   const comm::FrameworkProfile& framework,
                                   comm::SyncScheme scheme);

/// plan_current followed by a neighbourhood descent under the integrated
/// per-worker model — "re-executing the work partition" with heterogeneity
/// (contended GPUs, uneven NICs) taken into account, which the count-based
/// DP alone cannot express.
partition::PlanResult plan_refined(const Testbed& testbed,
                                   const models::ModelSpec& model,
                                   const comm::FrameworkProfile& framework,
                                   comm::SyncScheme scheme);

struct RunOptions {
  comm::FrameworkProfile framework = comm::pytorch_profile();
  comm::SyncScheme scheme = comm::SyncScheme::kRing;
  std::size_t iterations = 40;
  std::size_t warmup = 10;
  /// Attach an AutoPipe controller (threshold arbiter + analytic
  /// integrated-model predictor — no pre-trained networks required, so the
  /// benches run out of the box; the RL/meta ablation bench swaps these).
  bool autopipe = false;
  std::size_t decision_interval = 3;
  /// Iteration-anchored resource events applied during the run.
  const sim::ResourceTrace* trace = nullptr;
  pipeline::ScheduleMode mode = pipeline::ScheduleMode::kAsync1F1B;
  std::size_t micro_batches = 4;
  /// Label naming this run within the benchmark ("vgg16_25gbps_autopipe").
  /// With `--trace=fig.trace`, each labelled run writes its own
  /// fig.<scenario>.trace instead of the runs overwriting one file; same
  /// for `--metrics`. Unlabelled runs keep overwrite-last-wins.
  std::string scenario;
};

struct RunResult {
  double throughput = 0.0;             // samples/sec
  std::vector<double> per_iteration;   // instantaneous series
  std::vector<double> end_times;       // completion instant per iteration
  std::size_t batch = 0;
  std::size_t switches = 0;
  double utilization = 0.0;

  /// Mean throughput between iterations [lo, hi) computed on elapsed
  /// simulated time (robust to completion bursts).
  double window_mean(std::size_t lo, std::size_t hi) const;
};

/// Write the recorders of a finished World run to the files the common
/// flags name, each spliced with `label` through scenario_path (an empty
/// label writes the flag paths as given), and report them on stdout. Every
/// World-built bench run calls this once after World::run().
void write_run_outputs(const scenario::World& world, const std::string& label);

/// The one bench run path: launch `job` on the testbed's world with `trace`
/// (may be null) applied at the iterations it names, run it, and write its
/// outputs under `label`. Returns the run's report.
const pipeline::ExecutionReport& run_job(Testbed& testbed, scenario::Job job,
                                         const sim::ResourceTrace* trace,
                                         const std::string& label);

/// Execute `partition` on the testbed under the options.
RunResult run_pipeline(Testbed& testbed, const models::ModelSpec& model,
                       const partition::Partition& partition,
                       const RunOptions& options);

/// Vanilla data-parallel baseline over all workers.
double run_baseline(Testbed& testbed, const models::ModelSpec& model,
                    const RunOptions& options);

/// Percentage improvement of a over b.
double speedup_pct(double a, double b);

/// Run one labelled scenario body, catching any exception it throws: the
/// failure is reported on stderr with the label, counted, and the benchmark
/// continues with its remaining scenarios. Returns whether the body
/// succeeded. main() must end with `return bench::exit_status();` so a
/// throwing scenario fails the whole binary instead of vanishing into a
/// half-filled table.
bool run_scenario(const std::string& label,
                  const std::function<void()>& body);

/// 0 when every run_scenario body succeeded so far, 1 otherwise.
int exit_status();

}  // namespace autopipe::bench
