// One scenario, run in isolation. Every run_scenario call builds its own
// scenario::World (simulator, cluster, planner, executor, controller) from
// the ScenarioSpec alone — no shared mutable state, no environmental input —
// so scenarios are both bit-reproducible (seeded Rng streams derived from
// spec.seed) and safe to run concurrently from the sweep engine's pool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/spec.hpp"

namespace autopipe::sweep {

/// Per-scenario artifact emission. When `directory` is non-empty each
/// scenario writes `<directory>/<label>.trace` (text event trace) and
/// `<directory>/<label>.metrics.json`; autopipe-controlled scenarios also
/// write `<directory>/<label>.ledger`. Paths land in the ScenarioResult.
struct ArtifactOptions {
  std::string directory;
  /// When > 0, also sample the metrics registry every `timeseries_interval`
  /// sim-seconds and write `<directory>/<label>.ts` (autopipe-ts-v1 — see
  /// docs/TELEMETRY.md). The sampler output is a pure function of the spec,
  /// so it is byte-identical across --jobs values and replays.
  double timeseries_interval = 0.0;
};

/// Outcome of one scenario. Every field except wall_seconds is a pure
/// function of the ScenarioSpec (wall_seconds is host time and is kept out
/// of the deterministic report sections).
struct ScenarioResult {
  ScenarioSpec spec;
  bool ok = false;
  /// Exception text when !ok; the sweep keeps going and reports it.
  std::string error;

  double throughput = 0.0;       ///< samples/sec (simulated)
  double utilization = 0.0;      ///< mean worker busy fraction
  std::size_t batch = 0;         ///< mini-batch size the run used
  std::size_t switches = 0;      ///< partition switches committed
  std::size_t switch_aborts = 0; ///< switch attempts aborted + rolled back
  std::uint64_t events = 0;      ///< simulator events processed
  double iteration_p50_ms = 0.0; ///< measured-window iteration time
  double iteration_p95_ms = 0.0;
  double iteration_p99_ms = 0.0;

  // Fleet scenarios only (spec.jobs > 1): aggregate throughput lands in
  // `throughput`, these carry the co-tenancy view. Zero/empty — and never
  // serialized — for single-tenant scenarios, so legacy bench JSON is
  // byte-stable.
  double fleet_jain = 0.0;               ///< Jain fairness over job throughputs
  std::size_t fleet_conflicts = 0;       ///< claim rounds with >= 2 claims
  std::size_t fleet_grants = 0;          ///< arbiter grants
  std::size_t fleet_contention_aborts = 0;
  std::vector<double> job_throughputs;   ///< per-job samples/s, job order

  double wall_seconds = 0.0;  ///< host wall-clock (non-deterministic)

  std::string trace_file;    ///< written artifacts, empty when not emitted
  std::string metrics_file;
  std::string ledger_file;
  std::string timeseries_file;
};

/// Run the scenario to completion. Exceptions from anywhere inside the run
/// (bad fault spec, executor contract violation, unwritable artifact) are
/// captured into {ok=false, error}; this never throws.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const ArtifactOptions& artifacts = {});

}  // namespace autopipe::sweep
