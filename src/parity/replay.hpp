// Replay-determinism harness for the simulator. One full AutoPipe scenario
// (cluster + planner + executor + controller, optionally with a seeded
// random fault plan, background-tenant churn, a faulted mid-run switch or a
// co-tenant fleet) must replay byte-for-byte: the same config run twice
// yields the same traces, decision ledgers, metrics, time series, causal
// edges, iteration timelines and event counts. Any hidden nondeterminism —
// an unordered container walk, an uninitialized read, state leaking across
// runs or threads — shows up as a first-divergence report.
//
// Used by tests/parity_test.cpp (ctest label `parity`, ≥50 seeds) and the
// bench/parity_harness CLI (CI replay job, divergence artifacts).
#pragma once

#include <cstdint>

#include "partition/partition.hpp"
#include "scenario/artifacts.hpp"

namespace autopipe::parity {

/// One replay scenario. The seed drives the fault plan and the
/// background workload; seeds 0.. give distinct but reproducible runs.
struct ScenarioConfig {
  std::uint64_t seed = 1;
  std::size_t iterations = 12;
  std::size_t warmup = 5;
  /// Install a seeded random fault plan (preemptions, link failures/flaps,
  /// stragglers, profiler drops).
  bool inject_faults = true;
  /// Install seeded background-tenant churn on GPUs and the network.
  bool background_churn = true;
  /// Trigger a deterministic mid-run partition switch and arm a
  /// SwitchFaultPlan crash point against it (phase, fault kind and switch
  /// mode all derived from the seed), so aborted and rolled-back switches
  /// are part of the byte-for-byte replay contract too.
  bool mid_switch_faults = false;
  /// When > 0, replace the single-job scenario with a co-tenant fleet of
  /// this many AutoPipe jobs under a greedy-arbiter JobManager
  /// (src/cluster/), cycling a small model mix. The testbed grows to
  /// max(3, fleet_jobs) servers so every job starts with at least two
  /// GPUs. Claim windows, arbiter grants/denials and contention aborts all
  /// join the byte-for-byte replay contract. mid_switch_faults is ignored
  /// in fleet mode (the JobManager drives its own switches).
  std::size_t fleet_jobs = 0;
};

/// Run the scenario and capture every observable artifact.
scenario::Capture run_scenario(const ScenarioConfig& config);

/// Run `config` twice and compare the captures; the first run is the
/// reference, the replay the candidate.
scenario::Divergence run_replay(const ScenarioConfig& config);

/// The current partition with each stage handed the next stage's workers:
/// a valid layout where every worker serves a different layer range, so a
/// switch to it genuinely migrates weights instead of finding them in
/// place. The mid-switch scenarios and bench/chaos_switch request it.
partition::Partition rotate_workers(const partition::Partition& current);

}  // namespace autopipe::parity
