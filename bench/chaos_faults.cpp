// Chaos harness: randomized fault schedules against the full AutoPipe loop
// (executor + controller + watchdog), many seeds, four invariants per seed:
//
//   1. completion  — the run finishes; no deadlock, no stray contract error
//   2. conservation — every injected mini-batch is accounted for:
//                     injected == completed + dropped, nothing in flight
//   3. recovery    — once every fault has cleared, throughput returns to
//                     within --epsilon of the pre-fault level
//   4. determinism — the same seed replays to a byte-identical trace
//   5. ledger      — every planning round left exactly one decision record,
//                     every record reached a terminal outcome, the ledger
//                     replays byte-identically and round-trips through the
//                     reader
//
// The schedule shape is scaled from a fault-free probe run's measured
// iteration period, so the same harness stresses any model/cluster pair.
//
//   chaos_faults [--seeds=N] [--iterations=N] [--epsilon=X] [--seed0=N]
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/bubbles.hpp"
#include "analysis/ledger_reader.hpp"
#include "analysis/trace_view.hpp"
#include "bench_common.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "faults/fault_plan.hpp"
#include "scenario/artifacts.hpp"

using namespace autopipe;

namespace {

constexpr std::size_t kServers = 3;
constexpr std::size_t kGpusPerServer = 2;

struct ChaosOutcome {
  pipeline::PipelineExecutor::FaultStats stats;
  std::size_t active = 0;
  std::size_t wedges = 0;
  std::size_t emergency_replans = 0;
  std::size_t readmissions = 0;
  std::vector<double> end_times;
  std::string trace_text;
  std::string ledger_text;
  std::size_t ledger_size = 0;
  std::size_t decisions = 0;
  bool ledger_resolved = false;
  double fault_downtime = 0.0;
  double wall = 0.0;
  bool bubbles_exact = true;
};

/// One full simulated training run under `fault_plan` (empty plan = probe).
ChaosOutcome run_chaos(const faults::FaultPlan& fault_plan,
                       std::size_t iterations) {
  scenario::Spec spec;
  spec.sinks.trace = true;
  spec.sinks.ledger = true;
  spec.cluster.num_servers = kServers;
  spec.cluster.gpus_per_server = kGpusPerServer;
  spec.fault_plan = fault_plan;
  spec.job.model = models::alexnet();
  spec.job.planner_mode =
      partition::PipeDreamPlanner::Mode::kCurrentEnvironment;
  spec.job.controller = scenario::default_controller();
  spec.job.iterations = iterations;
  spec.job.warmup = 5;
  scenario::World world(std::move(spec));
  world.run();
  const pipeline::PipelineExecutor& executor = world.executor();
  const core::AutoPipeController& controller = *world.controller();
  const sim::Simulator& simulator = world.simulator();

  ChaosOutcome out;
  out.stats = executor.fault_stats();
  out.active = executor.active_batches();
  out.wedges = controller.stats().wedges_detected;
  out.emergency_replans = controller.stats().emergency_replans;
  out.readmissions = controller.stats().readmissions;
  out.end_times = world.report().iteration_end_times;
  out.trace_text =
      scenario::artifact_text(simulator, scenario::Artifact::kTrace);
  out.ledger_resolved = simulator.ledger().all_resolved();
  out.ledger_size = simulator.ledger().size();
  out.decisions = controller.stats().decisions;
  out.ledger_text =
      scenario::artifact_text(simulator, scenario::Artifact::kLedger);

  // Bubble attribution must still partition every worker's wall clock
  // exactly with the fault-downtime class in the mix.
  const analysis::TraceView view(simulator.tracer().events());
  const analysis::BubbleReport bubbles = analysis::attribute_bubbles(view);
  out.wall = bubbles.wall_clock;
  out.fault_downtime = bubbles.totals[static_cast<std::size_t>(
      analysis::BubbleClass::kFaultDowntime)];
  for (const analysis::WorkerBubbles& wb : bubbles.workers) {
    if (std::abs(wb.busy_seconds + wb.idle_seconds() - bubbles.wall_clock) >
        1e-6 * std::max(1.0, bubbles.wall_clock)) {
      out.bubbles_exact = false;
    }
  }
  return out;
}

/// Mean seconds/iteration over iterations [lo, hi), measured on elapsed
/// simulated time — deep pipelines complete iterations in bursts, so
/// per-iteration deltas are full of zeros and a median misleads.
double mean_period(const std::vector<double>& end_times, std::size_t lo,
                   std::size_t hi) {
  if (lo < 1) lo = 1;
  if (hi > end_times.size()) hi = end_times.size();
  if (hi <= lo) return 0.0;
  const double span = end_times[hi - 1] - end_times[lo - 1];
  return span > 0.0 ? span / static_cast<double>(hi - lo) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const Flags flags(argc, argv);
  const auto seeds = static_cast<std::size_t>(flags.get_int("seeds", 50));
  const auto seed0 = static_cast<std::size_t>(flags.get_int("seed0", 1));
  const auto iterations =
      static_cast<std::size_t>(flags.get_int("iterations", 100));
  const double epsilon = flags.get_double("epsilon", 0.35);

  // Fault-free probe: the measured iteration period anchors the schedule
  // shape so outages are a few iterations long, not a fixed wall-clock
  // guess that a slow model would never reach.
  const ChaosOutcome probe = run_chaos(faults::FaultPlan{}, 30);
  const double period = mean_period(probe.end_times, 3, 30);
  AUTOPIPE_EXPECT_MSG(period > 0.0, "probe run produced no usable periods");
  // Anchor the window on the probe's actual timeline: pipeline fill and
  // bursty completions (an in-flight window finishes at one timestamp) make
  // "N periods in" a poor guess for when iteration N lands. Faults begin
  // just after the probe's horizon so the chaos run has a ~27-iteration
  // healthy prefix to measure the pre-fault period on.
  const double fault_start = probe.end_times.back() + 2 * period;
  const double fault_clear = fault_start + 30 * period;
  std::cout << "probe: mean iteration period "
            << TextTable::num(period * 1e3, 2) << " ms; fault window ["
            << TextTable::num(fault_start, 2) << "s, "
            << TextTable::num(fault_clear, 2) << "s]\n\n";

  TextTable table({"seed", "events", "injected", "dropped", "wedges",
                   "emerg", "readmit", "downtime(s)", "pre(ms)", "post(ms)",
                   "verdict"});
  // Seeds are independent full-loop runs, so they fan out across the
  // --jobs pool; each body fills only its own row slot and the table is
  // assembled in seed order afterwards, keeping output identical at any
  // thread count.
  struct SeedRow {
    bool ok = false;
    std::vector<std::string> cells;
  };
  std::vector<SeedRow> rows(seeds);
  bench::for_each_scenario(seeds, [&](std::size_t s) {
    const std::size_t seed = seed0 + s;
    rows[s].ok = bench::run_scenario("seed " + std::to_string(seed), [&] {
      faults::ChaosSpec spec;
      spec.seed = seed;
      spec.start = fault_start;
      spec.clear_by = fault_clear;
      spec.min_outage = 2 * period;
      spec.max_outage = 8 * period;
      spec.flap_outage = 0.5 * period;
      const faults::FaultPlan fault_plan =
          faults::random_plan(spec, kServers, kGpusPerServer);

      const ChaosOutcome a = run_chaos(fault_plan, iterations);
      const ChaosOutcome b = run_chaos(fault_plan, iterations);

      // 2. conservation — run() returns the moment the target iteration
      // completes, so up to an in-flight window of batches legitimately
      // remains active; none may be unaccounted for.
      AUTOPIPE_EXPECT_MSG(
          a.stats.injected ==
              a.stats.completed + a.stats.dropped + a.active,
          "mini-batch conservation: injected " << a.stats.injected
              << " != completed " << a.stats.completed << " + dropped "
              << a.stats.dropped << " + in-flight " << a.active);
      AUTOPIPE_EXPECT_MSG(a.active <= 32,
                          a.active << " batches in flight at the end — "
                                      "more than any in-flight window");

      // 3. recovery: post-clear throughput within epsilon of pre-fault
      const auto& times = a.end_times;
      std::size_t pre_hi = 0;
      while (pre_hi < times.size() && times[pre_hi] < spec.start) ++pre_hi;
      std::size_t post_lo = pre_hi;
      while (post_lo < times.size() && times[post_lo] < spec.clear_by)
        ++post_lo;
      const double pre = mean_period(times, 3, pre_hi);
      const double post = mean_period(times, post_lo + 1, times.size());
      AUTOPIPE_EXPECT_MSG(pre > 0.0 && post > 0.0,
                          "not enough iterations around the fault window "
                          "(pre_hi=" << pre_hi << ", post_lo=" << post_lo
                              << ", total=" << times.size() << ")");
      AUTOPIPE_EXPECT_MSG(
          post <= pre / (1.0 - epsilon),
          "throughput did not recover: pre period " << pre << "s, post "
              << post << "s (epsilon " << epsilon << ")");

      // 4. determinism
      AUTOPIPE_EXPECT_MSG(a.trace_text == b.trace_text,
                          "same seed replayed to a different trace ("
                              << a.trace_text.size() << " vs "
                              << b.trace_text.size() << " bytes)");

      // Fault downtime must appear in (and not break) bubble attribution.
      AUTOPIPE_EXPECT_MSG(a.bubbles_exact,
                          "bubble classes no longer partition wall clock");

      // 5. ledger: one record per planning round, no dangling outcomes,
      // deterministic replay, and a lossless reader round-trip.
      AUTOPIPE_EXPECT_MSG(
          a.ledger_size == a.decisions,
          "ledger recorded " << a.ledger_size << " decisions but the "
              "controller made " << a.decisions);
      AUTOPIPE_EXPECT_MSG(a.ledger_resolved,
                          "ledger left dangling (pending) decision records "
                          "after finalize");
      AUTOPIPE_EXPECT_MSG(a.ledger_text == b.ledger_text,
                          "same seed replayed to a different ledger ("
                              << a.ledger_text.size() << " vs "
                              << b.ledger_text.size() << " bytes)");
      AUTOPIPE_EXPECT_MSG(analysis::ledger_round_trips(a.ledger_text),
                          "ledger does not round-trip through the reader");

      rows[s].cells = {std::to_string(seed),
                       std::to_string(fault_plan.size()),
                       std::to_string(a.stats.injected),
                       std::to_string(a.stats.dropped),
                       std::to_string(a.wedges),
                       std::to_string(a.emergency_replans),
                       std::to_string(a.readmissions),
                       TextTable::num(a.fault_downtime, 2),
                       TextTable::num(pre * 1e3, 2),
                       TextTable::num(post * 1e3, 2),
                       "ok"};
    });
  });
  std::size_t passed = 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    if (rows[s].ok) {
      ++passed;
      table.add_row(rows[s].cells);
    } else {
      table.add_row({std::to_string(seed0 + s), "-", "-", "-", "-", "-", "-",
                     "-", "-", "-", "FAIL"});
    }
  }
  table.print(std::cout, "chaos harness — randomized fault schedules");
  std::cout << "\n" << passed << "/" << seeds << " seeds passed\n";
  return bench::exit_status();
}
