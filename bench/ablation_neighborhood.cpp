// Ablation: AutoPipe's two-worker neighbourhood vs re-running the full DP
// on every resource change. The neighbourhood limits each reconfiguration
// to a cheap two-worker migration (gradual convergence to the optimum); the
// full re-plan may jump straight to the best shape but forces a much larger
// migration. We compare end throughput, switches and migrated state.
#include <functional>
#include <iostream>
#include <optional>
#include <string>

#include "autopipe/switch_cost.hpp"
#include "bench_common.hpp"

using namespace autopipe;

namespace {

struct Outcome {
  double throughput = 0.0;
  std::size_t switches = 0;
  double migrated_mb = 0.0;
};

/// Runs vgg16 on a 25 Gbps testbed for 50 iterations (20 warmup) from
/// PipeDream's plan, with every NIC dropping to 10 Gbps at iteration 10.
/// `observe` runs after the controller's round (if any) at every iteration
/// and returns the bytes the run migrated since its last call; `label`
/// names the run's artifacts.
Outcome run_arm(std::optional<core::ControllerConfig> controller,
                const std::function<double(bench::Testbed&, std::size_t)>&
                    observe,
                const std::string& label) {
  bench::Testbed t = bench::make_testbed(25);
  scenario::Job job;
  job.model = models::vgg16();
  job.controller = std::move(controller);
  job.iterations = 50;
  job.warmup = 20;
  sim::ResourceTrace trace;
  trace.at_iteration(10, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));

  double migrated = 0.0;
  t.world->set_iteration_observer(
      [&](std::size_t iters) { migrated += observe(t, iters); });
  const auto& report = bench::run_job(t, std::move(job), &trace, label);
  return Outcome{report.throughput, t.world->executor().switches_performed(),
                 migrated / 1e6};
}

/// Weight bytes a switch from `from` to `to` moves on the testbed as it is.
double migration_bytes(const bench::Testbed& t,
                       const partition::Partition& from,
                       const partition::Partition& to) {
  const partition::EnvironmentView env =
      partition::EnvironmentView::from_cluster(
          *t.cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
  return core::analytic_switch_cost(t.world->executor().model(), from, to,
                                    env, 0.1, 10, millis(2))
      .migration_bytes;
}

/// Neighbourhood mode: the regular controller (threshold arbiter) with
/// pure two-worker moves, tallying each switch it lands.
Outcome run_neighborhood() {
  core::ControllerConfig cc = scenario::default_controller();
  cc.decision_interval = 3;
  cc.replan_on_change = false;  // pure two-worker moves in this arm
  std::optional<partition::Partition> previous;
  return run_arm(
      cc,
      [&previous](bench::Testbed& t, std::size_t) {
        const partition::Partition& current =
            t.world->executor().current_partition();
        if (!previous) previous = t.world->plan()->partition;
        if (current == *previous) return 0.0;
        const double bytes = migration_bytes(t, *previous, current);
        previous = current;
        return bytes;
      },
      "neighborhood");
}

/// Full-replan mode: on the resource change, adopt the freshly-solved DP
/// plan wholesale (one big switch).
Outcome run_full_replan() {
  return run_arm(
      std::nullopt,
      [](bench::Testbed& t, std::size_t iters) {
        pipeline::PipelineExecutor& executor = t.world->executor();
        if (iters != 12 || executor.switch_in_progress()) return 0.0;
        const auto replan = bench::plan_current(
            t, models::vgg16(), comm::pytorch_profile(),
            comm::SyncScheme::kRing);
        const double bytes = migration_bytes(t, executor.current_partition(),
                                             replan.partition);
        executor.request_switch(
            replan.partition,
            pipeline::PipelineExecutor::SwitchMode::kFineGrained);
        return bytes;
      },
      "full_replan");
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const Outcome nb = run_neighborhood();
  const Outcome full = run_full_replan();
  TextTable table({"strategy", "throughput (img/s)", "switches",
                   "migrated (MB)"});
  table.add_row({"two-worker neighbourhood", TextTable::num(nb.throughput, 1),
                 std::to_string(nb.switches), TextTable::num(nb.migrated_mb, 1)});
  table.add_row({"full DP re-plan", TextTable::num(full.throughput, 1),
                 std::to_string(full.switches),
                 TextTable::num(full.migrated_mb, 1)});
  table.print(std::cout,
              "Ablation — neighbourhood search vs full re-plan "
              "(VGG16, 25 Gbps -> 10 Gbps)");
  std::cout << "\nThe neighbourhood migrates gradually with small cheap "
               "switches, but hill-climbs into\nlocal optima when several "
               "stages degrade at once; the one-shot re-plan moves more\n"
               "state but lands on the globally better shape. AutoPipe's "
               "deployed controller therefore\ncombines both: re-plan on "
               "detected changes, neighbourhood fine-tuning in between.\n";
  return bench::exit_status();
}
