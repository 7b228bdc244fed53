#include "parity/replay.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "faults/switch_fault_plan.hpp"
#include "scenario/world.hpp"

namespace autopipe::parity {

namespace {

// Small shared testbed (3 servers × 2 GPUs) — big enough for real pipeline
// stages, migrations and cross-server flows, small enough that 50+ seeds ×
// 2 runs stay fast.
constexpr std::size_t kServers = 3;
constexpr std::size_t kGpusPerServer = 2;

faults::FaultPlan plan_for_seed(std::uint64_t seed, std::size_t servers) {
  // A 12-iteration alexnet run on this testbed spans roughly 0.8 simulated
  // seconds; the default ChaosSpec window (seconds to tens of seconds)
  // would schedule every fault past the end of the run. Compress the whole
  // schedule into the first ~0.6 s so preemptions, link failures, flaps,
  // stragglers and profiler drops all land mid-pipeline.
  faults::ChaosSpec spec;
  spec.seed = seed;
  spec.start = 0.05;
  spec.clear_by = 0.6;
  spec.min_outage = 0.02;
  spec.max_outage = 0.15;
  spec.flap_outage = 0.01;
  return faults::random_plan(spec, servers, kGpusPerServer);
}

/// Arm a seed-derived SwitchFaultPlan crash point and trigger a
/// deterministic mid-run switch against it.
void arm_mid_switch_fault(const ScenarioConfig& config, scenario::World& world,
                          std::optional<faults::SwitchFaultPlan>& plan) {
  static constexpr pipeline::SwitchPhase kPhases[] = {
      pipeline::SwitchPhase::kPrepare, pipeline::SwitchPhase::kDrain,
      pipeline::SwitchPhase::kTransfer, pipeline::SwitchPhase::kCommit};
  static constexpr faults::FaultEvent::Kind kKinds[] = {
      faults::FaultEvent::Kind::kGpuDown, faults::FaultEvent::Kind::kLinkDown,
      faults::FaultEvent::Kind::kStragglerBegin,
      faults::FaultEvent::Kind::kProfilerDrop};
  faults::SwitchCrashPoint point;
  point.phase = kPhases[config.seed % 4];
  point.kind = kKinds[(config.seed / 4) % 4];
  point.nth_attempt = 0;  // hit retries of the aborted switch too
  point.max_shots = 4;    // bounded: commit-phase outages would otherwise
                          // re-fire on every readmission commit, forever
  point.recover_after = 0.1;
  plan.emplace(world.cluster(), world.executor());
  plan->add(point);

  // Drain is a stop-the-world-only phase; otherwise let the seed pick.
  using SwitchMode = pipeline::PipelineExecutor::SwitchMode;
  const SwitchMode mode =
      point.phase == pipeline::SwitchPhase::kDrain || config.seed % 2 == 0
          ? SwitchMode::kStopTheWorld
          : SwitchMode::kFineGrained;
  pipeline::PipelineExecutor& executor = world.executor();
  world.simulator().after(
      0.12,
      [&executor, mode] {
        executor.request_switch(rotate_workers(executor.current_partition()),
                                mode);
      },
      "parity_switch_trigger");
}

}  // namespace

scenario::Capture run_scenario(const ScenarioConfig& config) {
  scenario::Spec spec;
  // Fine time-series cadence relative to the ~0.8 s run so dozens of rows
  // land between events; rows must be byte-identical across replays.
  spec.sinks = {true, true, 0.02};
  const std::size_t servers =
      config.fleet_jobs > 0 ? std::max(kServers, config.fleet_jobs)
                            : kServers;
  spec.cluster.num_servers = servers;
  spec.cluster.gpus_per_server = kGpusPerServer;
  if (config.background_churn) {
    // Rates scaled to the sub-second run the same way the fault plan is:
    // a handful of tenant arrivals and NIC cuts per run instead of the
    // default hours-scale Poisson processes.
    sim::BackgroundWorkloadConfig bg;
    bg.gpu_job_rate = 4.0;
    bg.net_job_rate = 4.0;
    bg.mean_gpu_job_duration = 0.2;
    bg.mean_net_job_duration = 0.2;
    bg.horizon = 1.0;
    spec.churn = bg;
    spec.seed = config.seed ^ 0x9e3779b97f4a7c15ull;
  }
  if (config.inject_faults)
    spec.fault_plan = plan_for_seed(config.seed, servers);

  if (config.fleet_jobs > 0) {
    // Co-tenant fleet: JobManager-driven jobs replace the single
    // executor/controller pair; claim windows, arbiter decisions and
    // contention aborts all land in the compared artifacts.
    static constexpr const char* kMix[] = {"alexnet", "resnet18"};
    for (std::size_t k = 0; k < config.fleet_jobs; ++k) {
      cluster::JobSpec job;
      job.model = kMix[k % 2];
      job.iterations = config.iterations;
      job.warmup = config.warmup;
      job.priority = 1.0 + static_cast<double>(k % 3);
      spec.fleet.jobs.push_back(std::move(job));
    }
    scenario::World world(std::move(spec));
    world.run();
    return scenario::capture(world);
  }

  spec.job.model = models::alexnet();
  spec.job.planner_mode =
      partition::PipeDreamPlanner::Mode::kCurrentEnvironment;
  // The planner's pick for this testbed is single-stage data parallelism,
  // where every worker replicates every layer and a switch has nothing to
  // move. Mid-switch scenarios start from an even pipeline split instead so
  // the Transfer phase carries real weight migrations to interrupt.
  spec.job.even_split = config.mid_switch_faults;
  spec.job.controller = scenario::default_controller();
  spec.job.iterations = config.iterations;
  spec.job.warmup = config.warmup;
  scenario::World world(std::move(spec));
  world.launch();
  // The plan must outlive the run: it holds the executor-side phase
  // observer and the recovery events it schedules.
  std::optional<faults::SwitchFaultPlan> switch_faults;
  if (config.mid_switch_faults)
    arm_mid_switch_fault(config, world, switch_faults);
  world.run();
  return scenario::capture(world);
}

scenario::Divergence run_replay(const ScenarioConfig& config) {
  const scenario::Capture first = run_scenario(config);
  const scenario::Capture replay = run_scenario(config);
  return scenario::compare(first, replay);
}

partition::Partition rotate_workers(const partition::Partition& current) {
  std::vector<partition::StageAssignment> stages = current.stages();
  if (stages.size() > 1) {
    std::vector<sim::WorkerId> first = stages.front().workers;
    for (std::size_t s = 0; s + 1 < stages.size(); ++s)
      stages[s].workers = stages[s + 1].workers;
    stages.back().workers = std::move(first);
  }
  return partition::Partition(std::move(stages), current.num_layers());
}

}  // namespace autopipe::parity
