// Scenario assembler tests (ctest -L scenario): a World built from a Spec
// replays byte-for-byte, recording sinks never perturb the simulation, and
// the sweep runner's results are exactly a World's. Two scenarios cover the
// two shapes: one single-job chaos run (churn + a seeded fault plan under
// the AutoPipe controller) and one 4-job auction fleet with a scripted
// preemption.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/artifacts.hpp"
#include "scenario/world.hpp"
#include "sweep/runner.hpp"

namespace autopipe::scenario {
namespace {

constexpr const char* kChaosFaults =
    "random:seed=7,start=0.1,clear=0.8,min_outage=0.02,max_outage=0.15";

Spec chaos_spec() {
  Spec spec;
  spec.cluster.num_servers = 3;
  spec.cluster.gpus_per_server = 2;
  // Churn scaled to the sub-second run so tenants actually arrive.
  sim::BackgroundWorkloadConfig churn;
  churn.gpu_job_rate = 4.0;
  churn.net_job_rate = 4.0;
  churn.mean_gpu_job_duration = 0.2;
  churn.mean_net_job_duration = 0.2;
  churn.horizon = 1.0;
  spec.churn = churn;
  spec.seed = 11;
  spec.faults = kChaosFaults;
  spec.job.model = models::alexnet();
  spec.job.controller = default_controller();
  spec.job.iterations = 15;
  spec.job.warmup = 5;
  return spec;
}

Spec fleet_spec() {
  Spec spec;
  spec.cluster.num_servers = 4;
  spec.cluster.gpus_per_server = 2;
  spec.churn = default_churn();
  spec.seed = 5;
  spec.fleet.arbiter = "auction";
  const char* models[] = {"alexnet", "vgg16", "resnet18", "alexnet"};
  for (std::size_t k = 0; k < 4; ++k) {
    cluster::JobSpec job;
    job.model = models[k];
    job.iterations = 12 + 2 * k;
    job.warmup = 4;
    job.priority = 1.0 + static_cast<double>(k);
    spec.fleet.jobs.push_back(job);
  }
  spec.fleet.preempts.push_back({1, 0.6, 0.8});
  return spec;
}

Spec with_sinks(Spec spec) {
  spec.sinks = {true, true, 0.05};
  return spec;
}

struct Outcome {
  Summary summary;
  Capture capture;
  std::string chrome_trace;
};

Outcome run(const Spec& spec) {
  World world(spec);
  Outcome out;
  out.summary = world.run();
  out.capture = capture(world);
  out.chrome_trace = artifact_text(world.simulator(), Artifact::kChromeTrace);
  return out;
}

void expect_same_simulation(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.summary.throughput, b.summary.throughput);
  EXPECT_EQ(a.capture.iteration_end_times, b.capture.iteration_end_times);
  EXPECT_EQ(a.summary.events, b.summary.events);
  EXPECT_EQ(a.summary.switches, b.summary.switches);
  EXPECT_EQ(a.summary.switch_aborts, b.summary.switch_aborts);
}

class ScenarioShapes : public ::testing::TestWithParam<bool> {
 protected:
  Spec spec() const { return GetParam() ? fleet_spec() : chaos_spec(); }
};

TEST_P(ScenarioShapes, SameSpecReplaysByteIdentically) {
  const Outcome a = run(with_sinks(spec()));
  const Outcome b = run(with_sinks(spec()));
  ASSERT_GT(a.summary.events, 0u);
  ASSERT_FALSE(a.capture.trace.empty());  // the trace recorded the run
  expect_same_simulation(a, b);
  const Divergence d = compare(a.capture, b.capture);
  EXPECT_TRUE(d.identical) << d.report;
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
}

TEST_P(ScenarioShapes, SinksDoNotPerturbTheSimulation) {
  const Outcome on = run(with_sinks(spec()));
  const Outcome off = run(spec());
  expect_same_simulation(on, off);
}

INSTANTIATE_TEST_SUITE_P(ChaosAndFleet, ScenarioShapes,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Fleet" : "ChaosSingleJob";
                         });

TEST(ScenarioShapes, ChaosRunInjectsFaultsAndChurn) {
  World world(with_sinks(chaos_spec()));
  EXPECT_GT(world.fault_plan().size(), 0u);
  world.run();
  std::size_t tenant_events = 0;
  for (const trace::Event& ev : world.simulator().tracer().events())
    if (ev.name == "bg_add") ++tenant_events;
  EXPECT_GT(tenant_events, 0u);
}

void expect_same_result(const sweep::ScenarioResult& swept,
                        const Summary& s, const World& world) {
  ASSERT_TRUE(swept.ok) << swept.error;
  EXPECT_EQ(swept.throughput, s.throughput);
  EXPECT_EQ(swept.utilization, s.utilization);
  EXPECT_EQ(swept.batch, s.batch);
  EXPECT_EQ(swept.switches, s.switches);
  EXPECT_EQ(swept.switch_aborts, s.switch_aborts);
  EXPECT_EQ(swept.events, s.events);
  EXPECT_EQ(swept.iteration_p50_ms, s.iteration_p50_ms);
  EXPECT_EQ(swept.iteration_p95_ms, s.iteration_p95_ms);
  EXPECT_EQ(swept.iteration_p99_ms, s.iteration_p99_ms);
  if (world.spec().fleet.jobs.empty()) {
    EXPECT_EQ(swept.fleet_jain, 0.0);
    EXPECT_TRUE(swept.job_throughputs.empty());
    return;
  }
  const cluster::FleetReport& fleet = world.fleet_report();
  EXPECT_EQ(swept.fleet_jain, fleet.jain);
  EXPECT_EQ(swept.fleet_conflicts, fleet.conflicts);
  EXPECT_EQ(swept.fleet_grants, fleet.grants);
  EXPECT_EQ(swept.fleet_contention_aborts, fleet.contention_aborts);
  std::vector<double> jobs;
  for (const auto& job : fleet.jobs) jobs.push_back(job.report.throughput);
  EXPECT_EQ(swept.job_throughputs, jobs);
}

TEST(ScenarioSweep, RunScenarioMatchesWorldSingleJob) {
  sweep::ScenarioSpec row;
  row.model = "alexnet";
  row.servers = 3;
  row.gpus_per_server = 2;
  row.bandwidth_gbps = 25.0;
  row.churn = true;
  row.faults = kChaosFaults;
  row.seed = 11;
  row.iterations = 15;
  row.warmup = 5;
  const sweep::ScenarioResult swept = sweep::run_scenario(row);

  Spec spec;
  spec.cluster.num_servers = 3;
  spec.cluster.gpus_per_server = 2;
  spec.cluster.nic_bandwidth = gbps(25.0);
  spec.churn = default_churn();
  spec.seed = 11;
  spec.faults = kChaosFaults;
  spec.job.model = models::alexnet();
  spec.job.controller = default_controller();
  spec.job.iterations = 15;
  spec.job.warmup = 5;
  World world(spec);
  const Summary s = world.run();
  expect_same_result(swept, s, world);
}

TEST(ScenarioSweep, RunScenarioMatchesWorldFleet) {
  sweep::ScenarioSpec row;
  row.model = "alexnet";
  row.servers = 4;
  row.gpus_per_server = 2;
  row.bandwidth_gbps = 25.0;
  row.churn = true;
  row.seed = 5;
  row.jobs = 4;
  row.job_models = "alexnet+vgg16+resnet18";
  row.arbiter = "auction";
  row.iterations = 14;
  row.warmup = 4;
  const sweep::ScenarioResult swept = sweep::run_scenario(row);

  Spec spec;
  spec.cluster.num_servers = 4;
  spec.cluster.gpus_per_server = 2;
  spec.cluster.nic_bandwidth = gbps(25.0);
  spec.churn = default_churn();
  spec.seed = 5;
  spec.fleet.arbiter = "auction";
  const char* models[] = {"alexnet", "vgg16", "resnet18", "alexnet"};
  for (const char* model : models) {
    cluster::JobSpec job;
    job.model = model;
    job.iterations = 14;
    job.warmup = 4;
    spec.fleet.jobs.push_back(job);
  }
  World world(spec);
  const Summary s = world.run();
  expect_same_result(swept, s, world);
}

}  // namespace
}  // namespace autopipe::scenario
