// End-to-end integration tests: the paper's headline claims as assertions.
// Each test is a miniature of one evaluation scenario — static shared
// cluster, bandwidth drop, GPU contention — comparing PipeDream's one-shot
// configuration with re-planning and with the full AutoPipe loop.
#include <gtest/gtest.h>

#include <memory>

#include "autopipe/controller.hpp"
#include "baselines/data_parallel.hpp"
#include "common/units.hpp"
#include "models/zoo.hpp"
#include "partition/pipedream_planner.hpp"
#include "pipeline/executor.hpp"
#include "scenario/training.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"

namespace autopipe {
namespace {

/// The paper's testbed at a chosen bandwidth.
std::unique_ptr<sim::Cluster> testbed(sim::Simulator& sim, double bw_gbps) {
  sim::ClusterConfig config;
  config.nic_bandwidth = gbps(bw_gbps);
  return std::make_unique<sim::Cluster>(sim, config);
}

partition::PlanResult pipedream_plan(const sim::Cluster& cluster,
                                     const models::ModelSpec& model) {
  const auto env = partition::EnvironmentView::from_cluster(
      cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
  partition::PipeDreamPlanner planner(model, env,
                                      model.default_batch_size());
  return planner.plan(cluster.num_workers());
}

TEST(Integration, PipeDreamPlanBeatsNaiveEvenSplit) {
  const auto model = models::vgg16();
  double planned, naive;
  {
    sim::Simulator sim;
    auto cluster = testbed(sim, 25);
    const auto plan = pipedream_plan(*cluster, model);
    pipeline::PipelineExecutor executor(*cluster, model, plan.partition,
                                        pipeline::ExecutorConfig{});
    planned = executor.run(40, 10).throughput;
  }
  {
    sim::Simulator sim;
    auto cluster = testbed(sim, 25);
    pipeline::PipelineExecutor executor(
        *cluster, model,
        partition::Partition::even_split(model.num_layers(),
                                         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}),
        pipeline::ExecutorConfig{});
    naive = executor.run(40, 10).throughput;
  }
  EXPECT_GT(planned, naive);
}

TEST(Integration, BandwidthDropMakesStalePlanSuboptimal) {
  // Fig 3's mechanism: halve the bandwidth; the one-shot plan loses to a
  // re-planned configuration executed in the same degraded environment.
  const auto model = models::vgg16();
  double stale, replanned;
  {
    sim::Simulator sim;
    auto cluster = testbed(sim, 25);
    const auto plan = pipedream_plan(*cluster, model);  // planned at 25G
    cluster->set_all_nic_bandwidth(gbps(10));           // runs at 10G
    pipeline::PipelineExecutor executor(*cluster, model, plan.partition,
                                        pipeline::ExecutorConfig{});
    stale = executor.run(40, 10).throughput;
  }
  {
    sim::Simulator sim;
    auto cluster = testbed(sim, 10);                     // planned at 10G
    const auto plan = pipedream_plan(*cluster, model);
    pipeline::PipelineExecutor executor(*cluster, model, plan.partition,
                                        pipeline::ExecutorConfig{});
    replanned = executor.run(40, 10).throughput;
  }
  EXPECT_GT(replanned, stale * 1.05);
}

TEST(Integration, AutoPipeRecoversFromBandwidthDrop) {
  // Fig 9's mechanism in miniature: under a mid-run bandwidth change,
  // AutoPipe (threshold arbiter + analytic predictor) must beat the static
  // PipeDream configuration over the post-change window.
  const auto model = models::vgg16();
  auto run_once = [&](bool autopipe_on) {
    sim::Simulator sim;
    auto cluster = testbed(sim, 25);
    const auto plan = pipedream_plan(*cluster, model);
    pipeline::PipelineExecutor executor(*cluster, model, plan.partition,
                                        pipeline::ExecutorConfig{});
    core::ControllerConfig cc;
    cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
    cc.use_meta_network = false;
    cc.decision_interval = 3;
    std::unique_ptr<core::AutoPipeController> controller;
    if (autopipe_on) {
      controller = std::make_unique<core::AutoPipeController>(
          *cluster, executor, cc, nullptr, nullptr);
    }
    sim::ResourceTrace trace;
    trace.at_iteration(10,
                       sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
    executor.set_iteration_callback([&](std::size_t iters) {
      trace.apply_iteration(iters, *cluster);
      if (controller) controller->on_iteration(iters);
    });
    // Measure well after the change so the static penalty dominates.
    return executor.run(60, 25).throughput;
  };
  const double without = run_once(false);
  const double with = run_once(true);
  EXPECT_GT(with, without);
}

TEST(Integration, AutoPipeRecoversFromGpuContention) {
  // Fig 10's mechanism: background jobs land on two GPUs; AutoPipe should
  // shift work off the contended workers.
  const auto model = models::resnet50();
  auto run_once = [&](bool autopipe_on) {
    sim::Simulator sim;
    auto cluster = testbed(sim, 25);
    const auto plan = pipedream_plan(*cluster, model);
    pipeline::PipelineExecutor executor(*cluster, model, plan.partition,
                                        pipeline::ExecutorConfig{});
    core::ControllerConfig cc;
    cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kThreshold;
    cc.use_meta_network = false;
    cc.decision_interval = 3;
    std::unique_ptr<core::AutoPipeController> controller;
    if (autopipe_on) {
      controller = std::make_unique<core::AutoPipeController>(
          *cluster, executor, cc, nullptr, nullptr);
    }
    sim::ResourceTrace trace;
    trace.at_iteration(8, sim::ResourceTrace::add_gpu_job(0));
    trace.at_iteration(8, sim::ResourceTrace::add_gpu_job(0));
    trace.at_iteration(8, sim::ResourceTrace::add_gpu_job(1));
    executor.set_iteration_callback([&](std::size_t iters) {
      trace.apply_iteration(iters, *cluster);
      if (controller) controller->on_iteration(iters);
    });
    return executor.run(50, 20).throughput;
  };
  const double without = run_once(false);
  const double with = run_once(true);
  EXPECT_GT(with, without * 0.98);  // at minimum it must not hurt
}

TEST(Integration, PipelineBeatsDataParallelBaselineAt10G) {
  // Fig 8's baseline relationship on the slowest network, where data
  // parallelism's full-model synchronization is most expensive.
  const auto model = models::vgg16();
  double dp, pipe;
  {
    sim::Simulator sim;
    auto cluster = testbed(sim, 10);
    std::vector<sim::WorkerId> all(cluster->num_workers());
    for (sim::WorkerId w = 0; w < all.size(); ++w) all[w] = w;
    dp = baselines::run_data_parallel(*cluster, model, all, 10, 2)
             .throughput;
  }
  {
    sim::Simulator sim;
    auto cluster = testbed(sim, 10);
    const auto plan = pipedream_plan(*cluster, model);
    pipeline::PipelineExecutor executor(*cluster, model, plan.partition,
                                        pipeline::ExecutorConfig{});
    pipe = executor.run(40, 10).throughput;
  }
  EXPECT_GT(pipe, dp);
}

TEST(Integration, EndToEndWithTrainedComponents) {
  // The full stack: simulator-labelled dataset -> trained meta-network ->
  // offline-trained arbiter -> deployment with online adaptation. Smoke
  // asserts: everything runs, decisions happen, training completes.
  const auto model = models::alexnet();
  const core::FeatureEncoder enc;

  core::ScenarioConfig scenario;
  scenario.measure_iterations = 3;
  scenario.warmup_iterations = 1;
  auto data = core::generate_speed_dataset(model, 24, 101, enc, scenario);

  core::MetaNetworkConfig mc;
  mc.dynamic_dim = enc.dynamic_dim();
  mc.static_dim = enc.static_dim();
  mc.partition_dim = enc.partition_dim();
  core::MetaNetwork meta(mc, 7);
  core::train_meta_network(meta, data, 10, 8, 11);

  rl::DqnConfig dc;
  dc.state_dim = enc.arbiter_dim();
  rl::DqnAgent agent(dc, 13);
  core::train_arbiter_offline(agent, model, 2, 10, 17, &meta, scenario);

  // Deploy.
  agent.begin_online_adaptation();
  meta.begin_online_adaptation();
  sim::Simulator sim;
  auto cluster = testbed(sim, 25);
  const auto plan = pipedream_plan(*cluster, model);
  pipeline::PipelineExecutor executor(*cluster, model, plan.partition,
                                      pipeline::ExecutorConfig{});
  core::ControllerConfig cc;
  cc.arbiter_mode = core::ControllerConfig::ArbiterMode::kRl;
  cc.use_meta_network = true;
  cc.decision_interval = 4;
  core::AutoPipeController controller(*cluster, executor, cc, &meta, &agent);
  controller.attach();

  sim::ResourceTrace trace;
  trace.at_iteration(10, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  executor.set_iteration_callback([&](std::size_t iters) {
    trace.apply_iteration(iters, *cluster);
    controller.on_iteration(iters);
  });
  const auto report = executor.run(30, 5);
  EXPECT_GT(report.throughput, 0.0);
  EXPECT_GT(controller.stats().decisions, 0u);
}

}  // namespace
}  // namespace autopipe
