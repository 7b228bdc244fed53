// AutoPipe-core tests: the non-intrusive profiler against ground truth,
// feature encoding, meta-network learning, switch-cost arithmetic, the
// resource monitor's change detection, and the controller loop end-to-end.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "autopipe/controller.hpp"
#include "common/expect.hpp"
#include "autopipe/features.hpp"
#include "autopipe/meta_network.hpp"
#include "autopipe/profiler.hpp"
#include "autopipe/resource_monitor.hpp"
#include "autopipe/switch_cost.hpp"
#include "common/units.hpp"
#include "models/zoo.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/pipedream_planner.hpp"
#include "partition_fixtures.hpp"
#include "pipeline/executor.hpp"
#include "scenario/training.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"

namespace autopipe::core {
namespace {

models::ModelSpec toy_model(std::size_t layers = 6) {
  std::vector<models::LayerSpec> specs;
  for (std::size_t l = 0; l < layers; ++l) {
    models::LayerSpec s;
    s.name = "l" + std::to_string(l);
    s.fwd_flops_per_sample = 100.0 * static_cast<double>(1 + l % 2);
    s.bwd_flops_per_sample = 2.0 * s.fwd_flops_per_sample;
    s.activation_bytes_per_sample = 20.0;
    s.param_bytes = 400.0;
    specs.push_back(std::move(s));
  }
  return models::ModelSpec("toy", 4, std::move(specs));
}

struct Rig {
  explicit Rig(std::size_t servers = 3, double gpu_flops = 1e4,
               double nic = 1e5) {
    config.num_servers = servers;
    config.gpus_per_server = 1;
    config.gpu_specs = {sim::GpuSpec{"toy", gpu_flops, gib(16)}};
    config.nic_bandwidth = nic;
    cluster = std::make_unique<sim::Cluster>(sim, config);
  }
  sim::Simulator sim;
  sim::ClusterConfig config;
  std::unique_ptr<sim::Cluster> cluster;
};

pipeline::ExecutorConfig clean_config() {
  pipeline::ExecutorConfig c;
  c.framework.per_layer_overhead = 0.0;
  c.framework.comm_efficiency = 1.0;
  c.framework.compute_efficiency = 1.0;
  return c;
}

TEST(Profiler, StaticMetricsMatchModel) {
  const auto model = toy_model();
  Profiler profiler(model, 4);
  Rig rig;
  pipeline::PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1, 2}),
      clean_config());
  executor.run(5, 1);
  const ProfileSnapshot snap = profiler.snapshot(executor, *rig.cluster);
  EXPECT_EQ(snap.num_layers, model.num_layers());
  EXPECT_EQ(snap.num_workers, rig.cluster->num_workers());
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    EXPECT_DOUBLE_EQ(snap.activation_bytes[l], model.activation_bytes(l, 4));
    EXPECT_DOUBLE_EQ(snap.gradient_bytes[l], model.gradient_bytes(l, 4));
    EXPECT_DOUBLE_EQ(snap.param_bytes[l], model.param_bytes(l));
  }
  EXPECT_GT(snap.iteration_time, 0.0);
}

TEST(Profiler, ImpliedWorkerSpeedTracksGroundTruth) {
  const auto model = toy_model();
  Profiler profiler(model, 4);
  Rig rig;
  pipeline::PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1, 2}),
      clean_config());
  executor.run(10, 2);
  const ProfileSnapshot snap = profiler.snapshot(executor, *rig.cluster);
  // Workers host stages; their implied speed should be within queueing
  // noise of the 1e4 FLOP/s device rate.
  for (sim::WorkerId w = 0; w < 3; ++w) {
    EXPECT_GT(snap.worker_speed[w], 0.5 * 1e4);
    EXPECT_LT(snap.worker_speed[w], 1.5 * 1e4);
  }
}

TEST(Profiler, RatioEstimatedLayerTimesSumToStageTime) {
  const auto model = toy_model();
  Profiler profiler(model, 4);
  Rig rig;
  pipeline::PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1, 2}),
      clean_config());
  executor.run(10, 2);
  const ProfileSnapshot snap = profiler.snapshot(executor, *rig.cluster);
  // FP_{w,l} built from ratios: per-layer times are positive and ordered by
  // the layer's FLOPs for a fixed worker.
  for (std::size_t l = 0; l + 1 < model.num_layers(); l += 2) {
    // layers alternate 100/200 FLOPs per sample
    EXPECT_LT(snap.fp_time[0][l], snap.fp_time[0][l + 1]);
  }
}

TEST(Profiler, DetectsContentionThroughStageTimes) {
  const auto model = toy_model();
  Profiler profiler(model, 4);
  Rig rig;
  pipeline::PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1, 2}),
      clean_config());
  // Poll the profiler every iteration, as the controller does.
  ProfileSnapshot last;
  executor.set_iteration_callback([&](std::size_t) {
    last = profiler.snapshot(executor, *rig.cluster);
  });
  executor.run(10, 2);
  const double before = last.worker_speed[1];
  rig.cluster->add_background_job(1);
  executor.run(15, 2);
  const double after = last.worker_speed[1];
  EXPECT_LT(after, 0.75 * before);  // tenant 2 should read ≈ half speed
}

TEST(Features, DimensionsAreConsistent) {
  const FeatureEncoder enc;
  const auto model = toy_model();
  Profiler profiler(model, 4);
  Rig rig;
  pipeline::PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1, 2}),
      clean_config());
  executor.run(5, 1);
  const ProfileSnapshot snap = profiler.snapshot(executor, *rig.cluster);
  EXPECT_EQ(enc.static_features(snap).size(), enc.static_dim());
  EXPECT_EQ(enc.dynamic_features(snap).size(), enc.dynamic_dim());
  EXPECT_EQ(enc.partition_features(executor.current_partition(),
                                   model.num_layers())
                .size(),
            enc.partition_dim());
  EXPECT_EQ(enc.arbiter_state(snap, 10, 12, 0.1, 3).size(),
            enc.arbiter_dim());
}

TEST(Features, PartitionEncodingDistinguishesPartitions) {
  const FeatureEncoder enc;
  const auto a = partition::Partition::even_split(6, {0, 1, 2});
  const partition::Partition b({{0, 3, {0}}, {4, 4, {1}}, {5, 5, {2}}}, 6);
  EXPECT_NE(enc.partition_features(a, 6), enc.partition_features(b, 6));
}

TEST(Features, ThroughputNormalizationRoundTrips) {
  const FeatureEncoder enc;
  EXPECT_NEAR(enc.denormalize_throughput(enc.normalize_throughput(123.0)),
              123.0, 1e-9);
}

TEST(MetaNetwork, LearnsSyntheticSpeedFunction) {
  // Target: speed proportional to the balance of the partition encoding —
  // any smooth function works; we check the MSE drops by 5x.
  MetaNetworkConfig config;
  config.dynamic_dim = 4;
  config.static_dim = 3;
  config.partition_dim = 5;
  config.lstm_hidden = 8;
  config.head_hidden = {16};
  MetaNetwork meta(config, 11);

  Rng rng(5);
  auto make_sample = [&] {
    SpeedSample s;
    s.dynamic_seq.assign(3, std::vector<double>(4));
    for (auto& step : s.dynamic_seq)
      for (double& v : step) v = rng.uniform(0, 1);
    s.static_feat = {rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)};
    s.partition_feat.assign(5, 0.0);
    for (double& v : s.partition_feat) v = rng.uniform(0, 1);
    s.target = 0.5 * s.partition_feat[0] + 0.3 * s.dynamic_seq[2][1] +
               0.2 * s.static_feat[1];
    return s;
  };
  std::vector<SpeedSample> data;
  for (int i = 0; i < 128; ++i) data.push_back(make_sample());

  double first_loss = 0.0, last_loss = 0.0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    const double loss = meta.train_batch(data);
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss / 5.0);
}

TEST(MetaNetwork, SaveLoadRoundTrip) {
  MetaNetworkConfig config;
  config.dynamic_dim = 3;
  config.static_dim = 2;
  config.partition_dim = 4;
  config.lstm_hidden = 4;
  config.head_hidden = {8};
  MetaNetwork a(config, 1);
  const std::vector<std::vector<double>> seq(2, {0.1, 0.2, 0.3});
  const std::vector<double> st = {0.4, 0.5};
  const std::vector<double> pf = {0.1, 0.9, 0.2, 0.8};
  const double before = a.predict(seq, st, pf);
  std::stringstream ss;
  a.save(ss);
  MetaNetwork b(config, 999);
  b.load(ss);
  EXPECT_DOUBLE_EQ(b.predict(seq, st, pf), before);
}

TEST(SwitchCost, AnalyticArithmetic) {
  const auto model = toy_model(6);
  const partition::Partition from = partition::Partition::even_split(6, {0, 1, 2});
  const partition::Partition to({{0, 2, {0}}, {3, 3, {1}}, {4, 5, {2}}}, 6);
  partition::EnvironmentView env;
  env.worker_speed.assign(3, 1e4);
  env.worker_bandwidth.assign(3, 1e5);
  const auto cost = analytic_switch_cost(model, from, to, env, 0.1, 3,
                                         millis(2));
  // Layer 2 moves from worker 1 to worker 0; layer 3 moves from 1 to ...
  // from: {0,1}{2,3}{4,5}; to: {0,1,2}{3}{4,5} -> layer 2 gains worker 0.
  EXPECT_DOUBLE_EQ(cost.migration_bytes, 400.0);
  EXPECT_EQ(cost.moved_layers, 1u);
  EXPECT_EQ(cost.changed_workers, 2u);
  EXPECT_GT(cost.stop_the_world, cost.fine_grained);
  // Stop-the-world includes the drain+refill bubble: 2 x 3 x 0.1 = 0.6 s.
  EXPECT_GT(cost.stop_the_world, 0.6);
}

TEST(SwitchCost, NoChangeCostsNothing) {
  const auto model = toy_model(6);
  const auto p = partition::Partition::even_split(6, {0, 1, 2});
  partition::EnvironmentView env;
  env.worker_speed.assign(3, 1e4);
  env.worker_bandwidth.assign(3, 1e5);
  const auto cost = analytic_switch_cost(model, p, p, env, 0.1, 3, millis(2));
  EXPECT_DOUBLE_EQ(cost.migration_bytes, 0.0);
  EXPECT_DOUBLE_EQ(cost.fine_grained, 0.0);
}

TEST(ResourceMonitor, DetectsPersistentBandwidthStep) {
  ResourceMonitor monitor(0.15, 0.3, /*persistence=*/3);
  ProfileSnapshot snap;
  snap.worker_bandwidth = {100.0, 100.0};
  snap.worker_speed = {10.0, 10.0};
  EXPECT_FALSE(monitor.update(snap).changed);  // priming
  EXPECT_FALSE(monitor.update(snap).changed);  // steady
  snap.worker_bandwidth[1] = 50.0;             // halved
  // The deviation must persist for 3 consecutive snapshots.
  EXPECT_FALSE(monitor.update(snap).changed);
  EXPECT_FALSE(monitor.update(snap).changed);
  const auto change = monitor.update(snap);
  EXPECT_TRUE(change.changed);
  EXPECT_GT(change.magnitude, 0.4);
  EXPECT_NE(change.description.find("worker 1"), std::string::npos);
  // Baseline snapped: the same reading is no longer a change.
  EXPECT_FALSE(monitor.update(snap).changed);
}

TEST(ResourceMonitor, TransientJitterIsSuppressed) {
  ResourceMonitor monitor(0.15, 0.3, /*persistence=*/3);
  ProfileSnapshot steady;
  steady.worker_bandwidth = {100.0};
  steady.worker_speed = {10.0};
  monitor.update(steady);  // prime
  ProfileSnapshot spike = steady;
  spike.worker_bandwidth[0] = 55.0;
  // One- and two-snapshot spikes never fire.
  EXPECT_FALSE(monitor.update(spike).changed);
  EXPECT_FALSE(monitor.update(steady).changed);
  EXPECT_FALSE(monitor.update(spike).changed);
  EXPECT_FALSE(monitor.update(spike).changed);
  EXPECT_FALSE(monitor.update(steady).changed);
}

TEST(ResourceMonitor, IgnoresSmallJitter) {
  ResourceMonitor monitor(0.15);
  ProfileSnapshot snap;
  snap.worker_bandwidth = {100.0};
  snap.worker_speed = {10.0};
  monitor.update(snap);
  snap.worker_bandwidth[0] = 95.0;  // 5% jitter
  EXPECT_FALSE(monitor.update(snap).changed);
}

TEST(ResourceMonitor, ZeroObservedBandwidthIsAFullDeviation) {
  // A link failure reads as zero observed bandwidth. Against a positive
  // baseline that is a 100% relative deviation and must fire once it
  // persists — not divide by zero, not wedge the monitor.
  ResourceMonitor monitor(0.15, 0.3, /*persistence=*/3);
  ProfileSnapshot snap;
  snap.worker_bandwidth = {100.0, 100.0};
  snap.worker_speed = {10.0, 10.0};
  monitor.update(snap);  // prime
  snap.worker_bandwidth[1] = 0.0;
  EXPECT_FALSE(monitor.update(snap).changed);
  EXPECT_FALSE(monitor.update(snap).changed);
  const auto change = monitor.update(snap);
  EXPECT_TRUE(change.changed);
  EXPECT_DOUBLE_EQ(change.magnitude, 1.0);
  // The zero becomes the new baseline: with nothing to deviate from, the
  // worker is simply skipped until bandwidth is observed again.
  EXPECT_FALSE(monitor.update(snap).changed);
  snap.worker_bandwidth[1] = 100.0;  // link back — no crash, drift resumes
  EXPECT_FALSE(monitor.update(snap).changed);
}

TEST(ResourceMonitor, WorkerVanishingMidWindowRePrimes) {
  ResourceMonitor monitor(0.15, 0.3, /*persistence=*/3);
  ProfileSnapshot snap;
  snap.worker_bandwidth = {100.0, 100.0, 100.0};
  snap.worker_speed = {10.0, 10.0, 10.0};
  monitor.update(snap);  // prime on three workers
  // The population shrinks between snapshots (a worker evicted mid-window).
  snap.worker_bandwidth.pop_back();
  snap.worker_speed.pop_back();
  const auto change = monitor.update(snap);
  EXPECT_TRUE(change.changed);
  EXPECT_NE(change.description.find("population"), std::string::npos);
  // Re-primed on the new population: the same two-worker reading is steady.
  EXPECT_FALSE(monitor.update(snap).changed);
  // Growing back is a population event again, then steady.
  snap.worker_bandwidth.push_back(100.0);
  snap.worker_speed.push_back(10.0);
  EXPECT_TRUE(monitor.update(snap).changed);
  EXPECT_FALSE(monitor.update(snap).changed);
}

TEST(ResourceMonitor, CapacityStepDuringPersistenceHoldStillFires) {
  // A second, larger step landing while the first deviation is serving its
  // persistence hold must not reset the counter — the hold is about the
  // deviation persisting, not its value staying constant.
  ResourceMonitor monitor(0.15, 0.3, /*persistence=*/3);
  ProfileSnapshot snap;
  snap.worker_bandwidth = {100.0};
  snap.worker_speed = {10.0};
  monitor.update(snap);  // prime
  snap.worker_bandwidth[0] = 60.0;  // first step, hold 1
  EXPECT_FALSE(monitor.update(snap).changed);
  snap.worker_bandwidth[0] = 30.0;  // deeper step mid-hold, hold 2
  EXPECT_FALSE(monitor.update(snap).changed);
  const auto change = monitor.update(snap);  // hold 3: fires
  EXPECT_TRUE(change.changed);
  EXPECT_GT(change.magnitude, 0.6);  // reported against the latest reading
  EXPECT_FALSE(monitor.update(snap).changed);  // baseline snapped to 30
}

TEST(Training, PerturbMatchesTheCopyingPath) {
  // perturb_partition draws from two_worker_moves and builds only the pick;
  // the speed dataset depends on it drawing the same count and indices as
  // the path that materialised every candidate.
  const auto copying = [](const partition::Partition& base,
                          std::size_t max_moves, Rng& rng) {
    partition::Partition current = base;
    const auto moves =
        rng.uniform_int(0, static_cast<std::int64_t>(max_moves));
    for (std::int64_t i = 0; i < moves; ++i) {
      auto candidates =
          partition::fixtures::reference_two_worker_candidates(current);
      if (candidates.empty()) break;
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(candidates.size()) - 1));
      current = candidates[pick];
    }
    return current;
  };
  const std::vector<partition::Partition> bases = {
      partition::Partition::even_split(12, {0, 1, 2, 3}),
      partition::Partition({{0, 3, {0, 4}}, {4, 4, {2}}, {5, 11, {1, 3, 6}}},
                           12),
      partition::Partition::single_stage(12, {5}),
  };
  for (const auto& base : bases) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng a(seed), b(seed);
      EXPECT_EQ(perturb_partition(base, 6, a), copying(base, 6, b))
          << base.to_string() << " seed " << seed;
      EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30))
          << "the RNG streams diverged";
    }
  }
}

TEST(Controller, ThresholdModeAdaptsToBandwidthDrop) {
  const auto model = toy_model(6);
  Rig rig(3, 1e4, 1e4);
  // Start from a deliberately skewed partition.
  partition::Partition skewed({{0, 3, {0}}, {4, 4, {1}}, {5, 5, {2}}},
                              model.num_layers());
  pipeline::PipelineExecutor executor(*rig.cluster, model, skewed,
                                      clean_config());
  ControllerConfig config;
  config.arbiter_mode = ControllerConfig::ArbiterMode::kThreshold;
  config.use_meta_network = false;
  config.decision_interval = 2;
  AutoPipeController controller(*rig.cluster, executor, config, nullptr,
                                nullptr);
  controller.attach();
  executor.run(40, 10);
  EXPECT_GT(controller.stats().decisions, 0u);
  EXPECT_GT(controller.stats().switches_requested, 0u);
  // The skew must have been reduced: stage 0 no longer holds 4 layers.
  EXPECT_LT(executor.current_partition().stage(0).num_layers(), 4u);
}

TEST(Controller, NeverSwitchModeHoldsPartition) {
  const auto model = toy_model(6);
  Rig rig(3);
  const partition::Partition initial =
      partition::Partition::even_split(model.num_layers(), {0, 1, 2});
  pipeline::PipelineExecutor executor(*rig.cluster, model, initial,
                                      clean_config());
  ControllerConfig config;
  config.arbiter_mode = ControllerConfig::ArbiterMode::kNeverSwitch;
  config.use_meta_network = false;
  AutoPipeController controller(*rig.cluster, executor, config, nullptr,
                                nullptr);
  controller.attach();
  executor.run(30, 5);
  EXPECT_EQ(executor.current_partition(), initial);
  EXPECT_EQ(controller.stats().switches_requested, 0u);
}

TEST(Controller, RlModeRequiresAgent) {
  const auto model = toy_model(6);
  Rig rig(3);
  pipeline::PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1, 2}),
      clean_config());
  ControllerConfig config;
  config.arbiter_mode = ControllerConfig::ArbiterMode::kRl;
  config.use_meta_network = false;
  auto make_bad = [&] {
    AutoPipeController c(*rig.cluster, executor, config, nullptr, nullptr);
    (void)c;
  };
  EXPECT_THROW(make_bad(), autopipe::contract_error);
}

TEST(Controller, DecisionWallClockIsRecorded) {
  const auto model = toy_model(6);
  Rig rig(3);
  pipeline::PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1, 2}),
      clean_config());
  ControllerConfig config;
  config.arbiter_mode = ControllerConfig::ArbiterMode::kThreshold;
  config.use_meta_network = false;
  config.decision_interval = 1;
  AutoPipeController controller(*rig.cluster, executor, config, nullptr,
                                nullptr);
  controller.attach();
  executor.run(10, 2);
  EXPECT_GT(controller.stats().decisions, 0u);
  EXPECT_GT(controller.stats().candidates_evaluated, 0u);
  EXPECT_GT(controller.stats().total_decision_wall_seconds, 0.0);
  // Fig 12's bar: the whole decision loop is far below one second.
  EXPECT_LT(controller.stats().last_decision_wall_seconds, 1.0);
}

TEST(Training, SpeedDatasetIsLabelled) {
  const auto model = toy_model(6);
  const FeatureEncoder enc;
  ScenarioConfig scenario;
  scenario.num_servers = 3;
  scenario.gpus_per_server = 1;
  scenario.measure_iterations = 3;
  scenario.warmup_iterations = 1;
  const auto data = generate_speed_dataset(model, 6, 7, enc, scenario);
  ASSERT_EQ(data.size(), 6u);
  for (const auto& s : data) {
    EXPECT_GT(s.target, 0.0);
    EXPECT_FALSE(s.dynamic_seq.empty());
    EXPECT_EQ(s.static_feat.size(), enc.static_dim());
    EXPECT_EQ(s.partition_feat.size(), enc.partition_dim());
  }
}

TEST(Training, MetaNetworkImprovesOnSimulatorData) {
  const auto model = toy_model(6);
  const FeatureEncoder enc;
  ScenarioConfig scenario;
  scenario.num_servers = 3;
  scenario.gpus_per_server = 1;
  scenario.measure_iterations = 3;
  scenario.warmup_iterations = 1;
  auto data = generate_speed_dataset(model, 40, 17, enc, scenario);

  MetaNetworkConfig mc;
  mc.dynamic_dim = enc.dynamic_dim();
  mc.static_dim = enc.static_dim();
  mc.partition_dim = enc.partition_dim();
  mc.lstm_hidden = 16;
  mc.head_hidden = {32, 16};
  MetaNetwork meta(mc, 23);

  const auto result = train_meta_network(meta, data, 60, 8, 29);
  EXPECT_GT(result.train_loss, 0.0);
  // Normalized targets for the toy model are O(1-10); the trained net must
  // at least land in the right region.
  EXPECT_LT(result.validation_loss, 5.0);
}

TEST(Training, ArbiterEpisodesRunAndExplore) {
  const auto model = toy_model(6);
  rl::DqnConfig dc;
  dc.state_dim = FeatureEncoder{}.arbiter_dim();
  rl::DqnAgent agent(dc, 31);
  ScenarioConfig scenario;
  scenario.num_servers = 3;
  scenario.gpus_per_server = 1;
  const auto result =
      train_arbiter_offline(agent, model, 3, 20, 37, nullptr, scenario);
  EXPECT_EQ(result.episodes, 3u);
  EXPECT_GT(result.mean_episode_throughput, 0.0);
  EXPECT_GT(agent.steps(), 0u);
}


TEST(ResourceMonitor, BaselineHoldsCatchesGradualStep) {
  // An EMA-smoothed profiler converges on new contention gradually; the
  // baseline must not chase it into silence.
  ResourceMonitor monitor(0.3, 0.3, /*persistence=*/3);
  ProfileSnapshot snap;
  snap.worker_bandwidth = {100.0};
  snap.worker_speed = {10.0};
  monitor.update(snap);  // prime
  // Speed converges geometrically toward half (factor 0.6 per snapshot).
  bool detected = false;
  double speed = 10.0;
  for (int i = 0; i < 12 && !detected; ++i) {
    speed = 5.0 + (speed - 5.0) * 0.6;
    snap.worker_speed[0] = speed;
    detected = monitor.update(snap).changed;
  }
  EXPECT_TRUE(detected);
}

TEST(Controller, RevertsMeasuredRegression) {
  // Force a switch to a known-bad partition through the executor, then let
  // the controller's validation machinery see it via a fresh controller...
  // here we instead verify the end-to-end property: with validation on, a
  // churn-free environment ends at least as fast as never switching.
  const auto model = toy_model(6);
  auto run_mode = [&](bool validate) {
    Rig rig(3, 1e4, 1e4);
    pipeline::PipelineExecutor executor(
        *rig.cluster, model,
        partition::Partition::even_split(model.num_layers(), {0, 1, 2}),
        clean_config());
    ControllerConfig config;
    config.arbiter_mode = ControllerConfig::ArbiterMode::kAlwaysSwitch;
    config.use_meta_network = false;
    config.decision_interval = 2;
    config.min_history_iterations = 4;
    config.candidate_gain_floor = 0.0;  // provoke aggressive switching
    config.validate_switches = validate;
    AutoPipeController controller(*rig.cluster, executor, config, nullptr,
                                  nullptr);
    controller.attach();
    return executor.run(80, 40).throughput;
  };
  // Validation must not be materially worse than unvalidated always-switch
  // (it reverts losers), and both must complete.
  const double with = run_mode(true);
  const double without = run_mode(false);
  EXPECT_GT(with, 0.0);
  EXPECT_GT(without, 0.0);
  EXPECT_GT(with, without * 0.9);
}

TEST(Controller, RevertBackoffSaturatesAtDocumentedCeiling) {
  const auto model = toy_model(6);
  Rig rig(3);
  pipeline::PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1, 2}),
      clean_config());
  ControllerConfig config;
  config.arbiter_mode = ControllerConfig::ArbiterMode::kThreshold;
  config.use_meta_network = false;
  config.revert_cooldown = 6;
  config.max_revert_backoff_shift = 6;
  AutoPipeController controller(*rig.cluster, executor, config, nullptr,
                                nullptr);

  // Doubles per consecutive revert up to the configured shift...
  EXPECT_EQ(controller.revert_backoff_iterations(0), 6u);
  EXPECT_EQ(controller.revert_backoff_iterations(1), 12u);
  EXPECT_EQ(controller.revert_backoff_iterations(2), 24u);
  EXPECT_EQ(controller.revert_backoff_iterations(6), 6u << 6);
  // ...then saturates: no matter how many reverts pile up, the pause is
  // the documented ceiling, never longer and never an overflowed shift.
  const std::size_t ceiling = controller.revert_backoff_iterations(6);
  EXPECT_EQ(controller.revert_backoff_iterations(7), ceiling);
  EXPECT_EQ(controller.revert_backoff_iterations(1000), ceiling);
  EXPECT_EQ(controller.revert_backoff_iterations(
                std::numeric_limits<std::size_t>::max()),
            ceiling);
}

TEST(Controller, RevertBackoffPathologicalShiftConfigCannotOverflow) {
  const auto model = toy_model(6);
  Rig rig(3);
  pipeline::PipelineExecutor executor(
      *rig.cluster, model,
      partition::Partition::even_split(model.num_layers(), {0, 1, 2}),
      clean_config());
  ControllerConfig config;
  config.arbiter_mode = ControllerConfig::ArbiterMode::kThreshold;
  config.use_meta_network = false;
  config.revert_cooldown = 6;
  // A shift at or past the word width would be undefined behaviour without
  // the hard clamp at 48; the result must stay finite and monotone-capped.
  config.max_revert_backoff_shift = 200;
  AutoPipeController controller(*rig.cluster, executor, config, nullptr,
                                nullptr);
  const std::size_t capped = controller.revert_backoff_iterations(
      std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(capped, std::size_t{6} << 48);
  EXPECT_GT(capped, 0u);
}

TEST(Controller, ReplanAdoptsRebalanceUnderLocalContention) {
  // Several adjacent stages slow at once: single boundary moves cannot
  // improve the bottleneck, so the change-triggered re-plan (DP +
  // speed-proportional rebalance) must carry the recovery.
  const auto model = toy_model(12);
  Rig rig(4, 1e4, 1e6);
  const auto initial =
      partition::Partition::even_split(model.num_layers(), {0, 1, 2, 3});
  pipeline::PipelineExecutor executor(*rig.cluster, model, initial,
                                      clean_config());
  ControllerConfig config;
  config.arbiter_mode = ControllerConfig::ArbiterMode::kThreshold;
  config.use_meta_network = false;
  config.decision_interval = 3;
  config.min_history_iterations = 5;
  AutoPipeController controller(*rig.cluster, executor, config, nullptr,
                                nullptr);
  controller.attach();
  sim::ResourceTrace trace;
  trace.at_iteration(10, sim::ResourceTrace::add_gpu_job(0));
  trace.at_iteration(10, sim::ResourceTrace::add_gpu_job(1));
  executor.set_iteration_callback([&](std::size_t iters) {
    trace.apply_iteration(iters, *rig.cluster);
    controller.on_iteration(iters);
  });
  executor.run(60, 30);
  // The slowed workers 0 and 1 must have shed layers.
  const auto& p = executor.current_partition();
  const std::size_t slow_layers =
      p.stage(p.stage_of_worker(0)).num_layers() +
      p.stage(p.stage_of_worker(1)).num_layers();
  const std::size_t fast_layers =
      p.stage(p.stage_of_worker(2)).num_layers() +
      p.stage(p.stage_of_worker(3)).num_layers();
  EXPECT_LT(slow_layers, fast_layers);
}

}  // namespace
}  // namespace autopipe::core
