// Cross-module property sweeps (TEST_P): invariants that must hold over
// whole parameter grids rather than single examples — executor sanity over
// the model x bandwidth grid, collective/analytic agreement over member
// counts, staleness-tolerance over pipeline depths, planner/rebalance
// dominance over random environments, and end-to-end determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/data_parallel.hpp"
#include "comm/collective.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "convergence/dataset.hpp"
#include "convergence/staleness_sgd.hpp"
#include "models/zoo.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/neighborhood.hpp"
#include "partition/pipedream_planner.hpp"
#include "partition/rebalance.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"
#include "partition_fixtures.hpp"

namespace autopipe {
namespace {

// ---------------------------------------------------------------------------
// Executor invariants over the paper's model x bandwidth grid
// ---------------------------------------------------------------------------

// The model name is a std::string, not a const char*: gtest prints a char
// pointer's address into the test name, which would change from build to build.
class ExecutorGrid
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(ExecutorGrid, PlannedRunSatisfiesInvariants) {
  const auto [model_name, bandwidth] = GetParam();
  const auto model = models::model_by_name(model_name);

  sim::Simulator sim;
  sim::ClusterConfig config;
  config.nic_bandwidth = gbps(bandwidth);
  sim::Cluster cluster(sim, config);

  const auto env = partition::EnvironmentView::from_cluster(
      cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
  partition::PipeDreamPlanner planner(model, env,
                                      model.default_batch_size());
  const auto plan = planner.plan(cluster.num_workers());

  pipeline::PipelineExecutor executor(cluster, model, plan.partition,
                                      pipeline::ExecutorConfig{});
  const auto report = executor.run(30, 10);

  // Throughput positive and finite; utilization a valid fraction.
  EXPECT_GT(report.throughput, 0.0);
  EXPECT_TRUE(std::isfinite(report.throughput));
  EXPECT_GT(report.worker_utilization, 0.0);
  EXPECT_LE(report.worker_utilization, 1.0 + 1e-9);
  // Completion times strictly increase (no time travel).
  for (std::size_t i = 1; i < report.iteration_end_times.size(); ++i) {
    EXPECT_GE(report.iteration_end_times[i],
              report.iteration_end_times[i - 1]);
  }
  // Multi-stage plans must put bytes on the wire.
  if (plan.partition.num_stages() > 1) {
    EXPECT_GT(report.bytes_on_wire, 0.0);
  }
  // The measured rate cannot exceed the cluster's aggregate compute bound
  // (10% slack: short windows measure between completion bursts).
  double aggregate = 0.0;
  for (sim::WorkerId w = 0; w < cluster.num_workers(); ++w)
    aggregate += cluster.gpu(w).spec().throughput;
  const double flops_per_sample = model.total_flops_per_sample();
  EXPECT_LT(report.throughput, aggregate / flops_per_sample * 1.10);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsByBandwidth, ExecutorGrid,
    ::testing::Combine(::testing::Values(std::string("alexnet"),
                                         std::string("vgg16"),
                                         std::string("resnet50"),
                                         std::string("resnet18")),
                       ::testing::Values(10.0, 25.0, 100.0)));

// ---------------------------------------------------------------------------
// Event-driven ring all-reduce matches the analytic formula for any size
// ---------------------------------------------------------------------------

class RingSize : public ::testing::TestWithParam<int> {};

TEST_P(RingSize, SimulatedRingMatchesAnalytic) {
  const auto n = static_cast<std::size_t>(GetParam());
  sim::Simulator sim;
  sim::ClusterConfig config;
  config.num_servers = n;
  config.gpus_per_server = 1;
  config.nic_bandwidth = 1000.0;
  sim::Cluster cluster(sim, config);
  std::vector<sim::WorkerId> members(n);
  for (sim::WorkerId w = 0; w < n; ++w) members[w] = w;
  Seconds done = -1;
  comm::Collective::ring_allreduce(cluster, members, 8000.0, 1.0,
                                   [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, comm::ring_allreduce_time(8000.0, n, 1000.0),
              1e-6);
}

INSTANTIATE_TEST_SUITE_P(MemberCounts, RingSize,
                         ::testing::Values(2, 3, 4, 5, 7, 10));

// ---------------------------------------------------------------------------
// Weight stashing tolerates any bounded pipeline depth
// ---------------------------------------------------------------------------

class StashDepth : public ::testing::TestWithParam<int> {};

TEST_P(StashDepth, BoundedConsistentStalenessConverges) {
  convergence::DatasetConfig dc;
  dc.dims = 8;
  dc.classes = 3;
  dc.train_samples = 512;
  dc.test_samples = 256;
  const convergence::Dataset data(dc, 7);

  convergence::TrainerConfig config;
  config.mode = convergence::StalenessMode::kWeightStashing;
  config.pipeline_depth = static_cast<std::size_t>(GetParam());
  convergence::StalenessSgdTrainer trainer(data, config, 3);
  for (int i = 0; i < 2000; ++i) trainer.step();
  // PipeDream's guarantee: bounded + consistent staleness reaches high
  // accuracy regardless of the (reasonable) depth.
  EXPECT_GT(trainer.test_accuracy(), 0.85);
}

INSTANTIATE_TEST_SUITE_P(PipelineDepths, StashDepth,
                         ::testing::Values(1, 2, 4, 8, 12));

// ---------------------------------------------------------------------------
// Rebalance never hurts the analytic bottleneck on random heterogeneous envs
// ---------------------------------------------------------------------------

class RebalanceRandom : public ::testing::TestWithParam<int> {};

TEST_P(RebalanceRandom, NeverWorseOnComputeBoundEnvironments) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  // Compute-bound setup: generous uniform bandwidth, random speeds.
  const auto model = models::resnet18();
  partition::EnvironmentView env;
  const std::size_t workers = 4;
  for (std::size_t w = 0; w < workers; ++w) {
    env.worker_speed.push_back(rng.uniform(0.5e12, 4e12));
    env.worker_bandwidth.push_back(gbps(100));
  }
  const auto current = partition::Partition::even_split(
      model.num_layers(), {0, 1, 2, 3});
  const auto balanced = partition::speed_proportional_rebalance(
      model, current, env, model.default_batch_size());
  const Seconds before = partition::analytic_batch_time(
      model, current, env, model.default_batch_size());
  const Seconds after = partition::analytic_batch_time(
      model, balanced, env, model.default_batch_size());
  EXPECT_LE(after, before * 1.001)
      << "speeds: " << env.worker_speed[0] << " " << env.worker_speed[1]
      << " " << env.worker_speed[2] << " " << env.worker_speed[3];
}

INSTANTIATE_TEST_SUITE_P(RandomSpeeds, RebalanceRandom,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Determinism: identical seeds and scripts produce identical runs
// ---------------------------------------------------------------------------

class DeterminismGrid : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismGrid, RepeatedRunsAreBitIdentical) {
  auto run_once = [&] {
    sim::Simulator sim;
    sim::ClusterConfig config;
    config.nic_bandwidth = gbps(25);
    sim::Cluster cluster(sim, config);
    const auto model = models::model_by_name(GetParam());
    const auto env = partition::EnvironmentView::from_cluster(
        cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
    partition::PipeDreamPlanner planner(model, env,
                                        model.default_batch_size());
    const auto plan = planner.plan(cluster.num_workers());
    pipeline::PipelineExecutor executor(cluster, model, plan.partition,
                                        pipeline::ExecutorConfig{});
    return executor.run(20, 5);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  ASSERT_EQ(a.iteration_end_times.size(), b.iteration_end_times.size());
  for (std::size_t i = 0; i < a.iteration_end_times.size(); ++i)
    EXPECT_DOUBLE_EQ(a.iteration_end_times[i], b.iteration_end_times[i]);
}

INSTANTIATE_TEST_SUITE_P(Models, DeterminismGrid,
                         ::testing::Values("alexnet", "vgg16", "resnet50"));

// ---------------------------------------------------------------------------
// Schedule family: every mode completes and respects synchronous semantics
// ---------------------------------------------------------------------------

class ScheduleFamily
    : public ::testing::TestWithParam<pipeline::ScheduleMode> {};

TEST_P(ScheduleFamily, CompletesOnPlannedPartition) {
  sim::Simulator sim;
  sim::ClusterConfig config;
  config.nic_bandwidth = gbps(25);
  sim::Cluster cluster(sim, config);
  const auto model = models::resnet18();
  const auto partition = partition::Partition::even_split(
      model.num_layers(), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  pipeline::ExecutorConfig ec;
  ec.mode = GetParam();
  ec.micro_batches = 4;
  pipeline::PipelineExecutor executor(cluster, model, partition, ec);
  const auto report = executor.run(12, 4);
  EXPECT_GT(report.throughput, 0.0);
  EXPECT_EQ(report.iterations, 12u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ScheduleFamily,
    ::testing::Values(pipeline::ScheduleMode::kAsync1F1B,
                      pipeline::ScheduleMode::kGPipe,
                      pipeline::ScheduleMode::kDapple,
                      pipeline::ScheduleMode::kChimera,
                      pipeline::ScheduleMode::kTwoBW));

// ---------------------------------------------------------------------------
// Tracing is observation-only: for random (model, cluster, switch) triples,
// a run with the recorder enabled trains exactly what a run with it disabled
// trains, byte for byte on the timeline.
// ---------------------------------------------------------------------------

class TracingParity : public ::testing::TestWithParam<int> {};

TEST_P(TracingParity, EnabledRunEqualsDisabledRun) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);

  // Random scenario: model, cluster shape, bandwidth, switch mode, and a
  // random neighbourhood switch requested mid-run.
  const auto model = rng.chance(0.5) ? models::alexnet() : models::resnet18();
  const std::size_t servers = static_cast<std::size_t>(rng.uniform_int(2, 3));
  const std::size_t gpus = static_cast<std::size_t>(rng.uniform_int(1, 2));
  const double bandwidths[] = {10.0, 25.0, 100.0};
  const double bw = bandwidths[rng.uniform_int(0, 2)];
  const auto switch_mode =
      rng.chance(0.5) ? pipeline::PipelineExecutor::SwitchMode::kFineGrained
                      : pipeline::PipelineExecutor::SwitchMode::kStopTheWorld;
  const std::size_t switch_pick = static_cast<std::size_t>(
      rng.uniform_int(0, 1000));

  auto run_once = [&](bool tracing) {
    sim::Simulator sim;
    if (tracing) sim.tracer().set_enabled(true);
    sim::ClusterConfig config;
    config.num_servers = servers;
    config.gpus_per_server = gpus;
    config.nic_bandwidth = gbps(bw);
    sim::Cluster cluster(sim, config);
    std::vector<sim::WorkerId> workers(cluster.num_workers());
    for (sim::WorkerId w = 0; w < workers.size(); ++w) workers[w] = w;
    const auto initial =
        partition::Partition::even_split(model.num_layers(), workers);
    pipeline::PipelineExecutor executor(cluster, model, initial,
                                        pipeline::ExecutorConfig{});
    const auto candidates = partition::two_worker_candidates(initial);
    executor.set_iteration_callback([&](std::size_t iters) {
      if (iters == 3 && !candidates.empty()) {
        executor.request_switch(
            candidates[switch_pick % candidates.size()],
            switch_mode);
      }
    });
    const auto report = executor.run(15, 3);
    return std::make_tuple(report.iteration_end_times, report.throughput,
                           sim.now(), report.iterations * executor.batch_size(),
                           executor.switches_performed());
  };

  const auto with_trace = run_once(true);
  const auto without = run_once(false);

  // Samples trained are identical...
  EXPECT_EQ(std::get<3>(with_trace), std::get<3>(without));
  EXPECT_EQ(std::get<4>(with_trace), std::get<4>(without));
  // ...and so is the entire timeline, bit for bit.
  EXPECT_DOUBLE_EQ(std::get<1>(with_trace), std::get<1>(without));
  EXPECT_DOUBLE_EQ(std::get<2>(with_trace), std::get<2>(without));
  const auto& ta = std::get<0>(with_trace);
  const auto& tb = std::get<0>(without);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i)
    EXPECT_DOUBLE_EQ(ta[i], tb[i]) << "iteration " << i;
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, TracingParity,
                         ::testing::Range(0, 50));

// ---------------------------------------------------------------------------
// Planner invariants over randomly generated layer graphs
// ---------------------------------------------------------------------------

/// A random but well-formed model: positive per-layer work, positive
/// activations, a mix of parameter-heavy and parameter-free layers, wide
/// spreads in all magnitudes — shapes no zoo model exercises.
models::ModelSpec random_layer_model(Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 24));
  std::vector<models::LayerSpec> layers;
  layers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    models::LayerSpec layer;
    layer.name = "L" + std::to_string(i);
    layer.fwd_flops_per_sample = rng.uniform(1e6, 5e9);
    layer.bwd_flops_per_sample =
        layer.fwd_flops_per_sample * rng.uniform(1.0, 3.0);
    layer.activation_bytes_per_sample = rng.uniform(1e3, 5e7);
    layer.param_bytes = rng.chance(0.3) ? 0.0 : rng.uniform(1e4, 4e8);
    layers.push_back(layer);
  }
  const auto batch = static_cast<std::size_t>(rng.uniform_int(8, 128));
  return models::ModelSpec("random", batch, std::move(layers));
}

class RandomModelPlanner : public ::testing::TestWithParam<int> {};

TEST_P(RandomModelPlanner, PlanSatisfiesPartitionInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const auto model = random_layer_model(rng);

  // Heterogeneous random environment (contended GPUs, uneven NICs).
  const auto num_workers = static_cast<std::size_t>(rng.uniform_int(2, 10));
  partition::EnvironmentView env;
  for (std::size_t w = 0; w < num_workers; ++w) {
    env.worker_speed.push_back(tflops(rng.uniform(1.0, 10.0)));
    env.worker_bandwidth.push_back(gbps(rng.uniform(5.0, 100.0)));
  }

  const std::size_t batch = model.default_batch_size();
  for (const auto mode : {partition::PipeDreamPlanner::Mode::kPipeDream,
                          partition::PipeDreamPlanner::Mode::
                              kCurrentEnvironment}) {
    partition::PipeDreamPlanner planner(model, env, batch, mode);
    const partition::PlanResult plan = planner.plan(num_workers);
    const partition::Partition& p = plan.partition;

    // Layer coverage: stages tile [0, num_layers) contiguously in order,
    // and every layer maps back to exactly the stage holding it.
    ASSERT_GE(p.num_stages(), 1u);
    EXPECT_EQ(p.num_layers(), model.num_layers());
    std::size_t covered = 0;
    for (std::size_t s = 0; s < p.num_stages(); ++s) {
      const auto& stage = p.stage(s);
      EXPECT_EQ(stage.first_layer, covered) << "stage " << s;
      ASSERT_LE(stage.first_layer, stage.last_layer);
      ASSERT_LT(stage.last_layer, model.num_layers());
      for (std::size_t l = stage.first_layer; l <= stage.last_layer; ++l)
        EXPECT_EQ(p.stage_of_layer(l), s);
      covered = stage.last_layer + 1;
    }
    EXPECT_EQ(covered, model.num_layers()) << "stages must cover every layer";

    // No empty stage; worker sets pairwise disjoint and within range.
    std::vector<bool> seen(num_workers, false);
    for (std::size_t s = 0; s < p.num_stages(); ++s) {
      const auto& stage = p.stage(s);
      ASSERT_FALSE(stage.workers.empty()) << "empty stage " << s;
      for (sim::WorkerId w : stage.workers) {
        ASSERT_LT(w, num_workers);
        EXPECT_FALSE(seen[w]) << "worker " << w << " serves two stages";
        seen[w] = true;
        EXPECT_EQ(p.stage_of_worker(w), s);
      }
    }
    EXPECT_LE(p.num_workers(), num_workers);

    // The planner's pipeline-fill depth matches the closed form.
    EXPECT_GE(plan.in_flight, 1u);
    EXPECT_EQ(plan.in_flight, partition::optimal_in_flight(p));

    // Predicted time is positive, finite, and — by the max-bottleneck
    // definition — exactly the worst stage/boundary cost, never less than
    // any individual component.
    EXPECT_GT(plan.predicted_batch_time, 0.0);
    EXPECT_TRUE(std::isfinite(plan.predicted_batch_time));
    const Seconds analytic =
        partition::analytic_batch_time(model, p, env, batch);
    Seconds worst = 0.0;
    for (std::size_t s = 0; s < p.num_stages(); ++s) {
      const auto cost = partition::stage_cost(model, p.stage(s), env, batch);
      EXPECT_NEAR(cost.effective,
                  (cost.compute + cost.sync) /
                      static_cast<double>(p.stage(s).replication()),
                  1e-12 * std::max(1.0, cost.effective));
      EXPECT_LE(cost.effective, analytic + 1e-12);
      worst = std::max(worst, cost.effective);
    }
    for (std::size_t b = 0; b + 1 < p.num_stages(); ++b) {
      const Seconds t =
          partition::boundary_transfer_time(model, p, b, env, batch);
      EXPECT_LE(t, analytic + 1e-12);
      worst = std::max(worst, t);
    }
    EXPECT_NEAR(analytic, worst, 1e-12 * std::max(1.0, worst))
        << "analytic_batch_time must equal the max component cost";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLayerGraphs, RandomModelPlanner,
                         ::testing::Range(0, 200));

// ---------------------------------------------------------------------------
// MoveScorer: pricing a move by edit equals re-costing the moved partition
// ---------------------------------------------------------------------------

class MoveScorerRandom
    : public ::testing::TestWithParam<std::tuple<int, comm::SyncScheme>> {};

TEST_P(MoveScorerRandom, EqualsAnalyticBatchTimeBitForBit) {
  const auto [seed, scheme] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 17);
  bool replicated = false, one_layer = false, single_stage = false,
       sparse_ids = false;
  for (int trial = 0; trial < 40; ++trial) {
    const auto model = random_layer_model(rng);
    const std::size_t layers = model.num_layers();
    const auto ids = static_cast<std::size_t>(rng.uniform_int(1, 10));
    const partition::Partition p(
        partition::fixtures::random_stages(rng, layers, ids), layers);
    // Heterogeneous per-worker speed and bandwidth over the whole id
    // range the partition draws from.
    partition::EnvironmentView env;
    env.sync_scheme = scheme;
    env.per_layer_overhead = rng.uniform(0.0, 1e-4);
    env.comm_efficiency = rng.uniform(0.5, 1.0);
    for (std::size_t w = 0; w < 2 * ids; ++w) {
      env.worker_speed.push_back(tflops(rng.uniform(0.5, 10.0)));
      env.worker_bandwidth.push_back(gbps(rng.uniform(1.0, 100.0)));
    }
    const std::size_t batch = model.default_batch_size();

    const partition::MoveScorer scorer(model, p, env, batch);
    ASSERT_EQ(scorer.current_batch_time(),
              partition::analytic_batch_time(model, p, env, batch));
    for (const partition::Move& move : partition::two_worker_moves(p)) {
      const partition::Partition moved = partition::apply_move(p, move);
      ASSERT_EQ(scorer.batch_time(move),
                partition::analytic_batch_time(model, moved, env, batch))
          << p.to_string() << " -> " << moved.to_string();
    }

    single_stage |= p.num_stages() == 1;
    sim::WorkerId top = 0;
    for (const auto& stage : p.stages()) {
      replicated |= stage.replication() > 1;
      one_layer |= stage.num_layers() == 1;
      for (sim::WorkerId w : stage.workers) top = std::max(top, w);
    }
    sparse_ids |= top + 1 > p.num_workers();
  }
  // The sweep must have reached every shape the scorer special-cases.
  EXPECT_TRUE(replicated);
  EXPECT_TRUE(one_layer);
  EXPECT_TRUE(single_stage);
  EXPECT_TRUE(sparse_ids);
}

INSTANTIATE_TEST_SUITE_P(
    RandomPartitions, MoveScorerRandom,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(comm::SyncScheme::kRing,
                                         comm::SyncScheme::kParameterServer)),
    [](const ::testing::TestParamInfo<MoveScorerRandom::ParamType>& info) {
      return std::string(comm::to_string(std::get<1>(info.param))) + "_" +
             std::to_string(std::get<0>(info.param));
    });

// ---------------------------------------------------------------------------
// PipeDream DP: the O(L^2 N) solve against the O(L^2 N^2) loop it replaced
// ---------------------------------------------------------------------------

/// The planner's DP as first written, kept as a test-only oracle: the
/// environment is reduced on every cost query and S(k..j-1, m') is
/// recomputed for every m. Returns the stages and the planned period.
std::pair<std::vector<partition::StageAssignment>, Seconds>
reference_pipedream_plan(const models::ModelSpec& model,
                         const partition::EnvironmentView& env,
                         std::size_t batch,
                         partition::PipeDreamPlanner::Mode mode,
                         std::size_t max_workers) {
  using Mode = partition::PipeDreamPlanner::Mode;
  const std::size_t L = model.num_layers();
  const std::size_t N = max_workers;
  std::vector<Flops> prefix_flops(L + 1, 0.0);
  std::vector<Bytes> prefix_params(L + 1, 0.0);
  for (std::size_t l = 0; l < L; ++l) {
    prefix_flops[l + 1] = prefix_flops[l] + model.fwd_flops(l, batch) +
                          model.bwd_flops(l, batch);
    prefix_params[l + 1] = prefix_params[l] + model.param_bytes(l);
  }
  const auto stage_time = [&](std::size_t first, std::size_t last,
                              std::size_t replication) {
    const Flops work = prefix_flops[last + 1] - prefix_flops[first];
    FlopsPerSec speed;
    BytesPerSec bw;
    comm::SyncScheme scheme;
    if (mode == Mode::kPipeDream) {
      speed = env.uniform_speed();
      bw = env.uniform_bandwidth();
      scheme = comm::SyncScheme::kRing;
    } else {
      speed = std::accumulate(env.worker_speed.begin(),
                              env.worker_speed.end(), 0.0) /
              static_cast<double>(env.num_workers());
      bw = *std::min_element(env.worker_bandwidth.begin(),
                             env.worker_bandwidth.end());
      scheme = env.sync_scheme;
    }
    const Seconds overhead =
        2.0 * env.per_layer_overhead * static_cast<double>(last - first + 1);
    Seconds sync = 0.0;
    if (replication > 1) {
      const Bytes params = prefix_params[last + 1] - prefix_params[first];
      sync = comm::sync_time(scheme, params, replication, bw,
                             env.comm_efficiency);
    }
    return (work / speed + overhead + sync) /
           static_cast<double>(replication);
  };
  const auto boundary_time = [&](std::size_t layer) {
    const BytesPerSec bw =
        mode == Mode::kPipeDream
            ? env.uniform_bandwidth()
            : *std::min_element(env.worker_bandwidth.begin(),
                                env.worker_bandwidth.end());
    return model.activation_bytes(layer, batch) / (bw * env.comm_efficiency);
  };

  const Seconds inf = std::numeric_limits<Seconds>::infinity();
  std::vector<std::vector<Seconds>> A(L + 1, std::vector<Seconds>(N + 1, inf));
  // (split point k, workers of the last stage)
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> choice(
      L + 1, std::vector<std::pair<std::size_t, std::size_t>>(N + 1));
  for (std::size_t j = 1; j <= L; ++j) {
    for (std::size_t m = 1; m <= N; ++m) {
      Seconds best = stage_time(0, j - 1, m);
      std::pair<std::size_t, std::size_t> best_choice{0, m};
      for (std::size_t k = 1; k < j; ++k) {
        const Seconds comm = boundary_time(k - 1);
        for (std::size_t mprime = 1; mprime < m; ++mprime) {
          const Seconds head = A[k][m - mprime];
          if (head >= best) continue;
          const Seconds tail = stage_time(k, j - 1, mprime);
          const Seconds candidate = std::max({head, comm, tail});
          if (candidate < best) {
            best = candidate;
            best_choice = {k, mprime};
          }
        }
      }
      A[j][m] = best;
      choice[j][m] = best_choice;
    }
  }
  std::size_t best_m = 1;
  for (std::size_t m = 2; m <= N; ++m) {
    if (A[L][m] < A[L][best_m]) best_m = m;
  }

  // (first layer, last layer, replicas), front to back.
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> ranges;
  for (std::size_t j = L, m = best_m; j > 0;) {
    const auto [k, replicas] = choice[j][m];
    ranges.emplace_back(k, j - 1, replicas);
    m -= replicas;
    j = k;
  }
  std::reverse(ranges.begin(), ranges.end());

  // Fastest workers to the most loaded stages (id order in PipeDream mode).
  std::vector<sim::WorkerId> workers(env.num_workers());
  std::iota(workers.begin(), workers.end(), sim::WorkerId{0});
  if (mode == Mode::kCurrentEnvironment) {
    std::stable_sort(workers.begin(), workers.end(),
                     [&](sim::WorkerId a, sim::WorkerId b) {
                       return env.worker_speed[a] > env.worker_speed[b];
                     });
  }
  std::vector<Seconds> load;
  for (const auto& [first, last, replicas] : ranges)
    load.push_back(stage_time(first, last, replicas));
  std::vector<std::size_t> order(ranges.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return load[a] > load[b];
                   });
  std::vector<partition::StageAssignment> stages(ranges.size());
  std::size_t next_worker = 0;
  for (std::size_t s : order) {
    const auto& [first, last, replicas] = ranges[s];
    stages[s].first_layer = first;
    stages[s].last_layer = last;
    for (std::size_t r = 0; r < replicas; ++r)
      stages[s].workers.push_back(workers[next_worker++]);
    std::sort(stages[s].workers.begin(), stages[s].workers.end());
  }
  return {std::move(stages), A[L][best_m]};
}

class PlannerOracle : public ::testing::TestWithParam<int> {};

TEST_P(PlannerOracle, MatchesQuadraticReferenceBitForBit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  // Odd seeds use identical layers on identical GPUs, where many splits tie
  // and only the visiting order decides which one wins.
  const bool ties = GetParam() % 2 == 1;
  const auto model = [&] {
    if (!ties) return random_layer_model(rng);
    // Heavy weights make replication costly, so pipelined splits (and
    // their ties) win; light activations keep boundaries off the maximum.
    models::LayerSpec layer;
    layer.fwd_flops_per_sample = 1e9;
    layer.bwd_flops_per_sample = 2e9;
    layer.activation_bytes_per_sample = rng.chance(0.5) ? 1e3 : 1e6;
    layer.param_bytes = rng.chance(0.5) ? 4e8 : 1e7;
    std::vector<models::LayerSpec> layers(
        static_cast<std::size_t>(rng.uniform_int(2, 24)), layer);
    for (std::size_t i = 0; i < layers.size(); ++i)
      layers[i].name = "L" + std::to_string(i);
    return models::ModelSpec("uniform", 32, std::move(layers));
  }();
  const std::size_t batch = model.default_batch_size();

  for (std::size_t n = 1; n <= 16; ++n) {
    partition::EnvironmentView env;
    for (std::size_t w = 0; w < n; ++w) {
      env.worker_speed.push_back(ties ? tflops(4.0)
                                      : tflops(rng.uniform(1.0, 10.0)));
      env.worker_bandwidth.push_back(ties ? gbps(25.0)
                                          : gbps(rng.uniform(1.0, 100.0)));
    }
    env.per_layer_overhead = rng.chance(0.5) ? 0.0 : rng.uniform(1e-5, 1e-3);
    env.comm_efficiency = rng.uniform(0.5, 1.0);
    env.sync_scheme = rng.chance(0.5) ? comm::SyncScheme::kRing
                                      : comm::SyncScheme::kParameterServer;
    const auto max_workers =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<int>(n)));
    for (const auto mode :
         {partition::PipeDreamPlanner::Mode::kPipeDream,
          partition::PipeDreamPlanner::Mode::kCurrentEnvironment}) {
      partition::PipeDreamPlanner planner(model, env, batch, mode);
      for (const std::size_t m : {n, max_workers}) {
        const partition::PlanResult plan = planner.plan(m);
        auto [stages, period] =
            reference_pipedream_plan(model, env, batch, mode, m);
        const partition::Partition expected(std::move(stages),
                                            model.num_layers());
        EXPECT_EQ(plan.partition, expected)
            << "n=" << n << " max_workers=" << m << " planned "
            << plan.partition.to_string() << " oracle "
            << expected.to_string();
        EXPECT_EQ(plan.predicted_batch_time, period)
            << "n=" << n << " max_workers=" << m;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLayerGraphs, PlannerOracle,
                         ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// Event-queue properties: the timing wheel against a sorted-vector oracle
// ---------------------------------------------------------------------------

/// The oracle: (time, seq) pairs; the minimum under (time, then seq) is
/// what any correct queue must dequeue next.
using OracleEntry = std::pair<Seconds, std::uint64_t>;

std::size_t oracle_min(const std::vector<OracleEntry>& oracle) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < oracle.size(); ++i) {
    if (oracle[i].first < oracle[best].first ||
        (oracle[i].first == oracle[best].first &&
         oracle[i].second < oracle[best].second)) {
      best = i;
    }
  }
  return best;
}

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// The name predates the single event queue; it is kept so the ctest ids
// stay stable. The vector oracle is the reference.
TEST_P(EventQueueFuzz, RandomScheduleMatchesOracleOnBothQueues) {
  // Random interleavings of pushes (times spanning the near heap, all three
  // wheel levels, the overflow horizon and +inf) and pops; after every pop
  // the wheel must agree with the oracle's (time, seq) minimum exactly.
  Rng rng(GetParam() * 7919 + 1);
  sim::TimingWheelEventQueue wheel;
  std::vector<OracleEntry> oracle;
  std::uint64_t seq = 0;
  Seconds watermark = 0.0;  // last popped time: pushes never go backwards

  for (int op = 0; op < 4000; ++op) {
    const bool push = oracle.empty() || rng.chance(0.55);
    if (push) {
      Seconds t;
      switch (rng.uniform_int(0, 6)) {
        case 0: t = watermark; break;  // exact tie: FIFO must decide
        case 1: t = watermark + rng.uniform(0.0, 0.0005); break;  // same tick
        case 2: t = watermark + rng.uniform(0.0, 2.0); break;     // level 0/1
        case 3: t = watermark + rng.uniform(0.0, 400.0); break;   // level 1/2
        case 4: t = watermark + rng.uniform(0.0, 5e4); break;     // level 2
        case 5: t = watermark + 2e7; break;  // beyond horizon: overflow
        default: t = std::numeric_limits<Seconds>::infinity(); break;
      }
      wheel.push(sim::SimEvent{t, seq, {}, nullptr});
      oracle.emplace_back(t, seq);
      ++seq;
    } else {
      const std::size_t want = oracle_min(oracle);
      ASSERT_EQ(wheel.peek_time(), oracle[want].first);
      const sim::SimEvent got_w = wheel.pop();
      ASSERT_EQ(got_w.time, oracle[want].first);
      ASSERT_EQ(got_w.seq, oracle[want].second);
      if (std::isfinite(got_w.time)) watermark = got_w.time;
      oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(want));
    }
    ASSERT_EQ(wheel.size(), oracle.size());
    ASSERT_EQ(wheel.empty(), oracle.empty());
  }
  // Drain: the remaining events must come out fully sorted.
  while (!oracle.empty()) {
    const std::size_t want = oracle_min(oracle);
    const sim::SimEvent got_w = wheel.pop();
    ASSERT_EQ(got_w.time, oracle[want].first);
    ASSERT_EQ(got_w.seq, oracle[want].second);
    oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(want));
  }
  EXPECT_TRUE(wheel.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Range<std::uint64_t>(0, 16));

/// Callbacks that schedule from inside callbacks, through Simulator::at:
/// every event runs in place in its wheel node (pop_node, the callback,
/// then release_node), so this drives the Simulator's own dispatch path
/// rather than the queue's push/pop. Each callback records the vector
/// oracle's (time, id) minimum, schedules children at random times, and
/// only then reads its own captured id — a node recycled or overwritten
/// while its closure is still running shows up as a wrong id (or a crash).
class NestedScheduleFuzz {
 public:
  /// The first callback to run schedules this many children at once: more
  /// than one 512-node pool chunk, so the pool grows while that callback's
  /// own node is live.
  static constexpr int kBurst = 600;

  explicit NestedScheduleFuzz(std::uint64_t seed) : rng_(seed * 7919 + 3) {
    for (int i = 0; i < 40; ++i) schedule(pick_time());
  }

  void run() { sim_.run(); }

  sim::Simulator& simulator() { return sim_; }
  const std::vector<OracleEntry>& expected() const { return expected_; }
  const std::vector<OracleEntry>& executed() const { return executed_; }
  std::size_t pending() const { return pending_.size(); }

 private:
  /// Offsets from now covering an exact tie, the current tick, each wheel
  /// level (a tick is 1/1024 s and a level 256x the one below), the
  /// overflow list past the ~16384 s horizon, and +inf.
  Seconds pick_time() {
    const Seconds now = sim_.now();
    switch (rng_.uniform_int(0, 7)) {
      case 0: return now;
      case 1: return now + rng_.uniform(0.0, 0.0005);
      case 2: return now + rng_.uniform(0.0, 0.25);
      case 3: return now + rng_.uniform(0.25, 64.0);
      case 4: return now + rng_.uniform(64.0, 16000.0);
      case 5: return now + 2e7;
      case 6: return std::numeric_limits<Seconds>::infinity();
      default: return now + rng_.uniform(0.0, 0.01);
    }
  }

  void schedule(Seconds t) {
    const std::uint64_t id = next_id_++;
    pending_.emplace_back(t, id);
    sim_.at(
        t,
        [this, id] {
          const std::size_t want = oracle_min(pending_);
          expected_.push_back(pending_[want]);
          pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(want));
          int children = executed_.empty() ? kBurst
                                           : static_cast<int>(
                                                 rng_.uniform_int(0, 2));
          for (; children > 0 && budget_ > 0; --children, --budget_)
            schedule(pick_time());
          executed_.emplace_back(sim_.now(), id);
        },
        "nested_fuzz");
  }

  Rng rng_;
  sim::Simulator sim_;
  std::vector<OracleEntry> pending_;
  std::vector<OracleEntry> expected_;
  std::vector<OracleEntry> executed_;
  std::uint64_t next_id_ = 0;
  int budget_ = 3000;
};

class SimulatorNestedFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorNestedFuzz, CallbacksSchedulingCallbacksRunInOracleOrder) {
  NestedScheduleFuzz fuzz(GetParam());
  fuzz.run();
  EXPECT_TRUE(fuzz.simulator().empty());
  EXPECT_EQ(fuzz.pending(), 0u);
  ASSERT_EQ(fuzz.executed().size(), fuzz.expected().size());
  EXPECT_GT(fuzz.executed().size(),
            static_cast<std::size_t>(NestedScheduleFuzz::kBurst));
  for (std::size_t i = 0; i < fuzz.executed().size(); ++i) {
    ASSERT_EQ(fuzz.executed()[i], fuzz.expected()[i]) << "event " << i;
  }
  EXPECT_EQ(fuzz.simulator().events_processed(), fuzz.executed().size());
  EXPECT_EQ(fuzz.simulator().events_scheduled(), fuzz.executed().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorNestedFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(EventQueueProperty, SameTimestampDequeuesInSchedulingOrder) {
  // 500 events at one instant: (time, seq) FIFO is the whole contract.
  sim::TimingWheelEventQueue wheel;
  for (std::uint64_t s = 0; s < 500; ++s)
    wheel.push(sim::SimEvent{1.5, s, {}, nullptr});
  for (std::uint64_t s = 0; s < 500; ++s) {
    const sim::SimEvent ev = wheel.pop();
    ASSERT_EQ(ev.time, 1.5);
    ASSERT_EQ(ev.seq, s);
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(EventQueueProperty, CascadesAcrossLevelBoundaries) {
  // Times striding every level-0 window edge and well into level 1 and 2;
  // pushed shuffled, must dequeue sorted. Exercises cascade_slot re-basing
  // (the bug class where a stale coarse bucket captures near events).
  Rng rng(42);
  std::vector<Seconds> times;
  for (int i = 0; i < 800; ++i)
    times.push_back(static_cast<Seconds>(i) * 0.37);  // 0 .. ~296 s
  std::vector<Seconds> shuffled = times;
  rng.shuffle(shuffled);

  sim::TimingWheelEventQueue wheel;
  std::uint64_t seq = 0;
  for (const Seconds t : shuffled)
    wheel.push(sim::SimEvent{t, seq++, {}, nullptr});
  Seconds prev = -1.0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const sim::SimEvent ev = wheel.pop();
    ASSERT_GT(ev.time, prev);
    prev = ev.time;
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(EventQueueProperty, FarFutureEventsWaitInOverflowAndRepage) {
  sim::TimingWheelEventQueue wheel;
  // Beyond the three-level horizon (~16777 s): overflow list.
  wheel.push(sim::SimEvent{3e7, 0, {}, nullptr});
  wheel.push(sim::SimEvent{1.0, 1, {}, nullptr});
  ASSERT_EQ(wheel.pop().seq, 1u);
  // Draining the levels re-pages the wheel around the overflow tick …
  ASSERT_EQ(wheel.peek_time(), 3e7);
  // … after which nearer events can still be scheduled and win again.
  wheel.push(sim::SimEvent{3e7 - 1.0, 2, {}, nullptr});
  ASSERT_EQ(wheel.pop().seq, 2u);
  ASSERT_EQ(wheel.pop().seq, 0u);
  EXPECT_TRUE(wheel.empty());
}

TEST(EventQueueProperty, InfiniteTimesDegradeToExactHeapMode) {
  sim::TimingWheelEventQueue wheel;
  const Seconds inf = std::numeric_limits<Seconds>::infinity();
  wheel.push(sim::SimEvent{inf, 0, {}, nullptr});
  wheel.push(sim::SimEvent{inf, 1, {}, nullptr});
  wheel.push(sim::SimEvent{2.0, 2, {}, nullptr});
  ASSERT_EQ(wheel.pop().seq, 2u);
  // Only unrepresentable ticks remain: the wheel re-pages into pure-heap
  // mode. New finite pushes must still dequeue before the infinite ones,
  // and the infinite ones FIFO among themselves.
  ASSERT_EQ(wheel.peek_time(), inf);
  wheel.push(sim::SimEvent{5.0, 3, {}, nullptr});
  ASSERT_EQ(wheel.pop().seq, 3u);
  ASSERT_EQ(wheel.pop().seq, 0u);
  ASSERT_EQ(wheel.pop().seq, 1u);
  EXPECT_TRUE(wheel.empty());
}

// ---------------------------------------------------------------------------
// RingQueue (the deque replacement in GPU executors) vs a deque oracle
// ---------------------------------------------------------------------------

class RingQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingQueueFuzz, RandomOpsMatchDequeOracle) {
  Rng rng(GetParam() * 104729 + 3);
  common::RingQueue<int> ring;
  std::deque<int> oracle;
  int next = 0;
  for (int op = 0; op < 5000; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 99));
    if (oracle.empty() || kind < 55) {
      ring.push_back(next);
      oracle.push_back(next);
      ++next;
    } else if (kind < 95) {
      ASSERT_EQ(ring.front(), oracle.front());
      ASSERT_EQ(ring.pop_front(), oracle.front());
      oracle.pop_front();
    } else {
      ring.clear();
      oracle.clear();
    }
    ASSERT_EQ(ring.size(), oracle.size());
    ASSERT_EQ(ring.empty(), oracle.empty());
    if (!oracle.empty()) {
      ASSERT_EQ(ring.front(), oracle.front());
    }
  }
  while (!oracle.empty()) {
    ASSERT_EQ(ring.pop_front(), oracle.front());
    oracle.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingQueueFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(RingQueueProperty, MoveOnlyPayloadsReleaseOnPop) {
  // pop_front resets the slot, so a move-only payload's resources are
  // released immediately — the property GpuExecutor task queues rely on.
  common::RingQueue<std::unique_ptr<int>> ring;
  for (int i = 0; i < 40; ++i) ring.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 40; ++i) {
    auto p = ring.pop_front();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace autopipe
