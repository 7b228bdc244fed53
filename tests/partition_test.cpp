// Partitioning tests: Partition invariants, the analytic pipeline model,
// the PipeDream DP planner (checked against the exhaustive oracle — the
// strongest property available), and the two-worker neighbourhood.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "models/zoo.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/environment.hpp"
#include "partition/exhaustive.hpp"
#include "partition/neighborhood.hpp"
#include "partition/partition.hpp"
#include "partition/pipedream_planner.hpp"
#include "partition/rebalance.hpp"
#include "common/stats.hpp"

namespace autopipe::partition {
namespace {

/// Uniform environment helper.
EnvironmentView uniform_env(std::size_t workers, FlopsPerSec speed,
                            BytesPerSec bw,
                            comm::SyncScheme scheme = comm::SyncScheme::kRing) {
  EnvironmentView env;
  env.worker_speed.assign(workers, speed);
  env.worker_bandwidth.assign(workers, bw);
  env.sync_scheme = scheme;
  return env;
}

/// A small synthetic model for oracle comparisons.
models::ModelSpec tiny_model(std::size_t layers) {
  std::vector<models::LayerSpec> specs;
  for (std::size_t l = 0; l < layers; ++l) {
    models::LayerSpec s;
    s.name = "l" + std::to_string(l);
    s.fwd_flops_per_sample = 1e6 * static_cast<double>(1 + (l % 3));
    s.bwd_flops_per_sample = 2.0 * s.fwd_flops_per_sample;
    s.activation_bytes_per_sample = 1e3 * static_cast<double>(1 + (l % 2));
    s.param_bytes = 4e4 * static_cast<double>(1 + (l % 4));
    specs.push_back(std::move(s));
  }
  return models::ModelSpec("tiny", 8, std::move(specs));
}

TEST(Partition, ValidatesContiguity) {
  EXPECT_NO_THROW(Partition({{0, 2, {0}}, {3, 4, {1}}}, 5));
  // Gap.
  EXPECT_THROW(Partition({{0, 1, {0}}, {3, 4, {1}}}, 5), contract_error);
  // Overlap.
  EXPECT_THROW(Partition({{0, 2, {0}}, {2, 4, {1}}}, 5), contract_error);
  // Missing tail.
  EXPECT_THROW(Partition({{0, 2, {0}}}, 5), contract_error);
  // Duplicate worker.
  EXPECT_THROW(Partition({{0, 2, {0}}, {3, 4, {0}}}, 5), contract_error);
  // Empty worker set.
  EXPECT_THROW(Partition({{0, 4, {}}}, 5), contract_error);
}

TEST(Partition, EvenSplitCoversAllLayers) {
  const Partition p = Partition::even_split(10, {0, 1, 2});
  EXPECT_EQ(p.num_stages(), 3u);
  EXPECT_EQ(p.stage(0).num_layers(), 4u);  // remainder goes first
  EXPECT_EQ(p.stage(1).num_layers(), 3u);
  EXPECT_EQ(p.stage(2).num_layers(), 3u);
  EXPECT_EQ(p.stage_of_layer(0), 0u);
  EXPECT_EQ(p.stage_of_layer(9), 2u);
}

TEST(Partition, WorkerLookup) {
  const Partition p({{0, 1, {3, 4}}, {2, 4, {7}}}, 5);
  EXPECT_EQ(p.stage_of_worker(3), 0u);
  EXPECT_EQ(p.stage_of_worker(7), 1u);
  EXPECT_EQ(p.stage_of_worker(0), Partition::npos);
  EXPECT_EQ(p.num_workers(), 3u);
}

TEST(Partition, ChangedWorkersDetectsLayerMoves) {
  const Partition a({{0, 2, {0}}, {3, 4, {1}}}, 5);
  const Partition b({{0, 1, {0}}, {2, 4, {1}}}, 5);
  const auto changed = a.changed_workers(b);
  EXPECT_EQ(changed, (std::vector<sim::WorkerId>{0, 1}));
  EXPECT_TRUE(a.changed_workers(a).empty());
}

TEST(Partition, ToStringIsStable) {
  const Partition p({{0, 2, {0, 1}}, {3, 4, {2}}}, 5);
  EXPECT_EQ(p.to_string(), "L0-2@{0,1} | L3-4@{2}");
}

TEST(AnalyticEval, SingleWorkerMatchesHandComputation) {
  const auto model = tiny_model(4);
  const auto env = uniform_env(1, 1e9, 1e9);
  const Partition p = Partition::single_stage(4, {0});
  // Work: batch 8 x sum (fwd+bwd) flops.
  double flops = 0.0;
  for (std::size_t l = 0; l < 4; ++l)
    flops += (model.fwd_flops(l, 8) + model.bwd_flops(l, 8));
  EXPECT_NEAR(analytic_batch_time(model, p, env, 8), flops / 1e9, 1e-12);
}

TEST(AnalyticEval, ReplicationAmortizes) {
  const auto model = tiny_model(4);
  const auto env = uniform_env(4, 1e9, 1e12);  // effectively free sync
  const Seconds t1 = analytic_batch_time(
      model, Partition::single_stage(4, {0}), env, 8);
  const Seconds t4 = analytic_batch_time(
      model, Partition::single_stage(4, {0, 1, 2, 3}), env, 8);
  EXPECT_NEAR(t4, t1 / 4.0, t1 * 0.02);
}

TEST(AnalyticEval, LowBandwidthMakesBoundaryTheBottleneck) {
  const auto model = tiny_model(4);
  const auto env = uniform_env(2, 1e15, 1.0);  // compute free, wire 1 B/s
  const Partition p({{0, 1, {0}}, {2, 3, {1}}}, 4);
  const Seconds t = analytic_batch_time(model, p, env, 8);
  EXPECT_NEAR(t, model.activation_bytes(1, 8), 1.0);
}

TEST(AnalyticEval, OptimalInFlight) {
  EXPECT_EQ(optimal_in_flight(Partition::even_split(8, {0, 1, 2, 3})), 4u);
  // Replicated input stage: NOW per replica (= ceil(4/2) = 2) times the
  // input replication, so every replica keeps its own pipeline full.
  const Partition p({{0, 3, {0, 1}}, {4, 7, {2, 3}}}, 8);
  EXPECT_EQ(optimal_in_flight(p), 4u);
}

TEST(Planner, ProducesValidPartitionForZooModels) {
  for (const auto& model : models::image_models()) {
    const auto env = uniform_env(10, tflops(4), gbps(25));
    PipeDreamPlanner planner(model, env, model.default_batch_size());
    const PlanResult plan = planner.plan(10);
    EXPECT_LE(plan.partition.num_workers(), 10u);
    EXPECT_GE(plan.in_flight, 1u);
    EXPECT_GT(plan.predicted_batch_time, 0.0);
    EXPECT_EQ(plan.partition.num_layers(), model.num_layers());
  }
}

TEST(Planner, SolveTimeIsSubSecond) {
  // Fig 12's claim: partition calculation well under one second.
  const auto model = models::resnet50();
  const auto env = uniform_env(10, tflops(4), gbps(25));
  PipeDreamPlanner planner(model, env, 128);
  (void)planner.plan(10);
  EXPECT_LT(planner.last_solve_seconds(), 1.0);
}

TEST(Planner, MoreBandwidthNeverHurtsPredictedTime) {
  const auto model = models::vgg16();
  Seconds prev = 1e18;
  for (double g : {10.0, 25.0, 40.0, 100.0}) {
    const auto env = uniform_env(10, tflops(4), gbps(g));
    PipeDreamPlanner planner(model, env, 64);
    const auto plan = planner.plan(10);
    EXPECT_LE(plan.predicted_batch_time, prev + 1e-9) << g << "Gbps";
    prev = plan.predicted_batch_time;
  }
}

/// The strongest property we can assert: under a uniform environment the DP
/// must match brute force over all (split, replication) choices.
class PlannerOracle : public ::testing::TestWithParam<int> {};

TEST_P(PlannerOracle, DpMatchesExhaustiveOptimum) {
  autopipe::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  const std::size_t layers = 4 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  const std::size_t workers = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  const auto model = tiny_model(layers);
  auto env = uniform_env(workers, rng.uniform(1e8, 1e10),
                         rng.uniform(1e5, 1e9));

  PipeDreamPlanner planner(model, env, 8,
                           PipeDreamPlanner::Mode::kCurrentEnvironment);
  const PlanResult dp = planner.plan(workers);
  const auto oracle = exhaustive_best(model, env, 8, workers);
  ASSERT_TRUE(oracle.has_value());

  const Seconds dp_time = analytic_batch_time(model, dp.partition, env, 8);
  EXPECT_NEAR(dp_time, oracle->predicted_batch_time,
              oracle->predicted_batch_time * 1e-9)
      << "dp: " << dp.partition.to_string()
      << " oracle: " << oracle->partition.to_string();
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PlannerOracle,
                         ::testing::Range(0, 12));

TEST(Planner, PipeDreamModeIgnoresContention) {
  // The paper's Observation 2: PipeDream profiles one exclusive GPU, so
  // contended plans do not differ — while the current-environment mode
  // reacts.
  const auto model = models::vgg16();
  auto env = uniform_env(4, tflops(4), gbps(25));
  env.worker_speed[2] = tflops(1);  // worker 2 heavily contended

  PipeDreamPlanner stale(model, env, 64, PipeDreamPlanner::Mode::kPipeDream);
  auto env_uncontended = uniform_env(4, tflops(4), gbps(25));
  PipeDreamPlanner fresh(model, env_uncontended, 64,
                         PipeDreamPlanner::Mode::kPipeDream);
  EXPECT_EQ(stale.plan(4).partition, fresh.plan(4).partition);
}

TEST(Neighborhood, CandidatesAreValidAndDistinct) {
  const auto model = models::alexnet();
  const Partition current = Partition::even_split(model.num_layers(),
                                                  {0, 1, 2, 3});
  const auto candidates = two_worker_candidates(current);
  EXPECT_FALSE(candidates.empty());
  std::set<std::string> seen;
  for (const Partition& c : candidates) {
    EXPECT_NE(c, current);
    EXPECT_FALSE(current.changed_workers(c).empty());
    EXPECT_EQ(c.num_layers(), model.num_layers());
    seen.insert(c.to_string());
  }
  EXPECT_EQ(seen.size(), candidates.size()) << "duplicate candidates";
}

TEST(Neighborhood, BoundaryMovesChangeExactlyTwoWorkers) {
  const Partition current = Partition::even_split(12, {0, 1, 2});
  for (const Partition& c : two_worker_candidates(current)) {
    // Unreplicated stages: every candidate touches exactly two workers.
    EXPECT_EQ(current.changed_workers(c).size(), 2u) << c.to_string();
  }
}

TEST(Neighborhood, SizeIsQuadraticInLayersAtMost) {
  const Partition current = Partition::even_split(20, {0, 1, 2, 3});
  const auto candidates = two_worker_candidates(current);
  EXPECT_LE(candidates.size(), 20u * 20u);
}

TEST(Neighborhood, ReachesRebalancedOptimum) {
  // A skewed partition must offer a candidate that improves the analytic
  // time — the gradual-migration premise.
  const auto model = tiny_model(8);
  const auto env = uniform_env(2, 1e9, 1e12);
  const Partition skewed({{0, 6, {0}}, {7, 7, {1}}}, 8);
  const Seconds t0 = analytic_batch_time(model, skewed, env, 8);
  bool improves = false;
  for (const Partition& c : two_worker_candidates(skewed)) {
    if (analytic_batch_time(model, c, env, 8) < t0) {
      improves = true;
      break;
    }
  }
  EXPECT_TRUE(improves);
}

/// Set-based migration set: every worker of either partition whose hosted
/// layer range differs, in ascending id order.
std::vector<sim::WorkerId> reference_changed_workers(const Partition& a,
                                                     const Partition& b) {
  const auto range = [](const Partition& p, sim::WorkerId w) {
    const std::size_t s = p.stage_of_worker(w);
    return s == Partition::npos
               ? std::pair{Partition::npos, Partition::npos}
               : std::pair{p.stage(s).first_layer, p.stage(s).last_layer};
  };
  std::set<sim::WorkerId> universe;
  for (sim::WorkerId w : a.all_workers()) universe.insert(w);
  for (sim::WorkerId w : b.all_workers()) universe.insert(w);
  std::vector<sim::WorkerId> changed;
  for (sim::WorkerId w : universe)
    if (range(a, w) != range(b, w)) changed.push_back(w);
  return changed;
}

/// Random stages over `layers` layers: 1..min(layers, ids) stages, each
/// holding one or more workers drawn without repetition from
/// [0, 2 * ids) — replicated stages and non-contiguous ids included.
std::vector<StageAssignment> random_stages(Rng& rng, std::size_t layers,
                                           std::size_t ids) {
  std::vector<sim::WorkerId> pool(2 * ids);
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = i;
  rng.shuffle(pool);
  const auto workers = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(ids)));
  const auto num_stages = static_cast<std::size_t>(rng.uniform_int(
      1, static_cast<std::int64_t>(std::min(layers, workers))));
  // Distinct cut points split the layers; workers fill every stage once,
  // then the rest land on random stages.
  std::vector<std::size_t> cuts(layers - 1);
  for (std::size_t i = 0; i < cuts.size(); ++i) cuts[i] = i + 1;
  rng.shuffle(cuts);
  cuts.resize(num_stages - 1);
  std::sort(cuts.begin(), cuts.end());
  std::vector<StageAssignment> stages(num_stages);
  for (std::size_t s = 0; s < num_stages; ++s) {
    stages[s].first_layer = s == 0 ? 0 : cuts[s - 1];
    stages[s].last_layer = s + 1 < num_stages ? cuts[s] - 1 : layers - 1;
    stages[s].workers.push_back(pool[s]);
  }
  for (std::size_t i = num_stages; i < workers; ++i) {
    const auto s = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_stages) - 1));
    stages[s].workers.push_back(pool[i]);
  }
  for (auto& stage : stages)
    std::sort(stage.workers.begin(), stage.workers.end());
  return stages;
}

TEST(Neighborhood, ChangedWorkersMatchSetReference) {
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    const auto layers = static_cast<std::size_t>(rng.uniform_int(2, 30));
    const auto ids = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const Partition current(random_stages(rng, layers, ids), layers);
    const auto candidates = two_worker_candidates(current);
    for (const Partition& c : candidates) {
      const std::vector<sim::WorkerId> changed = current.changed_workers(c);
      EXPECT_EQ(changed, reference_changed_workers(current, c))
          << current.to_string() << " -> " << c.to_string();
      EXPECT_EQ(c.changed_workers(current), changed);
    }
    // Unrelated partitions over overlapping id sets: workers that appear on
    // one side only count as changed.
    const Partition other(random_stages(rng, layers, ids), layers);
    EXPECT_EQ(current.changed_workers(other),
              reference_changed_workers(current, other))
        << current.to_string() << " vs " << other.to_string();
    EXPECT_TRUE(current.changed_workers(current).empty());
  }
}

TEST(Neighborhood, MalformedEditsOfRandomPartitionsThrow) {
  Rng rng(977);
  for (int trial = 0; trial < 200; ++trial) {
    const auto layers = static_cast<std::size_t>(rng.uniform_int(2, 30));
    const auto ids = static_cast<std::size_t>(rng.uniform_int(2, 12));
    const auto stages = random_stages(rng, layers, ids);
    ASSERT_NO_THROW(Partition(stages, layers));
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };

    // A worker repeated, in another stage or its own.
    auto dup = stages;
    const std::size_t from = pick(dup.size());
    const sim::WorkerId w = dup[from].workers[pick(dup[from].workers.size())];
    dup[pick(dup.size())].workers.push_back(w);
    EXPECT_THROW(Partition(dup, layers), contract_error);

    // An empty stage.
    auto empty = stages;
    empty[pick(empty.size())].workers.clear();
    EXPECT_THROW(Partition(empty, layers), contract_error);

    // A gap: one stage ends a layer early (or the last stops short).
    auto gap = stages;
    auto& shrunk = gap[pick(gap.size())];
    if (shrunk.last_layer > shrunk.first_layer) {
      --shrunk.last_layer;
      EXPECT_THROW(Partition(gap, layers), contract_error);
    }
  }
}

TEST(Exhaustive, GuardRejectsLargeModels) {
  const auto env = uniform_env(2, 1e9, 1e9);
  EXPECT_FALSE(
      exhaustive_best(models::resnet50(), env, 32, 2).has_value());
}


TEST(Rebalance, UniformSpeedsApproximateEvenWork) {
  const auto model = tiny_model(12);
  const auto env = uniform_env(3, 1e9, 1e12);
  const Partition current = Partition::even_split(12, {0, 1, 2});
  const Partition balanced =
      speed_proportional_rebalance(model, current, env, 8);
  EXPECT_EQ(balanced.num_stages(), 3u);
  // Stage compute times within 2x of each other (layer granularity).
  std::vector<double> times;
  for (std::size_t s = 0; s < 3; ++s) {
    times.push_back(
        stage_cost(model, balanced.stage(s), env, 8).effective);
  }
  EXPECT_LT(max_of(times) / min_of(times), 2.0);
}

TEST(Rebalance, ShiftsWorkAwayFromSlowWorkers) {
  const auto model = tiny_model(12);
  auto env = uniform_env(3, 1e9, 1e12);
  env.worker_speed[1] = 2.5e8;  // worker 1 heavily contended
  const Partition current = Partition::even_split(12, {0, 1, 2});
  const Partition balanced =
      speed_proportional_rebalance(model, current, env, 8);
  // The contended worker's stage must shrink relative to the even split.
  EXPECT_LT(balanced.stage(1).num_layers(), current.stage(1).num_layers());
  // And the balanced plan must beat the even split analytically.
  EXPECT_LT(analytic_batch_time(model, balanced, env, 8),
            analytic_batch_time(model, current, env, 8));
}

TEST(Rebalance, PreservesStageWorkersAndContiguity) {
  const auto model = tiny_model(10);
  auto env = uniform_env(4, 1e9, 1e12);
  env.worker_speed[0] = 5e8;
  const Partition current({{0, 2, {0, 1}}, {3, 6, {2}}, {7, 9, {3}}}, 10);
  const Partition balanced =
      speed_proportional_rebalance(model, current, env, 8);
  ASSERT_EQ(balanced.num_stages(), 3u);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(balanced.stage(s).workers, current.stage(s).workers);
  // Contiguity and coverage are enforced by the Partition constructor; the
  // call not throwing is the assertion.
}

TEST(Rebalance, EveryStageKeepsAtLeastOneLayer) {
  const auto model = tiny_model(4);
  auto env = uniform_env(4, 1e9, 1e12);
  env.worker_speed[3] = 1e15;  // one worker absurdly fast
  const Partition current = Partition::even_split(4, {0, 1, 2, 3});
  const Partition balanced =
      speed_proportional_rebalance(model, current, env, 8);
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_GE(balanced.stage(s).num_layers(), 1u);
}

}  // namespace
}  // namespace autopipe::partition
