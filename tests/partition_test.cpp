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
#include "partition_fixtures.hpp"

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

using fixtures::random_stages;

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

TEST(Neighborhood, MovesReproduceTheCopyingEnumerator) {
  // two_worker_moves + apply_move against the enumerator as first written:
  // same candidates, same order (the controller's tie-breaks, the
  // descent's pick and the training RNG all depend on the order).
  Rng rng(5150);
  for (int trial = 0; trial < 300; ++trial) {
    const auto layers = static_cast<std::size_t>(rng.uniform_int(1, 30));
    const auto ids = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const Partition current(random_stages(rng, layers, ids), layers);
    const auto reference = fixtures::reference_two_worker_candidates(current);
    const auto moves = two_worker_moves(current);
    ASSERT_EQ(moves.size(), reference.size()) << current.to_string();
    for (std::size_t i = 0; i < moves.size(); ++i)
      EXPECT_EQ(apply_move(current, moves[i]), reference[i])
          << current.to_string() << " move " << i;
    EXPECT_EQ(two_worker_candidates(current), reference);
  }
}

TEST(Neighborhood, EveryMoveKeepsTheWorkerSet) {
  Rng rng(6021);
  for (int trial = 0; trial < 300; ++trial) {
    const auto layers = static_cast<std::size_t>(rng.uniform_int(1, 30));
    const auto ids = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const Partition current(random_stages(rng, layers, ids), layers);
    auto workers = current.all_workers();
    std::sort(workers.begin(), workers.end());
    for (const Move& move : two_worker_moves(current)) {
      auto moved = apply_move(current, move).all_workers();
      std::sort(moved.begin(), moved.end());
      EXPECT_EQ(moved, workers) << current.to_string();
    }
  }
}

TEST(Neighborhood, MalformedMovesThrow) {
  const Partition p({{0, 0, {0}}, {1, 3, {1, 2}}, {4, 5, {3}}}, 6);
  // Not adjacent, out of range, emptying a stage, re-homing a lone worker.
  EXPECT_THROW(apply_move(p, Move{Move::Kind::kLayers, 0, 2, 1}),
               contract_error);
  EXPECT_THROW(apply_move(p, Move{Move::Kind::kLayers, 2, 3, 1}),
               contract_error);
  EXPECT_THROW(apply_move(p, Move{Move::Kind::kLayers, 0, 1, 1}),
               contract_error);
  EXPECT_THROW(apply_move(p, Move{Move::Kind::kWorker, 0, 1, 0}),
               contract_error);
  const auto model = tiny_model(6);
  const auto env = uniform_env(4, 1e9, 1e9);
  const MoveScorer scorer(model, p, env, 8);
  EXPECT_THROW(scorer.batch_time(Move{Move::Kind::kLayers, 0, 2, 1}),
               contract_error);
  EXPECT_THROW(scorer.batch_time(Move{Move::Kind::kLayers, 1, 0, 3}),
               contract_error);
  EXPECT_THROW(scorer.batch_time(Move{Move::Kind::kWorker, 2, 1, 0}),
               contract_error);
}

TEST(MoveScorer, MatchesAnalyticTimeOnHandPickedShapes) {
  const auto model = tiny_model(8);
  // Distinct per-worker speeds and bandwidths (no ties between stages or
  // boundaries to hide a missed term), the bandwidth low enough that
  // boundary transfers compete with stage costs.
  EnvironmentView env = uniform_env(12, 1e9, 1e10);
  for (std::size_t w = 0; w < 12; ++w) {
    env.worker_speed[w] = 1e9 * (1.0 + 0.13 * static_cast<double>(w));
    env.worker_bandwidth[w] = 5e4 * (1.0 + 0.07 * static_cast<double>(w));
  }
  const std::vector<Partition> shapes = {
      // single stage, replicated and not: no moves, only the current time
      Partition({{0, 7, {3}}}, 8),
      Partition({{0, 7, {2, 5, 9}}}, 8),
      // one-layer stages and replicated neighbours, non-contiguous ids
      Partition({{0, 0, {11}}, {1, 1, {1, 7}}, {2, 5, {4}}, {6, 7, {0, 9}}},
                8),
      Partition({{0, 3, {2, 6, 10}}, {4, 4, {8}}, {5, 7, {3, 5}}}, 8),
      // unreplicated, so no sync term and the boundaries set the period
      Partition({{0, 1, {5}}, {2, 2, {10}}, {3, 5, {1}}, {6, 7, {8}}}, 8),
  };
  for (const comm::SyncScheme scheme :
       {comm::SyncScheme::kRing, comm::SyncScheme::kParameterServer}) {
    env.sync_scheme = scheme;
    for (const Partition& p : shapes) {
      const MoveScorer scorer(model, p, env, 8);
      EXPECT_EQ(scorer.current_batch_time(),
                analytic_batch_time(model, p, env, 8));
      for (const Move& move : two_worker_moves(p)) {
        const Partition moved = apply_move(p, move);
        EXPECT_EQ(scorer.batch_time(move),
                  analytic_batch_time(model, moved, env, 8))
            << p.to_string() << " -> " << moved.to_string();
        EXPECT_EQ(scorer.throughput(move),
                  analytic_throughput(model, moved, env, 8));
      }
    }
  }
}

TEST(Descend, MatchesTheCopyingDescent) {
  // The descent the re-planner and plan_refined used to inline: every
  // round re-costs every materialised candidate.
  const auto copying = [](const models::ModelSpec& model, Partition p,
                          const EnvironmentView& env, std::size_t batch,
                          int rounds) {
    Seconds best = analytic_batch_time(model, p, env, batch);
    for (int round = 0; round < rounds; ++round) {
      bool improved = false;
      for (const auto& c : fixtures::reference_two_worker_candidates(p)) {
        const Seconds t = analytic_batch_time(model, c, env, batch);
        if (t < best * 0.999) {
          best = t;
          p = c;
          improved = true;
        }
      }
      if (!improved) break;
    }
    return std::pair{p, best};
  };
  Rng rng(90210);
  for (int trial = 0; trial < 60; ++trial) {
    const auto layers = static_cast<std::size_t>(rng.uniform_int(2, 24));
    const auto ids = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const Partition start(random_stages(rng, layers, ids), layers);
    EnvironmentView env = uniform_env(2 * ids, 1e9, 1e10);
    for (std::size_t w = 0; w < 2 * ids; ++w) {
      env.worker_speed[w] = rng.uniform(2e8, 4e9);
      env.worker_bandwidth[w] = rng.uniform(1e8, 1e10);
    }
    const auto model = tiny_model(layers);
    for (const int rounds : {0, 1, 3, 50}) {
      const auto [want, want_time] = copying(model, start, env, 8, rounds);
      const Descent got = descend(model, start, env, 8, rounds);
      EXPECT_EQ(got.partition, want) << start.to_string();
      EXPECT_EQ(got.batch_time, want_time) << start.to_string();
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
