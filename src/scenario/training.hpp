// Offline training of AutoPipe's two learned components (§4.3 "offline
// training, online adapting"). Ground truth comes from the simulator: each
// speed sample is a short measured run of a randomized (environment,
// partition) pair, and arbiter episodes are randomized dynamic scenarios
// driven end-to-end through the controller with exploration on. Every run
// is a scenario::World, the same assembly every other tool uses.
#pragma once

#include <cstddef>
#include <vector>

#include "autopipe/controller.hpp"
#include "autopipe/features.hpp"
#include "autopipe/meta_network.hpp"
#include "comm/framework.hpp"
#include "common/rng.hpp"
#include "models/model.hpp"
#include "rl/dqn.hpp"

namespace autopipe::core {

struct ScenarioConfig {
  std::size_t num_servers = 5;
  std::size_t gpus_per_server = 2;
  /// Bandwidth grid the scenario sampler draws from (the paper's testbed
  /// speeds).
  std::vector<double> bandwidth_gbps = {10, 25, 40, 100};
  /// Max extra tenants per GPU.
  int max_extra_tenants = 2;
  /// Random neighbourhood moves applied to the PipeDream plan to diversify
  /// the partitions seen during training.
  std::size_t max_partition_perturbations = 4;
  comm::SyncScheme sync_scheme = comm::SyncScheme::kRing;
  comm::FrameworkProfile framework = comm::pytorch_profile();
  /// Iterations per measurement (after warmup).
  std::size_t measure_iterations = 4;
  std::size_t warmup_iterations = 2;
};

/// Up to `max_moves` random two-worker moves applied to `base` (the count
/// and each move drawn from `rng`), diversifying the partitions the speed
/// dataset sees.
partition::Partition perturb_partition(const partition::Partition& base,
                                       std::size_t max_moves, Rng& rng);

/// Generate `count` simulator-labelled speed samples.
std::vector<SpeedSample> generate_speed_dataset(
    const models::ModelSpec& model, std::size_t count, std::uint64_t seed,
    const FeatureEncoder& encoder, const ScenarioConfig& scenario = {});

struct TrainingResult {
  double train_loss = 0.0;
  double validation_loss = 0.0;
  std::size_t epochs = 0;
};

/// Train the meta-network on a dataset (90/10 train/validation split).
TrainingResult train_meta_network(MetaNetwork& meta,
                                  std::vector<SpeedSample> dataset,
                                  std::size_t epochs, std::size_t batch_size,
                                  std::uint64_t seed);

struct ArbiterTrainingResult {
  std::size_t episodes = 0;
  std::size_t total_switches = 0;
  double mean_episode_throughput = 0.0;
};

/// Run `episodes` randomized dynamic scenarios through the full controller
/// with epsilon-greedy exploration, teaching the arbiter when switching
/// pays. `meta` may be null (analytic predictor).
ArbiterTrainingResult train_arbiter_offline(
    rl::DqnAgent& agent, const models::ModelSpec& model,
    std::size_t episodes, std::size_t iterations_per_episode,
    std::uint64_t seed, MetaNetwork* meta = nullptr,
    const ScenarioConfig& scenario = {});

}  // namespace autopipe::core
