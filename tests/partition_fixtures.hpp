// Test-only partition fixtures shared by partition_test, property_test and
// autopipe_test: a random partition generator and a verbatim copy of the
// two-worker enumerator as first written (every candidate materialised by
// editing a copy of the stage list), the oracle for two_worker_moves,
// apply_move and the callers that moved onto them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "partition/partition.hpp"

namespace autopipe::partition::fixtures {

/// Random stages over `layers` layers: 1..min(layers, ids) stages, each
/// holding one or more workers drawn without repetition from
/// [0, 2 * ids) — replicated stages and non-contiguous ids included.
inline std::vector<StageAssignment> random_stages(Rng& rng,
                                                  std::size_t layers,
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

/// The two-worker neighbourhood as first enumerated: boundary-layer moves
/// for every adjacent pair, then single-worker re-homes, each candidate a
/// full copy of the stage list.
inline std::vector<Partition> reference_two_worker_candidates(
    const Partition& current) {
  std::vector<Partition> out;
  const auto& stages = current.stages();
  const std::size_t L = current.num_layers();

  for (std::size_t s = 0; s + 1 < stages.size(); ++s) {
    for (std::size_t k = 1; k < stages[s].num_layers(); ++k) {
      auto edited = stages;
      edited[s].last_layer -= k;
      edited[s + 1].first_layer -= k;
      out.emplace_back(std::move(edited), L);
    }
    for (std::size_t k = 1; k < stages[s + 1].num_layers(); ++k) {
      auto edited = stages;
      edited[s].last_layer += k;
      edited[s + 1].first_layer += k;
      out.emplace_back(std::move(edited), L);
    }
  }

  for (std::size_t s = 0; s < stages.size(); ++s) {
    if (stages[s].replication() < 2) continue;
    for (const std::size_t t : {s == 0 ? stages.size() : s - 1, s + 1}) {
      if (t >= stages.size()) continue;
      auto edited = stages;
      const sim::WorkerId mover = edited[s].workers.back();
      edited[s].workers.pop_back();
      edited[t].workers.push_back(mover);
      std::sort(edited[t].workers.begin(), edited[t].workers.end());
      out.emplace_back(std::move(edited), L);
    }
  }

  return out;
}

}  // namespace autopipe::partition::fixtures
