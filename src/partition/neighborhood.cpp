#include "partition/neighborhood.hpp"

#include <algorithm>

namespace autopipe::partition {

std::vector<Partition> two_worker_candidates(const Partition& current) {
  std::vector<Partition> out;
  const auto& stages = current.stages();
  const std::size_t L = current.num_layers();

  // 1) Boundary-layer moves between adjacent stages.
  for (std::size_t s = 0; s + 1 < stages.size(); ++s) {
    // Move k trailing layers of s into s+1 (keep at least one layer in s).
    for (std::size_t k = 1; k < stages[s].num_layers(); ++k) {
      auto edited = stages;
      edited[s].last_layer -= k;
      edited[s + 1].first_layer -= k;
      out.emplace_back(std::move(edited), L);
    }
    // Move k leading layers of s+1 into s.
    for (std::size_t k = 1; k < stages[s + 1].num_layers(); ++k) {
      auto edited = stages;
      edited[s].last_layer += k;
      edited[s + 1].first_layer += k;
      out.emplace_back(std::move(edited), L);
    }
  }

  // 2) Re-home one worker from a replicated stage to an adjacent stage.
  for (std::size_t s = 0; s < stages.size(); ++s) {
    if (stages[s].replication() < 2) continue;
    for (const std::size_t t : {s == 0 ? stages.size() : s - 1, s + 1}) {
      if (t >= stages.size()) continue;
      // Moving the highest-id worker keeps candidates canonical.
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

}  // namespace autopipe::partition
