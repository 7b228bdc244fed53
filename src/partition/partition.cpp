#include "partition/partition.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/expect.hpp"

namespace autopipe::partition {

namespace {

/// One past the largest worker id in `stages` (0 when there is none): the
/// size of a flat array indexed by worker id. Worker ids are cluster
/// indices, so the array stays as small as the cluster.
std::size_t worker_id_bound(const std::vector<StageAssignment>& stages) {
  std::size_t bound = 0;
  for (const StageAssignment& s : stages)
    for (sim::WorkerId w : s.workers) bound = std::max(bound, w + 1);
  return bound;
}

}  // namespace

Partition::Partition(std::vector<StageAssignment> stages,
                     std::size_t num_layers)
    : stages_(std::move(stages)), num_layers_(num_layers) {
  AUTOPIPE_EXPECT(!stages_.empty());
  AUTOPIPE_EXPECT(num_layers_ > 0);
  std::size_t expect_first = 0;
  std::vector<char> seen(worker_id_bound(stages_), 0);
  for (const StageAssignment& s : stages_) {
    AUTOPIPE_EXPECT_MSG(s.first_layer == expect_first,
                        "stage gap: expected first layer "
                            << expect_first << ", got " << s.first_layer);
    AUTOPIPE_EXPECT(s.last_layer >= s.first_layer);
    AUTOPIPE_EXPECT(s.last_layer < num_layers_);
    AUTOPIPE_EXPECT_MSG(!s.workers.empty(), "stage with no workers");
    for (sim::WorkerId w : s.workers) {
      AUTOPIPE_EXPECT_MSG(!seen[w],
                          "worker " << w << " assigned to two stages");
      seen[w] = 1;
    }
    expect_first = s.last_layer + 1;
  }
  AUTOPIPE_EXPECT_MSG(expect_first == num_layers_,
                      "stages cover " << expect_first << " of " << num_layers_
                                      << " layers");
}

Partition Partition::even_split(std::size_t num_layers,
                                std::vector<sim::WorkerId> workers) {
  AUTOPIPE_EXPECT(!workers.empty());
  AUTOPIPE_EXPECT(num_layers >= workers.size());
  const std::size_t n = workers.size();
  std::vector<StageAssignment> stages;
  std::size_t next = 0;
  for (std::size_t s = 0; s < n; ++s) {
    // Distribute the remainder over the leading stages.
    const std::size_t len = num_layers / n + (s < num_layers % n ? 1 : 0);
    stages.push_back(StageAssignment{next, next + len - 1, {workers[s]}});
    next += len;
  }
  return Partition(std::move(stages), num_layers);
}

Partition Partition::single_stage(std::size_t num_layers,
                                  std::vector<sim::WorkerId> workers) {
  AUTOPIPE_EXPECT(!workers.empty());
  return Partition({StageAssignment{0, num_layers - 1, std::move(workers)}},
                   num_layers);
}

const StageAssignment& Partition::stage(std::size_t s) const {
  AUTOPIPE_EXPECT(s < stages_.size());
  return stages_[s];
}

std::size_t Partition::stage_of_layer(std::size_t layer) const {
  AUTOPIPE_EXPECT(layer < num_layers_);
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (layer >= stages_[s].first_layer && layer <= stages_[s].last_layer)
      return s;
  }
  AUTOPIPE_EXPECT_MSG(false, "unreachable: layer not covered");
  return npos;
}

std::size_t Partition::stage_of_worker(sim::WorkerId worker) const {
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const auto& ws = stages_[s].workers;
    if (std::find(ws.begin(), ws.end(), worker) != ws.end()) return s;
  }
  return npos;
}

std::vector<sim::WorkerId> Partition::all_workers() const {
  std::vector<sim::WorkerId> out;
  for (const StageAssignment& s : stages_)
    out.insert(out.end(), s.workers.begin(), s.workers.end());
  return out;
}

std::size_t Partition::num_workers() const {
  std::size_t n = 0;
  for (const StageAssignment& s : stages_) n += s.workers.size();
  return n;
}

std::vector<sim::WorkerId> Partition::changed_workers(
    const Partition& other) const {
  // The layer range each worker id hosts in either partition ({npos, npos}
  // when unused); scanning ids in ascending order yields a sorted result.
  using Range = std::pair<std::size_t, std::size_t>;
  const std::size_t ids =
      std::max(worker_id_bound(stages_), worker_id_bound(other.stages_));
  const auto hosted = [ids](const Partition& p) {
    std::vector<Range> range(ids, Range{npos, npos});
    for (const StageAssignment& s : p.stages_)
      for (sim::WorkerId w : s.workers)
        range[w] = {s.first_layer, s.last_layer};
    return range;
  };
  const std::vector<Range> mine = hosted(*this), theirs = hosted(other);
  std::vector<sim::WorkerId> changed;
  for (sim::WorkerId w = 0; w < ids; ++w)
    if (mine[w] != theirs[w]) changed.push_back(w);
  return changed;
}

std::string Partition::to_string() const {
  std::ostringstream os;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (s) os << " | ";
    os << "L" << stages_[s].first_layer << "-" << stages_[s].last_layer
       << "@{";
    for (std::size_t i = 0; i < stages_[s].workers.size(); ++i) {
      if (i) os << ",";
      os << stages_[s].workers[i];
    }
    os << "}";
  }
  return os.str();
}

Partition remap_workers(const Partition& p,
                        const std::vector<sim::WorkerId>& worker_map) {
  std::vector<StageAssignment> stages = p.stages();
  for (StageAssignment& stage : stages) {
    for (sim::WorkerId& w : stage.workers) {
      AUTOPIPE_EXPECT_MSG(w < worker_map.size(),
                          "remap_workers: worker " << w << " outside map of "
                                                   << worker_map.size());
      w = worker_map[w];
    }
  }
  return Partition(std::move(stages), p.num_layers());
}

}  // namespace autopipe::partition
