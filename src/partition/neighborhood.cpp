#include "partition/neighborhood.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"

namespace autopipe::partition {

std::vector<Move> two_worker_moves(const Partition& current) {
  std::vector<Move> out;
  const auto& stages = current.stages();

  // 1) Boundary-layer moves between adjacent stages.
  for (std::size_t s = 0; s + 1 < stages.size(); ++s) {
    // Move k trailing layers of s into s+1 (keep at least one layer in s).
    for (std::size_t k = 1; k < stages[s].num_layers(); ++k)
      out.push_back(Move{Move::Kind::kLayers, s, s + 1, k});
    // Move k leading layers of s+1 into s.
    for (std::size_t k = 1; k < stages[s + 1].num_layers(); ++k)
      out.push_back(Move{Move::Kind::kLayers, s + 1, s, k});
  }

  // 2) Re-home one worker from a replicated stage to an adjacent stage.
  for (std::size_t s = 0; s < stages.size(); ++s) {
    if (stages[s].replication() < 2) continue;
    if (s > 0) out.push_back(Move{Move::Kind::kWorker, s, s - 1, 0});
    if (s + 1 < stages.size())
      out.push_back(Move{Move::Kind::kWorker, s, s + 1, 0});
  }

  return out;
}

Partition apply_move(const Partition& current, const Move& move) {
  auto edited = current.stages();
  AUTOPIPE_EXPECT(move.from < edited.size() && move.to < edited.size());
  AUTOPIPE_EXPECT(move.from + 1 == move.to || move.to + 1 == move.from);
  StageAssignment& from = edited[move.from];
  StageAssignment& to = edited[move.to];
  if (move.kind == Move::Kind::kLayers) {
    AUTOPIPE_EXPECT(move.layers >= 1 && move.layers < from.num_layers());
    if (move.to > move.from) {
      from.last_layer -= move.layers;
      to.first_layer -= move.layers;
    } else {
      from.first_layer += move.layers;
      to.last_layer += move.layers;
    }
  } else {
    AUTOPIPE_EXPECT(from.replication() >= 2);
    // Moving the highest-id worker keeps candidates canonical.
    const sim::WorkerId mover = from.workers.back();
    from.workers.pop_back();
    to.workers.push_back(mover);
    std::sort(to.workers.begin(), to.workers.end());
  }
  return Partition(std::move(edited), current.num_layers());
}

std::vector<Partition> two_worker_candidates(const Partition& current) {
  std::vector<Partition> out;
  for (const Move& move : two_worker_moves(current))
    out.push_back(apply_move(current, move));
  return out;
}

MoveScorer::MoveScorer(const models::ModelSpec& model,
                       const Partition& current, const EnvironmentView& env,
                       std::size_t batch)
    : model_(model), env_(env), batch_(batch) {
  const std::size_t n = current.num_stages();
  stages_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const StageAssignment& stage = current.stage(s);
    Stage& out = stages_[s];
    out.shape = stage_shape(stage, env, n > 1);
    const auto& workers = stage.workers;
    if (workers.size() < 2) continue;
    out.rest_speed = env.worker_speed.at(workers.front());
    out.rest_bandwidth = env.worker_bandwidth.at(workers.front());
    for (std::size_t i = 1; i + 1 < workers.size(); ++i) {
      out.rest_speed = std::min(out.rest_speed, env.worker_speed.at(workers[i]));
      out.rest_bandwidth =
          std::min(out.rest_bandwidth, env.worker_bandwidth.at(workers[i]));
    }
    out.last_speed = env.worker_speed.at(workers.back());
    out.last_bandwidth = env.worker_bandwidth.at(workers.back());
  }

  // cost[2s] is stage s, cost[2s + 1] the boundary after it.
  std::vector<Seconds> cost(2 * n - 1);
  for (std::size_t s = 0; s < n; ++s) {
    cost[2 * s] = stage_cost(model, stages_[s].shape, env, batch).effective;
    if (s + 1 < n) {
      cost[2 * s + 1] = boundary_transfer_time(
          model, stages_[s].shape, stages_[s + 1].shape, env, batch);
    }
  }
  prefix_.assign(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i) {
    prefix_[i] = std::max(prefix_[i - 1], cost[2 * i - 2]);
    if (i >= 2) prefix_[i] = std::max(prefix_[i], cost[2 * i - 3]);
  }
  suffix_.assign(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    suffix_[i] = std::max(suffix_[i + 1], cost[2 * i]);
    if (i + 1 < n) suffix_[i] = std::max(suffix_[i], cost[2 * i + 1]);
  }
}

Seconds MoveScorer::batch_time(const Move& move) const {
  const std::size_t n = stages_.size();
  const std::size_t lo = move.lower_stage();
  const std::size_t hi = lo + 1;
  AUTOPIPE_EXPECT(std::max(move.from, move.to) == hi && hi < n);
  StageShape edited[2] = {stages_[lo].shape, stages_[hi].shape};
  StageShape& from = edited[move.from == lo ? 0 : 1];
  StageShape& to = edited[move.from == lo ? 1 : 0];
  if (move.kind == Move::Kind::kLayers) {
    AUTOPIPE_EXPECT(move.layers >= 1 &&
                    move.layers <= from.last_layer - from.first_layer);
    // Only the layer ranges change; both stages keep their workers.
    edited[0].last_layer =
        move.from == lo ? edited[0].last_layer - move.layers
                        : edited[0].last_layer + move.layers;
    edited[1].first_layer = edited[0].last_layer + 1;
  } else {
    AUTOPIPE_EXPECT(from.replication >= 2);
    const Stage& source = stages_[move.from];
    from.min_speed = source.rest_speed;
    from.min_bandwidth = source.rest_bandwidth;
    --from.replication;
    to.min_speed = std::min(to.min_speed, source.last_speed);
    to.min_bandwidth = std::min(to.min_bandwidth, source.last_bandwidth);
    ++to.replication;
  }

  Seconds t = std::max(prefix_[lo], suffix_[hi + 1]);
  for (const StageShape& shape : edited)
    t = std::max(t, stage_cost(model_, shape, env_, batch_).effective);
  if (lo > 0) {
    t = std::max(t, boundary_transfer_time(model_, stages_[lo - 1].shape,
                                           edited[0], env_, batch_));
  }
  t = std::max(t, boundary_transfer_time(model_, edited[0], edited[1], env_,
                                         batch_));
  if (hi + 1 < n) {
    t = std::max(t, boundary_transfer_time(model_, edited[1],
                                           stages_[hi + 1].shape, env_,
                                           batch_));
  }
  return t;
}

double MoveScorer::throughput(const Move& move) const {
  const Seconds t = batch_time(move);
  AUTOPIPE_EXPECT(t > 0.0);
  return static_cast<double>(batch_) / t;
}

Descent descend(const models::ModelSpec& model, Partition start,
                const EnvironmentView& env, std::size_t batch,
                int max_rounds) {
  Descent out{std::move(start), 0.0};
  out.batch_time = analytic_batch_time(model, out.partition, env, batch);
  for (int round = 0; round < max_rounds; ++round) {
    const std::vector<Move> moves = two_worker_moves(out.partition);
    const MoveScorer scorer(model, out.partition, env, batch);
    const Move* keep = nullptr;
    for (const Move& move : moves) {
      const Seconds t = scorer.batch_time(move);
      if (t < out.batch_time * 0.999) {
        out.batch_time = t;
        keep = &move;
      }
    }
    if (keep == nullptr) break;
    out.partition = apply_move(out.partition, *keep);
  }
  return out;
}

}  // namespace autopipe::partition
