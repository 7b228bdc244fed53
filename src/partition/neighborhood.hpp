// AutoPipe's candidate generator (§4.2 "New worker partition"): rather than
// re-solving the full partitioning problem, enumerate partitions that differ
// from the current one in the tasks of as few workers as possible —
// boundary-layer moves between adjacent stages and single-worker
// re-homing between stages. The enumeration is O(L^2) in the layer count,
// and each candidate can be adopted with a two-worker fine-grained switch.
//
// A candidate is a Move: a small edit of the current partition. A move
// touches two adjacent stages, so MoveScorer prices it by re-costing those
// two stages and the (at most three) boundaries around them against cached
// costs of everything else, instead of building and re-costing the whole
// edited partition. apply_move builds the partition only where a caller
// needs one (the winner, a ledger row, a learned predictor's features).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "models/model.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/environment.hpp"
#include "partition/partition.hpp"

namespace autopipe::partition {

/// One two-worker edit of a partition. `from` and `to` are adjacent stage
/// indices.
struct Move {
  enum class Kind : std::uint8_t {
    /// Shift `layers` boundary layers from stage `from` to stage `to`: the
    /// tail of `from` when to == from + 1, its head when to == from - 1.
    kLayers,
    /// Re-home stage `from`'s last (highest-id) worker onto stage `to`.
    kWorker,
  };
  Kind kind = Kind::kLayers;
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t layers = 0;  ///< kLayers only

  /// The lower of the two stages the move edits.
  std::size_t lower_stage() const { return from < to ? from : to; }
};

/// All two-worker moves of `current`, in this order:
///   * for every adjacent pair (s, s+1): move k = 1.. trailing layers of s
///     to the head of s+1 (keeping one layer in s), then k = 1.. leading
///     layers of s+1 to the tail of s;
///   * for every replicated stage s: re-home its highest-id worker to s-1,
///     then to s+1, where those stages exist.
/// The identity edit is not included.
std::vector<Move> two_worker_moves(const Partition& current);

/// The partition `move` turns `current` into (validated like any other).
Partition apply_move(const Partition& current, const Move& move);

/// apply_move over two_worker_moves, in the same order.
std::vector<Partition> two_worker_candidates(const Partition& current);

/// analytic_batch_time of every move of one partition, without building
/// the moved partitions. The constructor costs the current partition once
/// (each stage's shape and cost, each boundary's cost, and prefix/suffix
/// maxima over them); batch_time(move) re-costs only the two stages the
/// move edits and the boundaries touching them, and takes the maximum with
/// the untouched prefix and suffix. Max is exact and the edited stages go
/// through the same formulas, so the result is bit-identical to
/// analytic_batch_time(model, apply_move(current, move), env, batch).
/// Holds references to `model` and `env`, which must outlive the scorer.
class MoveScorer {
 public:
  MoveScorer(const models::ModelSpec& model, const Partition& current,
             const EnvironmentView& env, std::size_t batch);

  /// analytic_batch_time of the current partition.
  Seconds current_batch_time() const { return suffix_.front(); }
  /// analytic_batch_time of the partition `move` leads to.
  Seconds batch_time(const Move& move) const;
  /// Samples per second at batch_time(move), as analytic_throughput.
  double throughput(const Move& move) const;

 private:
  /// One stage of the current partition: its shape and, for a replicated
  /// stage, the min speed and bandwidth over all its workers but the last
  /// (what it keeps after a re-home) and the last worker's own.
  struct Stage {
    StageShape shape;
    FlopsPerSec rest_speed = 0.0;
    BytesPerSec rest_bandwidth = 0.0;
    FlopsPerSec last_speed = 0.0;
    BytesPerSec last_bandwidth = 0.0;
  };

  const models::ModelSpec& model_;
  const EnvironmentView& env_;
  std::size_t batch_;
  std::vector<Stage> stages_;
  /// prefix_[i]: max over stages [0, i) and the boundaries between them;
  /// suffix_[i]: max over stages [i, S) and the boundaries between them.
  std::vector<Seconds> prefix_;
  std::vector<Seconds> suffix_;
};

/// Where descend() stopped.
struct Descent {
  Partition partition;
  Seconds batch_time = 0.0;  ///< analytic_batch_time of `partition`
};

/// Local refinement over the two-worker neighbourhood under the analytic
/// model (the re-planner's and the figure benches' plan polish): each
/// round scores every move of the round's partition and keeps the last
/// one that beats the running best time by more than 0.1%; the descent
/// stops after `max_rounds` rounds or the first round that keeps none.
Descent descend(const models::ModelSpec& model, Partition start,
                const EnvironmentView& env, std::size_t batch,
                int max_rounds);

}  // namespace autopipe::partition
