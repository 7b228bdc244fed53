// AutoPipe's candidate generator (§4.2 "New worker partition"): rather than
// re-solving the full partitioning problem, enumerate partitions that differ
// from the current one in the tasks of as few workers as possible —
// boundary-layer moves between adjacent stages and single-worker
// re-homing between stages. The enumeration is O(L^2) in the layer count,
// and each candidate can be adopted with a two-worker fine-grained switch.
#pragma once

#include <vector>

#include "partition/partition.hpp"

namespace autopipe::partition {

/// All two-worker-change candidates of `current`:
///   * move k >= 1 trailing layers of stage s to the head of stage s+1
///     (and the mirror image), for every adjacent pair and every feasible k;
///   * move one worker from a replicated stage to an adjacent stage.
/// The current partition itself is not included.
std::vector<Partition> two_worker_candidates(const Partition& current);

}  // namespace autopipe::partition
