#include "autopipe/switch_cost.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace autopipe::core {

SwitchCostEstimate analytic_switch_cost(
    const models::ModelSpec& model, const partition::Partition& from,
    const partition::Partition& to, const partition::EnvironmentView& env,
    Seconds current_batch_time, std::size_t in_flight,
    Seconds restage_overhead_per_layer) {
  SwitchCostEstimate est;

  // Migration volume: one weight version of every layer that gains a new
  // holder (the stash-ordered scheme transfers the latest version and
  // reconstructs the rest locally).
  BytesPerSec worst_bw = env.uniform_bandwidth();
  for (std::size_t layer = 0; layer < model.num_layers(); ++layer) {
    const auto& old_ws = from.stage(from.stage_of_layer(layer)).workers;
    const auto& new_ws = to.stage(to.stage_of_layer(layer)).workers;
    bool moved = false;
    for (sim::WorkerId w : new_ws) {
      if (std::find(old_ws.begin(), old_ws.end(), w) == old_ws.end()) {
        est.migration_bytes += model.param_bytes(layer);
        worst_bw = std::min(worst_bw, env.worker_bandwidth.at(w));
        moved = true;
      }
    }
    if (moved) ++est.moved_layers;
  }
  est.changed_workers = from.changed_workers(to).size();
  AUTOPIPE_EXPECT(worst_bw > 0.0);
  const Seconds transfer =
      est.migration_bytes / (worst_bw * env.comm_efficiency);

  // Stop-the-world: the pipeline drains (in_flight batches complete with no
  // refill), the transfer happens cold, and the restarted pipeline pays a
  // fill bubble of the same depth (Fig 2's startup state).
  est.stop_the_world =
      2.0 * static_cast<double>(in_flight) * current_batch_time + transfer;

  // Fine-grained: training continues; the visible cost is the per-layer
  // restaging on the affected workers plus the share of the transfer that
  // surfaces as contention-induced slowdown (the migration flow takes a
  // max-min fair share alongside roughly two training flows per link).
  constexpr double kContentionShare = 1.0 / 3.0;
  est.fine_grained =
      restage_overhead_per_layer * static_cast<double>(est.moved_layers) +
      kContentionShare * transfer;
  return est;
}

}  // namespace autopipe::core
