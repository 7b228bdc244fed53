#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"
#include "common/profile.hpp"

namespace autopipe::sim {

void Simulator::set_zero_progress_bound(std::uint64_t bound) {
  AUTOPIPE_EXPECT(bound > 0);
  zero_progress_bound_ = bound;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // The event's closure runs in place in its pool node (addresses are
  // stable across pushes from inside the callback); the node is recycled
  // only after the callback returns.
  const std::uint32_t n = [this] {
    PROF_SPAN_AGG("sim/queue_pop");
    return queue_.pop_node();
  }();
  TimingWheelEventQueue::Node& nd = queue_.node(n);
  check_progress(nd.ev.time, nd.ev.label);
  // Sample *before* the event executes: the row at boundary b reflects
  // exactly the events with time < b.
  if (timeseries_.enabled()) timeseries_.advance_to(nd.ev.time, metrics_);
  now_ = nd.ev.time;
  ++events_processed_;
  // Restore the scheduling event's causal context so trace events recorded
  // by the callback chain across the queue hop.
  tracer_.set_current_cause(nd.ev.cause);
  nd.ev.fn();
  queue_.release_node(n);
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Seconds t) {
  AUTOPIPE_EXPECT(t >= now_ - kTimeSlack);
  // The slack matters twice over: an event firing at t may schedule another
  // event at exactly t (which must still run before the clock is pinned), and
  // an event computed as "now + k*dt" may land a few ulps past t. Both count
  // as "no later than t".
  while (!queue_.empty() && queue_.peek_time() <= t + kTimeSlack) {
    step();
  }
  // step() may have set now_ slightly past t (within the slack); never move
  // the clock backwards.
  now_ = std::max(now_, t);
  // Pinning the clock may cross sampling boundaries with no event at them;
  // every executed event's time is below those boundaries, so emitting here
  // preserves the sample-at-boundary semantics.
  if (timeseries_.enabled()) timeseries_.advance_to(now_, metrics_);
}

Seconds Simulator::next_event_time() {
  AUTOPIPE_EXPECT(!empty());
  return queue_.peek_time();
}

}  // namespace autopipe::sim
