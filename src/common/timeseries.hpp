// Metrics time-series: the flattened registry sampled on a fixed sim-time
// cadence, so throughput, bubble ratio and predictor error can be seen
// *evolving* instead of only as end-of-run totals.
//
// Sampling semantics ("sample-at-boundary"): with interval Δ, boundaries
// are b = 0, Δ, 2Δ, ... and the row at boundary b reflects exactly the
// events with time < b. The simulator drives the sampler from inside
// step(): before executing an event at time t it emits every not-yet-
// emitted boundary ≤ t. No events are added to the queue, so the sampler
// cannot perturb event counts or ordering — the rows are a pure function of
// the deterministic event sequence and therefore byte-identical across
// replays and sweep --jobs values (verified by `ctest -L parity` and
// `ctest -L telemetry`).
//
// Output (`autopipe-ts-v1`): a columnar text block — header, interval, one
// `col <name>` line per column (the sorted union of every key that ever
// appeared; absent values are 0), then one row per sample with
// `%.9g`-formatted values, time first. See docs/TELEMETRY.md.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace autopipe::trace {

class MetricsRegistry;

class TimeSeriesSampler {
 public:
  /// One snapshot: the flattened registry at sim-time boundary `time`.
  struct Sample {
    double time = 0.0;
    std::map<std::string, double> values;
  };

  /// Arm the sampler with a positive sampling interval (sim-seconds).
  /// Must be called before the run; re-configuring clears prior samples.
  void configure(double interval_seconds);

  bool enabled() const { return interval_ > 0.0; }
  double interval() const { return interval_; }

  /// Emit every pending boundary ≤ `t` (called by Simulator::step() before
  /// the event at `t` executes, and by run_until() when pinning the clock).
  /// The first call emits the t=0 row.
  void advance_to(double t, const MetricsRegistry& metrics);

  /// End-of-run hook: emit boundaries up to `now`, then one final row at
  /// `now` itself when it is past the last boundary row — so the last
  /// sample always reflects the complete run.
  void finalize(double now, const MetricsRegistry& metrics);

  const std::vector<Sample>& samples() const { return samples_; }
  std::size_t size() const { return samples_.size(); }

  /// Serialize all samples as autopipe-ts-v1.
  void write_text(std::ostream& os) const;

 private:
  void emit(double time, const MetricsRegistry& metrics);

  double interval_ = 0.0;      ///< 0 = disabled
  std::size_t next_index_ = 0; ///< next boundary is next_index_ * interval_
  bool finalized_ = false;
  std::vector<Sample> samples_;
};

}  // namespace autopipe::trace
