// The benchmark's own arithmetic: order statistics with the "ten samples
// beyond" tail rule, the failure share, the unattributed remainder of a
// per-layer split, and the exact comparison of two runs' simulated outputs.
// Kept free of any simulator type so the unit tests link against nothing
// else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle elements for an even count);
/// 0 for an empty input.
double median(std::vector<double> values);

/// Σ over operations of each operation's fastest repetition:
/// `runs[r][k]` is the host time of operation k in repetition r. Operations
/// missing from a shorter repetition are taken from the others; 0 for no
/// repetitions.
double sum_of_fastest(const std::vector<std::vector<double>>& runs);

/// A tail percentile and the evidence behind it.
struct Tail {
  double percentile = 0.0;  ///< the percentile actually reported
  double value = 0.0;       ///< nearest-rank value at that percentile
  std::size_t samples = 0;  ///< sample count
  std::size_t beyond = 0;   ///< samples ranked strictly after `value`
};

/// The `wanted` percentile (nearest rank) when at least `min_beyond` samples
/// rank after it; otherwise the highest percentile that still leaves
/// `min_beyond` samples after it. With `min_beyond` or fewer samples there is
/// no such percentile and the result is the minimum, with `beyond` telling
/// the caller how thin the tail is.
Tail tail_percentile(std::vector<double> values, double wanted = 99.0,
                     std::size_t min_beyond = 10);

/// failed / attempted; 0 when nothing was attempted.
double failure_share(std::size_t failed, std::size_t attempted);

/// Wall time minus the sum of the per-layer times. Negative when the layers
/// overlap (a sign that two layers were timed around the same work).
double unattributed(double wall_seconds,
                    const std::vector<double>& layer_seconds);

/// The simulated outputs one operation must reproduce exactly on every
/// repetition, and with tracing on or off.
struct SimDigest {
  double throughput = 0.0;
  std::uint64_t events = 0;
  std::size_t switches = 0;
  std::vector<double> iteration_end_times;
};

/// Empty when `a` and `b` are identical (bit-for-bit on every double);
/// otherwise a one-line description of the first difference.
std::string compare_digests(const SimDigest& a, const SimDigest& b);

}  // namespace perfbench
