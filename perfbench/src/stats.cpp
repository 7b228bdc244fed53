#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sum_of_fastest(const std::vector<std::vector<double>>& runs) {
  std::vector<double> fastest;
  for (const std::vector<double>& run : runs) {
    for (std::size_t k = 0; k < run.size(); ++k) {
      if (k == fastest.size()) fastest.push_back(run[k]);
      fastest[k] = std::min(fastest[k], run[k]);
    }
  }
  double sum = 0.0;
  for (double s : fastest) sum += s;
  return sum;
}

Tail tail_percentile(std::vector<double> values, double wanted,
                     std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Nearest rank (1-based) of the wanted percentile, clamped to [1, n].
  const std::size_t wanted_rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(wanted / 100.0 * static_cast<double>(n))),
      1, n);
  std::size_t rank = wanted_rank;
  if (n - rank < min_beyond) rank = n > min_beyond ? n - min_beyond : 1;
  tail.percentile = rank == wanted_rank
                        ? wanted
                        : 100.0 * static_cast<double>(rank) /
                              static_cast<double>(n);
  tail.value = values[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

double failure_share(std::size_t failed, std::size_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

double unattributed(double wall_seconds,
                    const std::vector<double>& layer_seconds) {
  double sum = 0.0;
  for (double s : layer_seconds) sum += s;
  return wall_seconds - sum;
}

std::string compare_digests(const SimDigest& a, const SimDigest& b) {
  std::ostringstream os;
  os.precision(17);
  if (!same_bits(a.throughput, b.throughput)) {
    os << "throughput " << a.throughput << " vs " << b.throughput;
  } else if (a.events != b.events) {
    os << "events " << a.events << " vs " << b.events;
  } else if (a.switches != b.switches) {
    os << "switches " << a.switches << " vs " << b.switches;
  } else if (a.iteration_end_times.size() != b.iteration_end_times.size()) {
    os << "iteration count " << a.iteration_end_times.size() << " vs "
       << b.iteration_end_times.size();
  } else {
    for (std::size_t i = 0; i < a.iteration_end_times.size(); ++i) {
      if (!same_bits(a.iteration_end_times[i], b.iteration_end_times[i])) {
        os << "iteration " << i << " ends at " << a.iteration_end_times[i]
           << " vs " << b.iteration_end_times[i];
        break;
      }
    }
  }
  return os.str();
}

}  // namespace perfbench
