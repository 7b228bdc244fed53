// Differential parity harness CLI: drives the same randomized scenario
// (alexnet on 3x2, chaos fault plan + background churn, seeded) through the
// binary-heap reference queue and the timing-wheel queue and demands
// byte-identical traces, ledgers, metrics and iteration timelines. This is
// the CI face of tests/parity_test.cpp — fewer fixed seeds there, an
// arbitrary seed window here, plus divergence artifacts for debugging.
//
//   parity_harness [--seeds=N] [--seed0=N] [--jobs=N] [--artifacts=DIR]
//
// With --artifacts, a diverging seed writes the heap and wheel trace /
// ledger / metrics captures plus the first-divergence report into DIR so a
// CI job can upload them.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/flags.hpp"
#include "parity/differential.hpp"

using namespace autopipe;

namespace {

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

/// Dump both captures plus the divergence report for one failing seed.
void write_artifacts(const std::filesystem::path& dir, std::uint64_t seed,
                     const parity::ScenarioResult& heap,
                     const parity::ScenarioResult& wheel,
                     const std::string& report) {
  std::filesystem::create_directories(dir);
  const std::string stem = "seed" + std::to_string(seed);
  write_file(dir / (stem + ".report.txt"), report);
  write_file(dir / (stem + ".heap.trace"), heap.trace_text);
  write_file(dir / (stem + ".wheel.trace"), wheel.trace_text);
  write_file(dir / (stem + ".heap.ledger"), heap.ledger_text);
  write_file(dir / (stem + ".wheel.ledger"), wheel.ledger_text);
  write_file(dir / (stem + ".heap.metrics"), heap.metrics_text);
  write_file(dir / (stem + ".wheel.metrics"), wheel.metrics_text);
}

struct SeedRow {
  bool identical = false;
  std::string report;
  parity::ScenarioResult heap;
  parity::ScenarioResult wheel;
};

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const Flags flags(argc, argv);
  const auto seeds = static_cast<std::size_t>(flags.get_int("seeds", 12));
  const auto seed0 = static_cast<std::size_t>(flags.get_int("seed0", 1));
  const std::string artifacts = flags.get("artifacts", "");

  std::cout << "parity: heap (reference) vs wheel (candidate), " << seeds
            << " seeds from " << seed0 << "\n\n";

  // Seeds are independent, so they fan out across the --jobs pool; each
  // body fills only its own row and the table renders in seed order, so
  // output is identical at any thread count.
  std::vector<SeedRow> rows(seeds);
  bench::for_each_scenario(seeds, [&](std::size_t s) {
    parity::ScenarioConfig config;
    config.seed = seed0 + s;
    rows[s].heap = parity::run_scenario(config, sim::EventQueueKind::kHeap);
    rows[s].wheel = parity::run_scenario(config, sim::EventQueueKind::kWheel);
    const parity::Divergence d = parity::compare(rows[s].heap, rows[s].wheel);
    rows[s].identical = d.identical;
    rows[s].report = d.report;
  });

  TextTable table({"seed", "events", "scheduled", "trace(B)", "verdict"});
  std::size_t failures = 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    const SeedRow& row = rows[s];
    const std::uint64_t seed = seed0 + s;
    table.add_row({std::to_string(seed),
                   std::to_string(row.heap.events_processed),
                   std::to_string(row.heap.scheduled_events),
                   std::to_string(row.heap.trace_text.size()),
                   row.identical ? "identical" : "DIVERGED"});
    if (row.identical) continue;
    ++failures;
    std::cerr << "seed " << seed << " diverged:\n" << row.report;
    if (!artifacts.empty())
      write_artifacts(artifacts, seed, row.heap, row.wheel, row.report);
  }
  table.print(std::cout);

  if (failures != 0) {
    std::cerr << "\n" << failures << "/" << seeds << " seeds diverged";
    if (!artifacts.empty()) std::cerr << "; artifacts in " << artifacts;
    std::cerr << "\n";
    return 1;
  }
  std::cout << "\nall " << seeds << " seeds byte-identical across queues\n";
  return 0;
}
