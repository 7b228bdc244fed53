// Replay-determinism harness CLI: drives a randomized scenario (alexnet on
// 3x2, chaos fault plan + background churn, seeded) and demands that it
// replays byte-identically — traces, ledgers, metrics, time series, causal
// edges, iteration timelines and event counts. Every seed's first capture
// runs in the --jobs pool; each seed is then replayed serially on the main
// thread and compared, so one check covers both "the same run twice" and
// "--jobs 1 vs N". This is the CI face of tests/parity_test.cpp — fewer
// fixed seeds there, an arbitrary seed window here, plus divergence
// artifacts for debugging.
//
//   parity_harness [--seeds=N] [--seed0=N] [--jobs=N] [--artifacts=DIR]
//
// With --artifacts, a diverging seed writes both captures (seedN.first.*,
// seedN.replay.*) plus the first-divergence report into DIR so a CI job
// can upload them.
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/flags.hpp"
#include "parity/replay.hpp"

using namespace autopipe;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const Flags flags(argc, argv);
  const auto seeds = static_cast<std::size_t>(flags.get_int("seeds", 12));
  const auto seed0 = static_cast<std::size_t>(flags.get_int("seed0", 1));
  const std::string artifacts = flags.get("artifacts", "");

  std::cout << "replay: " << seeds << " seeds from " << seed0
            << ", first runs in the --jobs pool, replays serial\n\n";

  // Seeds are independent, so their first runs fan out across the --jobs
  // pool; each body fills only its own slot.
  std::vector<scenario::Capture> firsts(seeds);
  bench::for_each_scenario(seeds, [&](std::size_t s) {
    parity::ScenarioConfig config;
    config.seed = seed0 + s;
    firsts[s] = parity::run_scenario(config);
  });

  TextTable table({"seed", "events", "scheduled", "trace(B)", "verdict"});
  std::size_t failures = 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    parity::ScenarioConfig config;
    config.seed = seed0 + s;
    const scenario::Capture& first = firsts[s];
    const scenario::Capture replay = parity::run_scenario(config);
    const scenario::Divergence d = scenario::compare(first, replay);
    table.add_row({std::to_string(config.seed),
                   std::to_string(first.events_processed),
                   std::to_string(first.events_scheduled),
                   std::to_string(first.trace.size()),
                   d.identical ? "identical" : "DIVERGED"});
    if (d.identical) continue;
    ++failures;
    std::cerr << "seed " << config.seed << " diverged:\n" << d.report;
    if (!artifacts.empty()) {
      std::filesystem::create_directories(artifacts);
      scenario::write_divergence(
          artifacts + "/seed" + std::to_string(config.seed), first, replay, d);
    }
  }
  table.print(std::cout);

  if (failures != 0) {
    std::cerr << "\n" << failures << "/" << seeds << " seeds diverged";
    if (!artifacts.empty()) std::cerr << "; artifacts in " << artifacts;
    std::cerr << "\n";
    bench::exit_status();
    return 1;
  }
  std::cout << "\nall " << seeds << " seeds replay byte-identically\n";
  return bench::exit_status();
}
