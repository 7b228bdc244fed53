// Replay-determinism tier (ctest label `parity`): a full AutoPipe scenario
// — executor + controller + seeded random fault plans + background-tenant
// churn, faulted mid-run switches or co-tenant fleets — must replay
// byte-for-byte. Each case runs the same config twice and compares every
// artifact: trace text, decision ledger, metrics, time series, causal
// edges, iteration end times (bit-exact doubles) and the push/pop counters.
//
// 50 seeds × (faults + churn) is the acceptance bar; a handful of
// structural cases (fault-free, churn-free, the committed golden) pin down
// the axes separately. Some test names predate the single event queue
// (they once compared a binary heap with the timing wheel); they are kept
// so the ctest ids stay stable.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "golden_scenario.hpp"
#include "parity/replay.hpp"

namespace autopipe {
namespace {

using parity::ScenarioConfig;
using scenario::Capture;
using scenario::Divergence;

// ---------------------------------------------------------------------------
// Seeded replay sweep: the acceptance bar
// ---------------------------------------------------------------------------

class ParitySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParitySeeds, HeapAndWheelAreByteIdentical) {
  ScenarioConfig config;
  config.seed = GetParam();
  config.inject_faults = true;
  config.background_churn = true;
  const Divergence d = parity::run_replay(config);
  EXPECT_TRUE(d.identical) << d.report;
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, ParitySeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

// Mid-switch fault split: the seed picks the protocol phase, fault kind and
// switch mode of a crash point armed against a deterministic mid-run switch,
// so aborted, rolled-back, retried and abandoned switches are all inside the
// byte-for-byte replay contract.
class ParityMidSwitchSeeds : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ParityMidSwitchSeeds, AbortedSwitchRunsAreByteIdentical) {
  ScenarioConfig config;
  config.seed = GetParam();
  config.inject_faults = false;  // the crash point is the only fault source
  config.background_churn = true;
  config.mid_switch_faults = true;
  const Divergence d = parity::run_replay(config);
  EXPECT_TRUE(d.identical) << d.report;
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, ParityMidSwitchSeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

// The 50-seed sweeps above diff causal edges through compare(); this pins
// the artifact itself — a regression that stops stamping eids would make
// the causal text empty-vs-empty "identical" while gutting the contract.
TEST_P(ParitySeeds, CausalEdgesAreByteIdenticalAndPresent) {
  ScenarioConfig config;
  config.seed = GetParam();
  config.inject_faults = true;
  config.background_churn = true;
  const Capture first = parity::run_scenario(config);
  const Capture replay = parity::run_scenario(config);
  ASSERT_FALSE(first.causal.empty());
  EXPECT_EQ(first.causal, replay.causal);
}

// ---------------------------------------------------------------------------
// Co-tenant fleet split: N jobs under the greedy-arbiter JobManager on one
// fabric, with chaos faults and churn on top. Arbitration rides the event
// queue (claim windows, deny-then-abort follow-ups), so any nondeterminism
// in same-time ordering would flip winners and diverge loudly here.
// ---------------------------------------------------------------------------

class ParityFleetSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParityFleetSeeds, TwoJobFleetIsByteIdentical) {
  ScenarioConfig config;
  config.seed = GetParam();
  config.inject_faults = true;
  config.background_churn = true;
  config.fleet_jobs = 2;
  const Divergence d = parity::run_replay(config);
  EXPECT_TRUE(d.identical) << d.report;
}

TEST_P(ParityFleetSeeds, EightJobFleetIsByteIdentical) {
  ScenarioConfig config;
  config.seed = GetParam();
  config.inject_faults = true;
  config.background_churn = true;
  config.fleet_jobs = 8;
  const Divergence d = parity::run_replay(config);
  EXPECT_TRUE(d.identical) << d.report;
}

INSTANTIATE_TEST_SUITE_P(FleetSeeds, ParityFleetSeeds,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Structural cases: each chaos axis alone
// ---------------------------------------------------------------------------

TEST(Parity, FaultFreeScenarioIsByteIdentical) {
  ScenarioConfig config;
  config.seed = 7;
  config.inject_faults = false;
  config.background_churn = false;
  const Divergence d = parity::run_replay(config);
  EXPECT_TRUE(d.identical) << d.report;
}

TEST(Parity, FaultsOnlyScenarioIsByteIdentical) {
  ScenarioConfig config;
  config.seed = 11;
  config.inject_faults = true;
  config.background_churn = false;
  const Divergence d = parity::run_replay(config);
  EXPECT_TRUE(d.identical) << d.report;
}

TEST(Parity, ChurnOnlyScenarioIsByteIdentical) {
  ScenarioConfig config;
  config.seed = 13;
  config.inject_faults = false;
  config.background_churn = true;
  const Divergence d = parity::run_replay(config);
  EXPECT_TRUE(d.identical) << d.report;
}

TEST(Parity, SameSeedReplaysByteIdenticalPerQueue) {
  // Runs of other shapes in between must leave nothing behind that the
  // replay could observe (process-wide caches, allocator-dependent order).
  ScenarioConfig config;
  config.seed = 17;
  const Capture first = parity::run_scenario(config);
  ScenarioConfig other;
  other.seed = 18;
  other.fleet_jobs = 3;
  parity::run_scenario(other);
  other.fleet_jobs = 0;
  other.mid_switch_faults = true;
  parity::run_scenario(other);
  const Divergence d = scenario::compare(first, parity::run_scenario(config));
  EXPECT_TRUE(d.identical) << d.report;
}

TEST(Parity, DivergenceReportNamesFirstDifference) {
  Capture a;
  a.trace = "line one\nline two\n";
  a.metrics = "m=1\n";
  Capture b = a;
  b.trace = "line one\nline 2\n";
  const Divergence d = scenario::compare(a, b);
  ASSERT_FALSE(d.identical);
  EXPECT_NE(d.report.find("trace: first divergence at line 2"),
            std::string::npos);
  EXPECT_NE(d.report.find("line two"), std::string::npos);
  EXPECT_NE(d.report.find("line 2"), std::string::npos);
}

TEST(Parity, DivergenceArtifactsHoldReportAndBothCaptures) {
  Capture a;
  a.trace = "t1\n";
  a.causal = "1<-0 mark:a\n";
  Capture b = a;
  b.trace = "t2\n";
  const Divergence d = scenario::compare(a, b);
  const std::string prefix = ::testing::TempDir() + "parity_divergence";
  scenario::write_divergence(prefix, a, b, d);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  EXPECT_EQ(slurp(prefix + ".report.txt"), d.report);
  EXPECT_EQ(slurp(prefix + ".first.trace"), a.trace);
  EXPECT_EQ(slurp(prefix + ".replay.trace"), b.trace);
  EXPECT_EQ(slurp(prefix + ".replay.causal"), b.causal);
}

// ---------------------------------------------------------------------------
// The committed golden
// ---------------------------------------------------------------------------

TEST(Parity, GoldenScenarioWheelMatchesCheckedInGolden) {
  // The committed golden predates the timing wheel; matching it is the
  // semantic-preservation proof for the wheel, and matching a fixed file
  // on every run is the replay check for this scenario. This test never
  // regenerates — a mismatch means the simulator changed semantics and
  // must be investigated, not re-recorded.
  const std::string path =
      std::string(AUTOPIPE_GOLDEN_DIR) + "/bandwidth_drop.trace";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  const auto wheel = test_scenarios::run_golden_scenario();
  EXPECT_EQ(wheel.text, golden.str());
}

}  // namespace
}  // namespace autopipe
