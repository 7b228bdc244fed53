// Causal tracing and the blame engine, end to end: eid/cause stamping in
// the recorder, ambient-cause threading across the simulator's event queue
// (both implementations), round-tripping through the text format, DAG
// reconstruction, the causal critical path cross-validated against the
// interval-based one, and blame correctly walking a slow window back to
// the injected fault on the golden bandwidth-drop scenario.
//
// Forward compatibility rides along: the committed pre-causal golden
// (tests/golden/bandwidth_drop_precausal.trace) must keep parsing with the
// new reader, and traces carrying fields this build has never heard of
// must skip-and-count instead of failing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/causal.hpp"
#include "analysis/critical_path.hpp"
#include "analysis/trace_reader.hpp"
#include "analysis/trace_view.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "golden_scenario.hpp"
#include "sim/simulator.hpp"

namespace autopipe {
namespace {

using analysis::BlameReport;
using analysis::CausalChain;
using analysis::CausalGraph;
using analysis::ReadStats;
using trace::Category;
using trace::Event;
using trace::TraceRecorder;

std::string golden_path(const std::string& name) {
  return std::string(AUTOPIPE_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

#if AUTOPIPE_TRACING

// ---------------------------------------------------------------------------
// Recorder eid/cause semantics
// ---------------------------------------------------------------------------

TEST(CausalRecorder, EidsAreMonotonicFromOne) {
  TraceRecorder rec;
  rec.set_enabled(true);
  EXPECT_EQ(rec.instant(Category::kMark, "a", 0.0, 0, 0), 1u);
  EXPECT_EQ(rec.complete(Category::kCompute, "b", 0.0, 1.0, 0, 0), 2u);
  EXPECT_EQ(rec.async_begin(Category::kComm, "c", 1, 1.0), 3u);
  EXPECT_EQ(rec.async_end(Category::kComm, "c", 1, 2.0), 4u);
}

TEST(CausalRecorder, AmbientCauseIsThePreviousEvent) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.instant(Category::kMark, "a", 0.0, 0, 0);
  rec.instant(Category::kMark, "b", 1.0, 0, 0);
  ASSERT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.events()[0].cause, 0u);  // first event is a root
  EXPECT_EQ(rec.events()[1].cause, 1u);
}

TEST(CausalRecorder, ExplicitCauseOverridesAmbient) {
  TraceRecorder rec;
  rec.set_enabled(true);
  const std::uint64_t a = rec.instant(Category::kMark, "a", 0.0, 0, 0);
  rec.instant(Category::kMark, "b", 1.0, 0, 0);
  rec.instant(Category::kMark, "c", 2.0, 0, 0, {}, a);
  EXPECT_EQ(rec.events()[2].cause, a);
  // Explicit zero means "root", not "ambient".
  rec.instant(Category::kMark, "d", 3.0, 0, 0, {}, 0);
  EXPECT_EQ(rec.events()[3].cause, 0u);
}

TEST(CausalRecorder, CountersCarryNoEidAndKeepAmbientIntact) {
  TraceRecorder rec;
  rec.set_enabled(true);
  const std::uint64_t a = rec.instant(Category::kMark, "a", 0.0, 0, 0);
  rec.counter(Category::kComm, "load:x", 0.5, 1.0);
  rec.instant(Category::kMark, "b", 1.0, 0, 0);
  EXPECT_EQ(rec.events()[1].eid, 0u);
  EXPECT_EQ(rec.events()[1].cause, 0u);
  EXPECT_EQ(rec.events()[2].cause, a);  // the counter did not become a cause
}

TEST(CausalRecorder, ClearResetsEidsAndAmbient) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.instant(Category::kMark, "a", 0.0, 0, 0);
  rec.clear();
  EXPECT_EQ(rec.instant(Category::kMark, "b", 0.0, 0, 0), 1u);
  EXPECT_EQ(rec.events()[0].cause, 0u);
}

// ---------------------------------------------------------------------------
// Ambient threading across the event queue
// ---------------------------------------------------------------------------

// An event recorded inside a callback is caused by the event whose callback
// *scheduled* that callback — the chain crosses the queue hop even though
// other callbacks ran in between.
TEST(CausalThreading, CauseCrossesTheQueueHop) {
  sim::Simulator sim;
  sim.tracer().set_enabled(true);
  std::uint64_t parent_eid = 0;
  sim.at(0.0, [&] {
    parent_eid = sim.tracer().instant(Category::kMark, "parent", 0.0, 0, 0);
    sim.at(2.0, [&] {
      sim.tracer().instant(Category::kMark, "child", 2.0, 0, 0);
    });
  });
  // An unrelated callback fires between parent and child and records its
  // own event; the child's cause must still be the parent.
  sim.at(1.0, [&] {
    sim.tracer().instant(Category::kMark, "bystander", 1.0, 0, 0);
  });
  sim.run();
  const std::vector<Event>& events = sim.tracer().events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].name, "child");
  EXPECT_EQ(events[2].cause, parent_eid);
}

// ---------------------------------------------------------------------------
// Text round-trip and the Chrome flow events
// ---------------------------------------------------------------------------

TEST(CausalRoundTrip, TextSinkPreservesEveryEidAndCause) {
  const auto capture = test_scenarios::run_golden_scenario();
  std::istringstream is(capture.text);
  const std::vector<Event> parsed = analysis::parse_text(is);
  ASSERT_EQ(parsed.size(), capture.events.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].eid, capture.events[i].eid) << "event " << i;
    EXPECT_EQ(parsed[i].cause, capture.events[i].cause) << "event " << i;
  }
}

TEST(CausalRoundTrip, ChromeJsonEmitsOneFlowPairPerResolvableEdge) {
  TraceRecorder rec;
  rec.set_enabled(true);
  const std::uint64_t a =
      rec.complete(Category::kCompute, "fp", 0.0, 1.0, 0, 0);
  rec.complete(Category::kComm, "act", 1.0, 2.0, 0, 0, {}, a);
  rec.instant(Category::kMark, "done", 2.0, 0, 0);  // ambient: the act span
  rec.instant(Category::kMark, "orphan", 3.0, 0, 0, {}, 999);  // dangling
  std::ostringstream json;
  rec.write_chrome_json(json);
  const std::string out = json.str();
  // Two resolvable edges (fp→act, act→done); the dangling cause emits no
  // pair. Each edge is one "s" plus one "f" record.
  std::size_t pairs = 0;
  for (std::string::size_type pos = out.find("\"cat\":\"causal\"");
       pos != std::string::npos;
       pos = out.find("\"cat\":\"causal\"", pos + 1)) {
    ++pairs;
  }
  EXPECT_EQ(pairs, 4u);  // 2 edges × (s + f)
  EXPECT_NE(out.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(out.find("\"bp\":\"e\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// DAG reconstruction
// ---------------------------------------------------------------------------

TEST(CausalGraphTest, GoldenScenarioBuildsACleanDag) {
  const auto capture = test_scenarios::run_golden_scenario();
  CausalGraph g(capture.events);
  EXPECT_GT(g.causal_events(), 100u);
  EXPECT_EQ(g.dangling_causes(), 0u);
  for (const analysis::CausalEdge& e : g.edges()) {
    // A cause is always recorded before its effect.
    EXPECT_LT(e.parent, e.child);
    EXPECT_GE(e.contribution, 0.0);
    EXPECT_FALSE(e.cls.empty());
  }
}

// ---------------------------------------------------------------------------
// Critical path cross-validation
// ---------------------------------------------------------------------------

// The causal chain ending at the last event and the interval-inferred
// critical path measure the same run: both must span the full wall clock.
TEST(CausalCriticalPath, AgreesWithIntervalBasedOnGoldenScenario) {
  const auto capture = test_scenarios::run_golden_scenario();
  CausalGraph g(capture.events);
  const CausalChain chain = analysis::critical_chain(g);
  ASSERT_FALSE(chain.links.empty());

  const analysis::TraceView view(capture.events);
  const analysis::CriticalPath interval =
      analysis::extract_critical_path(view);
  EXPECT_NEAR(chain.duration, interval.wall_clock,
              1e-6 * interval.wall_clock);
  // The weighted length telescopes to the same span (clamping can only
  // add, never subtract).
  EXPECT_GE(chain.weighted, chain.duration - 1e-12);
  EXPECT_NEAR(chain.weighted, chain.duration, 1e-3 * chain.duration);
}

// ---------------------------------------------------------------------------
// Blame on the golden bandwidth drop
// ---------------------------------------------------------------------------

TEST(Blame, GoldenBandwidthDropRootsAtTheInjectedFault) {
  const auto capture = test_scenarios::run_golden_scenario();
  CausalGraph g(capture.events);
  const analysis::TraceView view(capture.events);
  const BlameReport report = analysis::blame_window(g, 0.0,
                                                    view.wall_clock());
  ASSERT_FALSE(report.chain.links.empty());
  ASSERT_NE(report.root_cause, CausalGraph::npos);
  const Event& rc = g.events()[report.root_cause];
  EXPECT_EQ(rc.category, Category::kResource);
  EXPECT_EQ(rc.name, "resource_event");
  // The dominant chain passes through the bandwidth-change instant itself.
  bool chain_names_nic_bw = false;
  for (const analysis::ChainLink& l : report.chain.links) {
    if (g.events()[l.event].name == "nic_bw") chain_names_nic_bw = true;
  }
  EXPECT_TRUE(chain_names_nic_bw);
}

TEST(Blame, SlowIterationAfterDropStillReachesTheFault) {
  const auto capture = test_scenarios::run_golden_scenario();
  CausalGraph g(capture.events);
  const analysis::TraceView view(capture.events);
  // Iteration 6 is the first one completed at the dropped bandwidth.
  const BlameReport report = analysis::blame_iteration(g, view, 6);
  ASSERT_NE(report.root_cause, CausalGraph::npos);
  EXPECT_EQ(g.events()[report.root_cause].name, "resource_event");
}

TEST(Blame, LedgerNamesTheStallMechanisms) {
  const auto capture = test_scenarios::run_golden_scenario();
  CausalGraph g(capture.events);
  const analysis::TraceView view(capture.events);
  const BlameReport report = analysis::blame_window(g, 0.0,
                                                    view.wall_clock());
  ASSERT_FALSE(report.ledger.empty());
  EXPECT_GT(report.ledger_seconds, 0.0);
  bool saw_flow_stall = false, saw_stage_starve = false, saw_bubble = false;
  for (const analysis::LedgerEntry& e : report.ledger) {
    if (e.cls == "flow_stall") saw_flow_stall = true;
    if (e.cls == "stage_starve") saw_stage_starve = true;
    if (e.cls == "bubble") saw_bubble = true;
    EXPECT_GE(e.share, 0.0);
    EXPECT_LE(e.share, 1.0 + 1e-12);
  }
  EXPECT_TRUE(saw_flow_stall);
  EXPECT_TRUE(saw_stage_starve);
  EXPECT_TRUE(saw_bubble);
}

TEST(Blame, EmptyWindowReportsNoChain) {
  const auto capture = test_scenarios::run_golden_scenario();
  CausalGraph g(capture.events);
  const BlameReport report = analysis::blame_window(g, 1e6, 2e6);
  EXPECT_TRUE(report.chain.links.empty());
  EXPECT_EQ(report.root_cause, CausalGraph::npos);
  EXPECT_EQ(report.window_events, 0u);
}

TEST(Blame, RenderAndJsonAreDeterministic) {
  const auto capture = test_scenarios::run_golden_scenario();
  CausalGraph g(capture.events);
  const analysis::TraceView view(capture.events);
  const BlameReport report =
      analysis::blame_window(g, 0.0, view.wall_clock());
  std::ostringstream a, b, ja, jb;
  analysis::render_blame(report, g, 10, a);
  analysis::render_blame(report, g, 10, b);
  analysis::write_blame_json(report, g, ja);
  analysis::write_blame_json(report, g, jb);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_NE(a.str().find("root cause:"), std::string::npos);
  EXPECT_NE(ja.str().find("\"schema\": \"autopipe-blame-v1\""),
            std::string::npos);
}

#endif  // AUTOPIPE_TRACING

// ---------------------------------------------------------------------------
// Forward/backward compatibility (runs in both tracing configurations: the
// readers and goldens do not depend on the recorder)
// ---------------------------------------------------------------------------

// Old trace, new reader: the pre-causal golden still parses cleanly — no
// eids, no causes, zero leniency counters — and the blame engine reports
// the absence instead of inventing a graph.
TEST(CausalCompat, PreCausalGoldenParsesWithZeroEids) {
  std::istringstream is(
      read_file(golden_path("bandwidth_drop_precausal.trace")));
  ReadStats stats;
  const std::vector<Event> events = analysis::parse_text(is, &stats);
  ASSERT_GT(events.size(), 100u);
  EXPECT_TRUE(stats.clean());
  for (const Event& ev : events) {
    EXPECT_EQ(ev.eid, 0u);
    EXPECT_EQ(ev.cause, 0u);
  }
  CausalGraph g(events);
  EXPECT_EQ(g.causal_events(), 0u);
  const BlameReport report = analysis::blame_window(g, 0.0, 1.0);
  EXPECT_TRUE(report.chain.links.empty());
}

// New trace, new reader: the causal golden round-trips with clean stats.
TEST(CausalCompat, CausalGoldenParsesCleanly) {
  std::istringstream is(read_file(golden_path("bandwidth_drop.trace")));
  ReadStats stats;
  const std::vector<Event> events = analysis::parse_text(is, &stats);
  ASSERT_GT(events.size(), 100u);
  EXPECT_TRUE(stats.clean());
  CausalGraph g(events);
  EXPECT_GT(g.causal_events(), 100u);
  EXPECT_EQ(g.dangling_causes(), 0u);
}

// Newer-writer trace, this reader: unknown key=value fields ride along as
// args, unknown categories/phases and bare tokens skip-and-count.
TEST(CausalCompat, FutureFieldsSkipAndCount) {
  std::istringstream is(
      "0.5 compute X fp pid=0 tid=0 dur=1.000000000 eid=3 cause=1 "
      "gpu_temp=83 batch=1\n"
      "0.6 quantum X tunnel pid=0 tid=0 dur=1.000000000\n"
      "0.7 compute Q fp pid=0 tid=0\n"
      "0.8 compute i note pid=0 tid=0 danglingtoken\n");
  ReadStats stats;
  const std::vector<Event> events = analysis::parse_text(is, &stats);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].eid, 3u);
  EXPECT_EQ(events[0].cause, 1u);
  ASSERT_NE(events[0].find_arg("gpu_temp"), nullptr);
  EXPECT_EQ(*events[0].find_arg("gpu_temp"), "83");
  ASSERT_NE(events[0].find_arg("batch"), nullptr);
  EXPECT_EQ(stats.skipped_lines, 2u);   // unknown category + unknown phase
  EXPECT_EQ(stats.dropped_tokens, 1u);  // the bare token continued nothing
  EXPECT_FALSE(stats.clean());
}

// An `id=` token outside 'b'/'e' phases is an ordinary arg (switch instants
// carry one), while on async delimiters it is the structural pairing id.
TEST(CausalCompat, IdFieldIsPhaseAware) {
  std::istringstream is(
      "0.5 switch i switch_request pid=1001 tid=0 eid=9 id=1\n"
      "0.6 comm b flow pid=1000 tid=0 id=7 eid=10 bytes=5\n");
  const std::vector<Event> events = analysis::parse_text(is);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].id, 0u);
  ASSERT_NE(events[0].find_arg("id"), nullptr);
  EXPECT_EQ(*events[0].find_arg("id"), "1");
  EXPECT_EQ(events[1].id, 7u);
  EXPECT_EQ(events[1].find_arg("id"), nullptr);
}

// ---------------------------------------------------------------------------
// Fuzz over the causal fields: corruption of eid/cause must either reject
// or produce a graph the analyses survive (dangling causes are counted,
// never followed).
// ---------------------------------------------------------------------------

class CausalFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CausalFuzz, CorruptedCausalTraceParsesOrRejectsAndNeverCrashesBlame) {
  static const std::string base =
      read_file(golden_path("bandwidth_drop.trace"));
  ASSERT_FALSE(base.empty());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6271u + 13u);
  std::string text = base;
  switch (GetParam() % 3) {
    case 0: {  // truncate at a random byte
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
      text = text.substr(0, cut);
      break;
    }
    case 1: {  // flip random bytes
      for (std::int64_t f = rng.uniform_int(1, 16); f > 0; --f) {
        const auto pos = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(text.size()) - 1));
        text[pos] = static_cast<char>(rng.uniform_int(0, 255));
      }
      break;
    }
    default: {  // interleave two halves line-by-line
      std::istringstream is(text);
      std::vector<std::string> lines;
      std::string line;
      while (std::getline(is, line)) lines.push_back(line);
      std::vector<std::string> even, odd;
      for (std::size_t i = 0; i < lines.size(); ++i)
        (i % 2 == 0 ? even : odd).push_back(lines[i]);
      text.clear();
      std::size_t i = 0, j = 0;
      while (i < even.size() || j < odd.size()) {
        const bool take_even =
            j >= odd.size() || (i < even.size() && rng.chance(0.5));
        text += (take_even ? even[i++] : odd[j++]) + '\n';
      }
      break;
    }
  }
  std::vector<Event> events;
  try {
    std::istringstream is(text);
    events = analysis::parse_text(is);
  } catch (const contract_error&) {
    return;  // rejection is a fine outcome for corrupted input
  }
  CausalGraph g(std::move(events));
  if (g.events().empty()) return;
  double latest = 0.0;
  for (const Event& ev : g.events())
    latest = std::max(latest, analysis::event_end(ev));
  const BlameReport report = analysis::blame_window(g, 0.0, latest);
  // Whatever survived the corruption, the walk terminates and the ledger
  // shares stay normalized.
  for (const analysis::LedgerEntry& e : report.ledger) {
    EXPECT_GE(e.share, 0.0);
    EXPECT_LE(e.share, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(SeededCorruptions, CausalFuzz,
                         ::testing::Range(0, 45));

}  // namespace
}  // namespace autopipe
