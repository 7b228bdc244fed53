// perfbench — the repository's end-to-end benchmark. Runs one of three
// fixed workloads for a given host-time budget, checks that every
// repetition reproduces the same simulated outputs, and prints every metric
// by name and unit, ending with one JSON object on the last line.
//
//   perfbench --workload bert48-chaos --seed 1 --seconds 10 --trace 0
//             --out-dir DIR [--source-digest HEX]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with the span log and the program's prof:: sites on and prints
// the per-layer split instead. See perfbench/README.md.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scenario.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "sweep/engine.hpp"
#include "sweep/runner.hpp"

using namespace perfbench;
namespace sweep = autopipe::sweep;

namespace {

constexpr std::size_t kSweepThreads = 2;
constexpr std::size_t kMinReps = 3;
/// Threads that repeat a single-job workload at once after its first
/// repetition (untraced runs). A host core slows for seconds at a time,
/// mostly while the others do not, so an operation's fastest repetition is
/// found sooner on two cores than on one (README.md, "Noise").
constexpr std::size_t kRepThreads = 2;

// Workload sizes. Each repetition runs an ensemble of scenarios drawn from
// the seed, large enough that the simulated metrics of two seeds differ by
// a few percent rather than by the luck of one churn or fault draw, and
// small enough that a run repeats every scenario several times.
constexpr std::uint64_t kVggScenarios = 16;
constexpr std::size_t kVggIterations = 1200;
constexpr std::uint64_t kBertScenarios = 16;
constexpr std::size_t kBertIterations = 500;
constexpr std::uint64_t kSweepSeeds = 24;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::vector<Scenario> scenarios;  ///< one repetition
  /// The traced run adds a pass with every artifact sink on.
  bool sink_pass = false;
  bool sweep = false;  ///< sweep::run_indexed over sweep::run_scenario
};

/// splitmix64: sub-seeds for the scenarios of one workload instance.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_interval(std::uint64_t x) {
  return static_cast<double>(mix(x) >> 11) * 0x1.0p-53;
}

std::vector<Scenario> vgg16_bwdrop(std::uint64_t seed) {
  std::vector<Scenario> out;
  for (std::uint64_t k = 0; k < kVggScenarios; ++k) {
    const std::uint64_t sub = mix(seed * 64 + k);
    Scenario s;
    s.model = "vgg16";
    s.iterations = kVggIterations;
    // The seed moves the drop by a few iterations and its depth by +-5%
    // around the canonical "every NIC to 10 Gbps at iteration 30".
    s.bw_drop_iter = 26 + sub % 9;
    s.bw_drop_gbps = 9.5 + unit_interval(sub);
    out.push_back(s);
  }
  return out;
}

std::vector<Scenario> bert48_chaos(std::uint64_t seed) {
  std::vector<Scenario> out;
  for (std::uint64_t k = 0; k < kBertScenarios; ++k) {
    const std::uint64_t sub = mix(seed * 64 + k) % 1000000007ull;
    Scenario s;
    s.model = "bert48";
    s.servers = 8;
    s.churn = true;
    s.seed = sub;
    s.faults = "random:seed=" + std::to_string(sub);
    s.iterations = kBertIterations;
    out.push_back(s);
  }
  return out;
}

std::vector<Scenario> sweep_fleet(std::uint64_t seed) {
  const std::vector<std::string> models = {"resnet50", "vgg16", "alexnet"};
  std::vector<Scenario> out;
  for (std::uint64_t k = 0; k < kSweepSeeds; ++k) {
    Scenario base;
    base.servers = 4;
    base.gpus_per_server = 2;
    base.churn = true;
    base.seed = mix(seed * 64 + k) % 1000000007ull;
    base.iterations = 40;
    base.warmup = 10;
    for (const std::string& model : models) {
      for (const char* system : {"autopipe", "pipedream"}) {
        Scenario s = base;
        s.model = model;
        s.system = system;
        out.push_back(s);
      }
    }
    // One 4-job fleet per model, each cycling the mix from that model.
    for (std::size_t m = 0; m < models.size(); ++m) {
      Scenario s = base;
      s.model = models[m];
      s.jobs = 4;
      s.arbiter = "auction";
      for (std::size_t j = 0; j < models.size(); ++j)
        s.job_models += (j > 0 ? "+" : "") + models[(m + j) % models.size()];
      out.push_back(s);
    }
  }
  return out;
}

bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload& w) {
  if (name == "vgg16-bwdrop") {
    w.scenarios = vgg16_bwdrop(seed);
  } else if (name == "bert48-chaos") {
    w.scenarios = bert48_chaos(seed);
    w.sink_pass = true;
  } else if (name == "sweep-fleet") {
    w.scenarios = sweep_fleet(seed);
    w.sweep = true;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// One repetition

/// Everything one repetition measured, summed over its operations.
struct Rep {
  double wall_s = 0.0;   ///< host wall time of the repetition
  double setup_s = 0.0;
  double plan_s = 0.0;
  double run_s = 0.0;    ///< host time of the run phase (events_per_s base)
  double loop_s = 0.0;
  double callbacks_s = 0.0;
  double round_s = 0.0;
  double layers_s = 0.0;  ///< Σ of the timed layers (for unattributed_s)
  std::uint64_t events = 0;
  std::vector<OpResult> ops;
  /// Host wall time of each operation, from outside (each sweep scenario on
  /// sweep-fleet).
  std::vector<double> op_s;
  // Sweep only.
  std::vector<sweep::ScenarioResult> sweep_results;
  double fleet_s = 0.0;            ///< Σ scenario time of the fleets
};

struct Failures {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> messages;

  void count(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (messages.size() < 20) messages.push_back(what);
  }
};

std::string label(const Scenario& s, std::size_t index) {
  return "#" + std::to_string(index) + " " + s.model + "/" + s.system +
         (s.jobs > 1 ? "/J" + std::to_string(s.jobs) : "") + " seed " +
         std::to_string(s.seed);
}

/// Sum an op's timed layers. The iteration callback is timed inside the
/// loop, so the loop counts once.
double layer_seconds(const OpResult& op) {
  return op.setup_s + op.loop_s + op.finish_s + op.trace_format_s +
         op.ledger_format_s + op.timeseries_format_s + op.metrics_format_s +
         op.io_write_s + op.bubbles_s;
}

void add_op(Rep& rep, OpResult op) {
  rep.setup_s += op.setup_s;
  rep.plan_s += op.plan_s;
  rep.loop_s += op.loop_s;
  rep.callbacks_s += op.callbacks_s;
  rep.round_s += op.round_s;
  rep.events += op.events;
  rep.ops.push_back(std::move(op));
}

Rep run_rep(const Workload& w, const OpOptions& options, SpanLog& log,
            Failures& failures) {
  Rep rep;
  const std::uint64_t start = now_ns();
  if (!w.sweep) {
    for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
      log.set_run(static_cast<std::uint32_t>(i));
      const std::uint64_t op_start = now_ns();
      OpResult op = run_op(w.scenarios[i], options, log);
      rep.op_s.push_back(static_cast<double>(now_ns() - op_start) * 1e-9);
      failures.count(op.ok, label(w.scenarios[i], i) + ": " + op.error);
      rep.layers_s += layer_seconds(op);
      rep.run_s += op.loop_s;
      add_op(rep, std::move(op));
    }
    rep.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
    return rep;
  }

  // The sweep, as autopipe_sweep runs it: index-addressed scenarios over a
  // worker pool, each timed from outside.
  const std::size_t n = w.scenarios.size();
  std::vector<sweep::ScenarioSpec> specs;
  for (const Scenario& s : w.scenarios) specs.push_back(to_sweep_spec(s));
  rep.sweep_results.resize(n);
  std::vector<std::uint64_t> begin(n), end(n);
  {
    Scope sweep_span(log, "sweep.run_indexed");
    sweep::run_indexed(n, kSweepThreads, [&](std::size_t i) {
      begin[i] = now_ns();
      rep.sweep_results[i] = sweep::run_scenario(specs[i]);
      end[i] = now_ns();
    });
    rep.wall_s = sweep_span.stop();
  }
  for (std::size_t i = 0; i < n; ++i) {
    log.add("sweep.run_scenario", begin[i], end[i],
            static_cast<std::uint32_t>(i));
    const double s = static_cast<double>(end[i] - begin[i]) * 1e-9;
    rep.op_s.push_back(s);
    rep.run_s += s;
    if (w.scenarios[i].jobs > 1) rep.fleet_s += s;
    const sweep::ScenarioResult& r = rep.sweep_results[i];
    failures.count(r.ok, label(w.scenarios[i], i) + ": " + r.error);
  }
  rep.layers_s = rep.run_s / static_cast<double>(kSweepThreads);

  // Replicas: the same scenarios through the benchmark's own assembly, one
  // thread, for the set-up split and the decision rounds run_scenario
  // cannot show. Each must reproduce the sweep's result exactly.
  for (std::size_t i = 0; i < n; ++i) {
    log.set_run(static_cast<std::uint32_t>(n + i));
    OpResult op = run_op(w.scenarios[i], options, log);
    const sweep::ScenarioResult& r = rep.sweep_results[i];
    std::string why = op.error;
    if (op.ok && r.ok &&
        (op.digest.throughput != r.throughput || op.events != r.events ||
         op.digest.switches != r.switches ||
         op.switches_aborted != r.switch_aborts)) {
      std::ostringstream os;
      os.precision(17);
      os << "replica differs from run_scenario: throughput "
         << op.digest.throughput << " vs " << r.throughput << ", events "
         << op.events << " vs " << r.events << ", switches "
         << op.digest.switches << " vs " << r.switches;
      why = os.str();
      op.ok = false;
    }
    failures.count(op.ok, label(w.scenarios[i], i) + " replica: " + why);
    add_op(rep, std::move(op));
  }
  // events_per_s counts the sweep's events against the sweep's host time.
  rep.events = 0;
  for (const sweep::ScenarioResult& r : rep.sweep_results)
    rep.events += r.events;
  return rep;
}

/// Repetitions of `w` on kRepThreads threads at once, each thread at least
/// once. A thread starts another only while half of its last one still fits
/// before `deadline`, so a run overruns --seconds by less than a
/// repetition. Each thread has its own span log, failure count and
/// artifact files.
std::vector<Rep> concurrent_reps(const Workload& w, const OpOptions& options,
                                 std::uint64_t deadline, Failures& failures) {
  std::vector<std::vector<Rep>> reps(kRepThreads);
  std::vector<Failures> failed(kRepThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kRepThreads; ++t) {
    threads.emplace_back([&, t] {
      OpOptions own = options;
      own.artifact_base += ".t" + std::to_string(t);
      SpanLog quiet(false);
      std::uint64_t last_ns = 0;
      do {
        const std::uint64_t start = now_ns();
        reps[t].push_back(run_rep(w, own, quiet, failed[t]));
        last_ns = now_ns() - start;
      } while (now_ns() + last_ns / 2 < deadline);
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Rep> out;
  for (std::size_t t = 0; t < kRepThreads; ++t) {
    failures.attempted += failed[t].attempted;
    failures.failed += failed[t].failed;
    for (std::string& m : failed[t].messages)
      failures.messages.push_back(std::move(m));
    for (Rep& r : reps[t]) out.push_back(std::move(r));
  }
  return out;
}

/// Every operation of `rep` reproduces `ref`'s simulated outputs.
void check_same(const Rep& ref, const Rep& rep, const Workload& w,
                const char* what, Failures& failures) {
  for (std::size_t i = 0; i < rep.ops.size() && i < ref.ops.size(); ++i) {
    if (!rep.ops[i].ok || !ref.ops[i].ok) continue;
    const std::string diff =
        compare_digests(ref.ops[i].digest, rep.ops[i].digest);
    failures.count(diff.empty(),
                   label(w.scenarios[i], i) + " " + what + ": " + diff);
  }
}

// ---------------------------------------------------------------------------
// Reporting

/// Shortest text that reads back as exactly `v`.
std::string json_number(double v) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

template <class Fn>
double median_of(const std::vector<Rep>& reps, Fn&& fn) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(fn(r));
  return median(v);
}

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

template <class Fn>
double sum_ops(const Rep& rep, Fn&& fn) {
  double s = 0.0;
  for (const OpResult& op : rep.ops) s += fn(op);
  return s;
}

/// Simulated metrics of one repetition (identical across repetitions).
void sim_metrics(const Rep& rep, std::vector<Metric>& out) {
  double throughput = 0.0, p99_sum = 0.0;
  for (const OpResult& op : rep.ops) {
    throughput += op.digest.throughput;
    p99_sum += tail_percentile(op.iteration_gaps, 99.0, 0).value;
  }
  const double n = static_cast<double>(rep.ops.size());
  out.push_back({"sim_throughput", safe_div(throughput, n), "samples/s",
                 "simulated; mean over scenarios"});
  out.push_back({"sim_iter_p99_ms", safe_div(p99_sum, n) * 1e3, "ms",
                 "simulated; mean over scenarios of each one's p99"});
}

std::vector<double> decide_samples(const std::vector<Rep>& reps) {
  std::vector<double> v;
  for (const Rep& r : reps)
    for (const OpResult& op : r.ops)
      v.insert(v.end(), op.decide_ms.begin(), op.decide_ms.end());
  return v;
}

/// The predictor's calibration, from the ledger outcomes of `calibrated`.
struct Calibration {
  double mape = 0.0;
  double bias = 0.0;
  double reverted_share = 0.0;
  std::size_t measured = 0;
};

Calibration calibration(const Rep& calibrated) {
  double ape = 0.0, bias = 0.0;
  std::size_t executed = 0, reverted = 0;
  Calibration c;
  for (const OpResult& op : calibrated.ops) {
    ape += op.ape_sum;
    bias += op.bias_sum;
    c.measured += op.ape_count;
    executed += op.ledger_executed;
    reverted += op.ledger_reverted;
  }
  c.mape = safe_div(ape, static_cast<double>(c.measured));
  c.bias = safe_div(bias, static_cast<double>(c.measured));
  c.reverted_share = safe_div(static_cast<double>(reverted),
                              static_cast<double>(executed + reverted));
  return c;
}

/// Σ over `reps`' operations of each one's fastest repetition of `fn`.
template <class Fn>
double fastest(const std::vector<Rep>& reps, Fn&& fn) {
  std::vector<std::vector<double>> runs;
  for (const Rep& r : reps) {
    runs.emplace_back();
    for (const OpResult& op : r.ops) runs.back().push_back(fn(op));
  }
  return sum_of_fastest(runs);
}

double decide_sum_ms(const OpResult& op) {
  double ms = 0.0;
  for (double d : op.decide_ms) ms += d;
  return ms;
}

/// Host-time metrics take each operation at its fastest repetition: on a
/// shared host a core slows by up to half for seconds at a time, and the
/// minimum over repetitions drops those stretches where a median of whole
/// repetitions keeps them (see README.md, "Noise"). The median figures are
/// printed alongside, not reported.
std::vector<Metric> end_to_end(const std::vector<Rep>& reps,
                               const Rep& calibrated, const Workload& w) {
  std::vector<Metric> m;
  const std::string of = "fastest of " + std::to_string(reps.size()) +
                         " reps per operation";
  std::vector<std::vector<double>> op_runs;
  for (const Rep& r : reps) op_runs.push_back(r.op_s);
  const double threads = w.sweep ? static_cast<double>(kSweepThreads) : 1.0;
  const double op_s = sum_of_fastest(op_runs);
  m.push_back({"wall_s", op_s / threads, "s",
               of + (w.sweep ? ", / " + std::to_string(kSweepThreads) +
                                   " sweep workers"
                             : "") +
                   "; median rep " +
                   json_number(median_of(
                       reps, [](const Rep& r) { return r.wall_s; }))});
  m.push_back({"setup_s",
               median_of(reps, [](const Rep& r) { return r.setup_s; }), "s",
               "median of reps"});
  // On the sweep the events are run_scenario's and each scenario's time
  // is its whole host time; otherwise the loop's.
  const double run_s =
      w.sweep ? op_s
              : fastest(reps, [](const OpResult& op) { return op.loop_s; });
  m.push_back({"events_per_s",
               safe_div(static_cast<double>(reps.front().events), run_s),
               "events/s",
               of + "; median rep " +
                   json_number(median_of(reps, [](const Rep& r) {
                     return safe_div(static_cast<double>(r.events), r.run_s);
                   }))});
  const std::vector<double> decide = decide_samples(reps);
  double decide_sum = 0.0;
  for (double ms : decide) decide_sum += ms;
  const double rounds = static_cast<double>(decide.size()) /
                        static_cast<double>(reps.size());
  m.push_back({"decide_ms_mean",
               safe_div(fastest(reps, decide_sum_ms), rounds), "ms",
               of + ", " + json_number(rounds) +
                   " decision rounds per rep; mean over all " +
                   json_number(safe_div(decide_sum,
                                        static_cast<double>(decide.size())))});
  m.push_back({"peak_rss_mb",
               safe_div(sum_ops(reps.front(),
                                [](const OpResult& op) { return op.peak_rss_mb; }),
                        static_cast<double>(reps.front().ops.size())),
               "MB", "mean over scenarios of each one's VmHWM"});
  sim_metrics(reps.front(), m);
  const Calibration c = calibration(calibrated);
  m.push_back({"predictor_mape", c.mape, "ratio",
               "over " + std::to_string(c.measured) + " measured decisions"});
  return m;
}

std::vector<Metric> per_layer(const std::vector<Rep>& reps,
                              const Rep& calibrated, const Workload& w,
                              double untraced_wall,
                              const std::vector<Rep>& sinked,
                              const Failures& failures) {
  std::vector<Metric> m;
  const Rep& first = reps.front();
  const auto med = [&](auto fn) { return median_of(reps, fn); };
  const auto count = [&](auto fn) { return sum_ops(first, fn); };

  // Set-up.
  const double plan = med([](const Rep& r) { return r.plan_s; });
  m.push_back({"setup.plan_s", plan, "s", "PipeDreamPlanner::plan"});
  m.push_back({"setup.build_s",
               med([](const Rep& r) { return r.setup_s - r.plan_s; }), "s",
               ""});

  // Event loop (sim + pipeline).
  const double events = static_cast<double>(
      count([](const OpResult& op) { return static_cast<double>(op.events); }));
  const auto loop_self = [](const Rep& r) { return r.loop_s - r.callbacks_s; };
  const double self = med(loop_self);
  const double loop_ns = safe_div(self, events) * 1e9;
  m.push_back({"sim.events", events, "count", ""});
  m.push_back({"sim.loop_self_s", self, "s", "loop minus timed callbacks"});
  m.push_back({"sim.loop_ns_per_event", loop_ns, "ns/event", ""});
  const double flow_samples = count(
      [](const OpResult& op) { return static_cast<double>(op.flow_samples); });
  m.push_back({"sim.flows_active_mean",
               safe_div(count([](const OpResult& op) { return op.flows_sum; }),
                        flow_samples),
               "count", "sampled at each iteration"});
  double flows_max = 0.0;
  for (const OpResult& op : first.ops)
    flows_max = std::max(flows_max, static_cast<double>(op.flows_max));
  m.push_back({"sim.flows_active_max", flows_max, "count", ""});

  m.push_back({"pipeline.switch_attempts", count([](const OpResult& op) {
                 return static_cast<double>(op.switch_attempts);
               }),
               "count", ""});
  m.push_back({"pipeline.switches", count([](const OpResult& op) {
                 return static_cast<double>(op.digest.switches);
               }),
               "count", ""});
  m.push_back({"pipeline.switches_aborted", count([](const OpResult& op) {
                 return static_cast<double>(op.switches_aborted);
               }),
               "count", ""});
  m.push_back({"pipeline.dropped_batches",
               count([](const OpResult& op) { return op.dropped_batches; }),
               "count", ""});
  m.push_back({"pipeline.utilization",
               safe_div(count([](const OpResult& op) { return op.utilization; }),
                        static_cast<double>(first.ops.size())),
               "ratio", ""});
  m.push_back({"pipeline.bytes_on_wire_gb",
               count([](const OpResult& op) { return op.bytes_on_wire; }) / 1e9,
               "GB", ""});
  m.push_back({"pipeline.switch_stall_s",
               count([](const OpResult& op) { return op.switch_stall_s; }),
               "s", "simulated"});
  m.push_back({"pipeline.bubble_s",
               count([](const OpResult& op) { return op.bubble_s; }), "s",
               "simulated"});

  // AutoPipe + partition.
  m.push_back({"autopipe.round_s", med([](const Rep& r) { return r.round_s; }),
               "s", "Σ on_iteration"});
  m.push_back({"autopipe.rounds", count([](const OpResult& op) {
                 return static_cast<double>(op.rounds);
               }),
               "count", ""});
  m.push_back({"autopipe.decisions", count([](const OpResult& op) {
                 return static_cast<double>(op.decisions);
               }),
               "count", ""});
  m.push_back({"autopipe.replans", count([](const OpResult& op) {
                 return static_cast<double>(op.replans);
               }),
               "count", ""});
  m.push_back({"autopipe.emergency_replans", count([](const OpResult& op) {
                 return static_cast<double>(op.emergency_replans);
               }),
               "count", ""});
  const std::vector<double> decide = decide_samples(reps);
  const Tail decide_tail = tail_percentile(decide);
  m.push_back({"autopipe.decide_ms_p50", median(decide), "ms",
               std::to_string(decide.size()) + " decision rounds"});
  m.push_back({"autopipe.decide_ms_p99", decide_tail.value, "ms",
               "p" + json_number(decide_tail.percentile) + ", " +
                   std::to_string(decide_tail.beyond) + " samples beyond"});
  const auto site = [&](ProfSite OpResult::*field) {
    double ns = 0.0, calls = 0.0;
    for (const Rep& r : reps) {
      for (const OpResult& op : r.ops) {
        ns += (op.*field).self_ns;
        calls += static_cast<double>((op.*field).calls);
      }
    }
    return safe_div(ns, calls);
  };
  m.push_back({"autopipe.decide_round_us",
               site(&OpResult::decide_round) / 1e3, "us",
               "exclusive, per call"});
  m.push_back({"autopipe.replan_us", site(&OpResult::replan) / 1e3, "us",
               "exclusive, per call"});
  m.push_back({"partition.solve_us", site(&OpResult::solve) / 1e3, "us",
               "exclusive, per call"});
  m.push_back({"autopipe.predictor_infer_ns", site(&OpResult::predictor_infer),
               "ns", "per call"});
  const Calibration c = calibration(calibrated);
  m.push_back({"autopipe.reverted_share", c.reverted_share, "ratio",
               "reverted / (executed + reverted)"});
  m.push_back({"autopipe.predictor_bias", c.bias, "ratio", ""});

  // Cluster (fleets) and sweep.
  double fleets = 0.0, jain = 0.0;
  for (const OpResult& op : first.ops) {
    if (!op.fleet) continue;
    fleets += 1.0;
    jain += op.jain;
  }
  m.push_back({"cluster.fleet_host_share",
               med([](const Rep& r) { return safe_div(r.fleet_s, r.run_s); }),
               "ratio", "fleet scenarios' share of scenario host time"});
  m.push_back({"cluster.claim_rounds", count([](const OpResult& op) {
                 return static_cast<double>(op.claim_rounds);
               }),
               "count", ""});
  m.push_back({"cluster.conflicts", count([](const OpResult& op) {
                 return static_cast<double>(op.conflicts);
               }),
               "count", ""});
  m.push_back({"cluster.grants", count([](const OpResult& op) {
                 return static_cast<double>(op.grants);
               }),
               "count", ""});
  m.push_back({"cluster.contention_aborts", count([](const OpResult& op) {
                 return static_cast<double>(op.contention_aborts);
               }),
               "count", ""});
  m.push_back({"cluster.jain_mean", safe_div(jain, fleets), "ratio", ""});

  std::vector<double> scenario_ms;
  for (const Rep& r : reps)
    for (double s : r.op_s)
      if (w.sweep) scenario_ms.push_back(s * 1e3);
  const Tail scenario_tail = tail_percentile(scenario_ms);
  m.push_back({"sweep.scenario_ms_p50", median(scenario_ms), "ms",
               std::to_string(scenario_ms.size()) + " scenarios"});
  m.push_back({"sweep.scenario_ms_p99", scenario_tail.value, "ms",
               "p" + json_number(scenario_tail.percentile)});
  m.push_back({"sweep.parallel_efficiency", w.sweep ? med([](const Rep& r) {
                 return safe_div(r.run_s, static_cast<double>(kSweepThreads) *
                                              r.wall_s);
               })
                                                    : 0.0,
               "ratio", "Σ scenario time / (threads × sweep wall)"});
  std::size_t sweep_failed = 0;
  for (const sweep::ScenarioResult& r : first.sweep_results)
    sweep_failed += r.ok ? 0 : 1;
  m.push_back({"sweep.scenarios",
               static_cast<double>(first.sweep_results.size()), "count", ""});
  m.push_back({"sweep.failed", static_cast<double>(sweep_failed), "count", ""});

  // Sinks, analysis, I/O: from the sinks pass, zero without one.
  const auto sink_count = [&](std::size_t OpResult::*field) {
    return sinked.empty() ? 0.0
                          : sum_ops(sinked.front(), [field](const OpResult& op) {
                              return static_cast<double>(op.*field);
                            });
  };
  const auto sink_time = [&](double OpResult::*field) {
    return median_of(sinked, [field](const Rep& r) {
      return sum_ops(r, [field](const OpResult& op) { return op.*field; });
    });
  };
  m.push_back({"sink.trace.events", sink_count(&OpResult::trace_events),
               "count", ""});
  m.push_back({"sink.trace.bytes", sink_count(&OpResult::trace_bytes),
               "bytes", ""});
  m.push_back({"sink.trace.format_s", sink_time(&OpResult::trace_format_s),
               "s", ""});
  m.push_back({"sink.ledger.records", sink_count(&OpResult::ledger_records),
               "count", ""});
  m.push_back({"sink.ledger.bytes", sink_count(&OpResult::ledger_bytes),
               "bytes", ""});
  m.push_back({"sink.ledger.format_s", sink_time(&OpResult::ledger_format_s),
               "s", ""});
  m.push_back({"sink.timeseries.rows", sink_count(&OpResult::timeseries_rows),
               "count", ""});
  m.push_back({"sink.timeseries.bytes",
               sink_count(&OpResult::timeseries_bytes), "bytes", ""});
  m.push_back({"sink.timeseries.format_s",
               sink_time(&OpResult::timeseries_format_s), "s", ""});
  m.push_back({"sink.metrics.format_s",
               sink_time(&OpResult::metrics_format_s), "s", ""});
  m.push_back({"io.write_s", sink_time(&OpResult::io_write_s), "s", ""});
  m.push_back({"analysis.bubbles_s", sink_time(&OpResult::bubbles_s), "s",
               ""});
  const double sinked_ns = safe_div(median_of(sinked, loop_self), events) * 1e9;
  m.push_back({"sink.record_ns_per_event",
               sinked.empty() ? 0.0 : sinked_ns - loop_ns, "ns/event",
               "loop ns/event with every sink on minus with none"});

  // Accounting.
  const double wall = med([](const Rep& r) { return r.wall_s; });
  m.push_back({"unattributed_s", med([](const Rep& r) {
                 return unattributed(r.wall_s, {r.layers_s});
               }),
               "s", "wall minus the timed layers"});
  m.push_back({"trace_overhead_s", wall - untraced_wall, "s",
               "median traced wall minus median untraced wall"});
  m.push_back({"ops_failed_share",
               failure_share(failures.failed, failures.attempted), "ratio",
               ""});
  return m;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_result(const std::vector<Metric>& metrics,
                  const Failures& failures, bool correct) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << (m.note.empty() ? "" : "  (" + m.note + ")")
              << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << failures.attempted
            << ", \"failed\": " << failures.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << json_string(metrics[i].name)
              << ": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

// ---------------------------------------------------------------------------
// Like-for-like guard

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Print the build and host facts a comparison must hold equal; false when
/// this build or environment must not be measured.
bool guard(const std::string& source_digest) {
  const autopipe::sim::Simulator probe;
  std::cout << "# source " << (source_digest.empty() ? "unknown" : source_digest)
            << "\n# compiler " << __VERSION__ << "\n# build_type "
            << PERFBENCH_BUILD_TYPE << (kOptimized ? "" : " (unoptimized)")
            << "\n# AUTOPIPE_TRACING " << AUTOPIPE_TRACING
            << "\n# sanitizer " << (kSanitized ? "on" : "off")
            << "\n# event_queue " << probe.queue_name() << "\n# nproc "
            << std::thread::hardware_concurrency() << "\n";
  if (std::getenv("AUTOPIPE_EVENT_QUEUE") != nullptr) {
    std::cerr << "perfbench: refusing to run with AUTOPIPE_EVENT_QUEUE set\n";
    return false;
  }
  if (kSanitized || !kOptimized) {
    std::cerr << "perfbench: refusing to measure a sanitized or unoptimized "
                 "build\n";
    return false;
  }
  return true;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string source_digest;
};

bool parse_args(int argc, char** argv, Args& a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || kv.count("workload") == 0) return false;
  try {
    for (const auto& [key, value] : kv) {
      if (key == "workload") a.workload = value;
      else if (key == "seed") a.seed = std::stoull(value);
      else if (key == "seconds") a.seconds = std::stod(value);
      else if (key == "trace") a.trace = std::stoi(value) != 0;
      else if (key == "out-dir") a.out_dir = value;
      else if (key == "source-digest") a.source_digest = value;
      else return false;
    }
  } catch (const std::exception&) {
    return false;
  }
  return a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  if (!parse_args(argc, argv, args) ||
      !make_workload(args.workload, args.seed, w)) {
    std::cerr << "usage: perfbench --workload vgg16-bwdrop|bert48-chaos|"
                 "sweep-fleet --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--source-digest HEX]\n";
    return 2;
  }
  if (!guard(args.source_digest)) return 3;
  std::cout << "# workload " << args.workload << " seed " << args.seed
            << " scenarios " << w.scenarios.size() << " trace "
            << args.trace << "\n";

  const std::string prefix = args.out_dir + "/" + args.workload;
  Failures failures;
  SpanLog log(args.trace);
  OpOptions options;
  options.traced = args.trace;
  options.artifact_base = prefix;  // every scenario overwrites the last

  // Timed repetitions, for at least --seconds. The first runs alone: its
  // memory high-water marks and counts are reported. An untraced
  // single-job workload then repeats on kRepThreads threads at once. The
  // traced run alternates each traced repetition with an untraced one, so
  // trace_overhead_s compares the two under the same machine conditions.
  OpOptions plain = options;
  plain.traced = false;
  SpanLog quiet(false);
  std::vector<Rep> reps, untraced;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  if (!args.trace && !w.sweep) {
    reps.push_back(run_rep(w, options, log, failures));
    for (Rep& r : concurrent_reps(w, options, deadline, failures)) {
      check_same(reps.front(), r, w, "repetition", failures);
      reps.push_back(std::move(r));
    }
    std::cerr << "perfbench: " << reps.size() << " repetitions on "
              << kRepThreads << " threads\n";
  }
  while (reps.size() < kMinReps || now_ns() < deadline) {
    reps.push_back(run_rep(w, options, log, failures));
    std::cerr << "perfbench: repetition " << reps.size() << " wall "
              << reps.back().wall_s << " s\n";
    if (reps.size() > 1)
      check_same(reps.front(), reps.back(), w, "repetition", failures);
    if (args.trace) {
      untraced.push_back(run_rep(w, plain, quiet, failures));
      check_same(reps.front(), untraced.back(), w, "traced vs untraced",
                 failures);
    }
  }

  // Check pass: the scenarios again with the ledger on. The simulated
  // outputs must not move; the pass gives the predictor's calibration.
  OpOptions check = options;
  check.ledger = true;
  check.traced = false;
  const Rep calibrated = run_rep(w, check, quiet, failures);
  check_same(reps.front(), calibrated, w, "ledger on vs off", failures);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = end_to_end(reps, calibrated, w);
  } else {
    // The sinks pass: every sink on, under the same spans. Recording must
    // not perturb the simulation.
    std::vector<Rep> sinked;
    if (w.sink_pass) {
      OpOptions on = options;
      on.sinks = true;
      while (sinked.size() < kMinReps) {
        sinked.push_back(run_rep(w, on, log, failures));
        check_same(reps.front(), sinked.back(), w, "sinks on vs off",
                   failures);
      }
    }
    const double untraced_wall =
        median_of(untraced, [](const Rep& r) { return r.wall_s; });
    metrics = per_layer(reps, calibrated, w, untraced_wall, sinked, failures);
    std::ofstream spans_out(prefix + "-" + std::to_string(args.seed) +
                            ".spans.tsv");
    log.write_tsv(spans_out);
    const auto self = log.self_seconds();
    for (const auto& [name, total] : log.total_seconds()) {
      std::cout << "# span " << name << " total " << json_number(total)
                << " s self " << json_number(self.at(name)) << " s\n";
    }
  }

  bool correct = failures.failed == 0;
  for (const Metric& m : metrics) {
    if (std::isfinite(m.value)) continue;
    failures.messages.push_back(m.name + " is not finite");
    correct = false;
  }
  for (const std::string& msg : failures.messages)
    std::cerr << "perfbench: FAILED " << msg << "\n";
  print_result(metrics, failures, correct);
  return correct ? 0 : 1;
}
