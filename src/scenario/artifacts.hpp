// The one artifact writer. Every tool and bench renders a finished run's
// recorders through here — to a string for in-process comparison, or to the
// files one OutputPaths names — so a trace, metrics, ledger or time-series
// artifact has the same bytes whichever tool wrote it. Run the simulation
// through World::run() first: it finalizes the ledger and the time series.
//
// capture() and compare() are the one replay check: every harness that
// asserts a run is reproducible captures two runs and compares them here.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/profile.hpp"
#include "scenario/world.hpp"
#include "sim/simulator.hpp"

namespace autopipe::scenario {

enum class Artifact {
  kTrace,        ///< plain-text event trace
  kChromeTrace,  ///< Chrome trace_event JSON
  kMetrics,      ///< flattened metrics registry as one JSON object
  kLedger,       ///< decision ledger text
  kTimeseries,   ///< autopipe-ts-v1 metric time series
};

void write_artifact(const sim::Simulator& simulator, Artifact artifact,
                    std::ostream& os);
std::string artifact_text(const sim::Simulator& simulator, Artifact artifact);

/// Output files of a run; an empty path is not written.
struct OutputPaths {
  std::string trace;  ///< .txt/.trace → plain text, otherwise Chrome JSON
  std::string metrics;
  std::string ledger;
  std::string timeseries;
  std::string profile;  ///< .json → Chrome JSON, otherwise autopipe-prof-v1
};

/// Split a `PATH[:INTERVAL]` time-series argument. The suffix after the
/// last ':' is the sampling interval only when it parses fully as a
/// positive number (default 1 sim-second), so paths containing colons keep
/// working.
std::pair<std::string, double> split_timeseries_arg(const std::string& arg);

/// Write every artifact `paths` names. Throws std::runtime_error naming the
/// first file that cannot be written.
void write_outputs(const sim::Simulator& simulator, const OutputPaths& paths);

/// Stop the host self-profiler and write its capture to `path`; returns the
/// capture. Call after worker threads have joined.
std::vector<prof::ThreadProfile> write_profile(const std::string& path);

/// Every observable output of one finished run. Two runs replay
/// byte-identically when all fields compare equal — the strings
/// byte-for-byte, the doubles bit-for-bit.
struct Capture {
  std::string trace;       ///< plain-text event trace
  std::string ledger;      ///< finalized decision ledger
  std::string metrics;     ///< flattened metrics registry, JSON
  std::string timeseries;  ///< autopipe-ts-v1 metric time series
  /// One line per causal event: "eid<-cause category:name". Redundant with
  /// `trace` byte-equality, but diffing it separately localizes a
  /// divergence in the causal graph (a reordered scheduling decision) even
  /// when timestamps happen to agree.
  std::string causal;
  /// Every job's iteration end times, jobs in fleet order.
  std::vector<double> iteration_end_times;
  std::uint64_t events_processed = 0;
  std::uint64_t events_scheduled = 0;  ///< pushes must match too
};

/// Capture a world after World::run().
Capture capture(const World& world);

/// Outcome of comparing two captures of the same scenario.
struct Divergence {
  bool identical = true;
  /// Empty when identical; otherwise a human-readable report naming each
  /// diverging artifact with its first differing line (1-based) or value.
  std::string report;
};

/// Byte/bit-exact comparison with first-divergence diagnostics.
Divergence compare(const Capture& reference, const Capture& candidate);

/// Divergence triage: write `prefix` + ".report.txt" and each capture's
/// text artifacts to `prefix` + ".first" / ".replay" + ".trace",
/// ".ledger", ".metrics", ".timeseries" and ".causal". The directory must
/// exist.
void write_divergence(const std::string& prefix, const Capture& first,
                      const Capture& replay, const Divergence& divergence);

}  // namespace autopipe::scenario
