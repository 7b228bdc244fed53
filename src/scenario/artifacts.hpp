// The one artifact writer. Every tool and bench renders a finished run's
// recorders through here — to a string for in-process comparison, or to the
// files one OutputPaths names — so a trace, metrics, ledger or time-series
// artifact has the same bytes whichever tool wrote it. Run the simulation
// through World::run() first: it finalizes the ledger and the time series.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/profile.hpp"
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

}  // namespace autopipe::scenario
