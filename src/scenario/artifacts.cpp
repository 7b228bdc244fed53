#include "scenario/artifacts.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/json.hpp"

namespace autopipe::scenario {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The trace format a path asks for by its extension.
Artifact trace_format(const std::string& path) {
  return ends_with(path, ".txt") || ends_with(path, ".trace")
             ? Artifact::kTrace
             : Artifact::kChromeTrace;
}

template <class Write>
void write_file(const std::string& path, const char* what, Write&& write) {
  std::ofstream out(path);
  if (!out.good())
    throw std::runtime_error(std::string("cannot open ") + what +
                             " file: " + path);
  write(out);
}

}  // namespace

void write_artifact(const sim::Simulator& simulator, Artifact artifact,
                    std::ostream& os) {
  switch (artifact) {
    case Artifact::kTrace:
      simulator.tracer().write_text(os);
      break;
    case Artifact::kChromeTrace:
      simulator.tracer().write_chrome_json(os);
      break;
    case Artifact::kMetrics:
      analysis::write_scalar_map_json(simulator.metrics().flattened(), os);
      break;
    case Artifact::kLedger:
      simulator.ledger().write_text(os);
      break;
    case Artifact::kTimeseries:
      simulator.timeseries().write_text(os);
      break;
  }
}

std::string artifact_text(const sim::Simulator& simulator, Artifact artifact) {
  std::ostringstream os;
  write_artifact(simulator, artifact, os);
  return os.str();
}

std::pair<std::string, double> split_timeseries_arg(const std::string& arg) {
  const std::string::size_type colon = arg.rfind(':');
  if (colon != std::string::npos && colon + 1 < arg.size()) {
    char* end = nullptr;
    const double v = std::strtod(arg.c_str() + colon + 1, &end);
    if (end != nullptr && *end == '\0' && v > 0.0)
      return {arg.substr(0, colon), v};
  }
  return {arg, 1.0};
}

void write_outputs(const sim::Simulator& simulator, const OutputPaths& paths) {
  const auto write = [&](const std::string& path, const char* what,
                         Artifact artifact) {
    if (path.empty()) return;
    write_file(path, what, [&](std::ostream& os) {
      write_artifact(simulator, artifact, os);
    });
  };
  write(paths.trace, "trace", trace_format(paths.trace));
  write(paths.metrics, "metrics", Artifact::kMetrics);
  write(paths.ledger, "ledger", Artifact::kLedger);
  write(paths.timeseries, "timeseries", Artifact::kTimeseries);
  if (!paths.profile.empty()) write_profile(paths.profile);
}

std::vector<prof::ThreadProfile> write_profile(const std::string& path) {
  prof::set_enabled(false);
  std::vector<prof::ThreadProfile> profiles = prof::collect();
  write_file(path, "profile", [&](std::ostream& os) {
    if (ends_with(path, ".json")) {
      prof::write_chrome_json(profiles, os);
    } else {
      prof::write_text(profiles, os);
    }
  });
  return profiles;
}

}  // namespace autopipe::scenario
