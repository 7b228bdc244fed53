#include "scenario/artifacts.hpp"

#include <algorithm>
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

/// Report the first line where two texts differ (1-based), with context.
void diff_text(const char* artifact, const std::string& ref,
               const std::string& cand, std::ostringstream& os) {
  if (ref == cand) return;
  std::istringstream a(ref);
  std::istringstream b(cand);
  std::string la;
  std::string lb;
  std::size_t line = 0;
  for (;;) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    ++line;
    if (!ga && !gb) break;  // equal prefix but unequal strings: length diff
    if (ga != gb || la != lb) {
      os << artifact << ": first divergence at line " << line << "\n"
         << "  reference: " << (ga ? la : std::string("<end of text>"))
         << "\n"
         << "  candidate: " << (gb ? lb : std::string("<end of text>"))
         << "\n";
      return;
    }
  }
  os << artifact << ": texts differ in length only (" << ref.size() << " vs "
     << cand.size() << " bytes)\n";
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

Capture capture(const World& world) {
  const sim::Simulator& simulator = world.simulator();
  Capture out;
  out.trace = artifact_text(simulator, Artifact::kTrace);
  out.ledger = artifact_text(simulator, Artifact::kLedger);
  out.metrics = artifact_text(simulator, Artifact::kMetrics);
  out.timeseries = artifact_text(simulator, Artifact::kTimeseries);
  std::ostringstream cs;
  for (const trace::Event& ev : simulator.tracer().events()) {
    if (ev.eid == 0) continue;
    cs << ev.eid << "<-" << ev.cause << ' '
       << trace::category_name(ev.category) << ':' << ev.name << '\n';
  }
  out.causal = cs.str();
  if (world.spec().fleet.jobs.empty()) {
    out.iteration_end_times = world.report().iteration_end_times;
  } else {
    for (const auto& job : world.fleet_report().jobs)
      out.iteration_end_times.insert(out.iteration_end_times.end(),
                                     job.report.iteration_end_times.begin(),
                                     job.report.iteration_end_times.end());
  }
  out.events_processed = simulator.events_processed();
  out.events_scheduled = simulator.events_scheduled();
  return out;
}

Divergence compare(const Capture& reference, const Capture& candidate) {
  std::ostringstream os;
  diff_text("trace", reference.trace, candidate.trace, os);
  diff_text("ledger", reference.ledger, candidate.ledger, os);
  diff_text("metrics", reference.metrics, candidate.metrics, os);
  diff_text("timeseries", reference.timeseries, candidate.timeseries, os);
  diff_text("causal", reference.causal, candidate.causal, os);
  const std::vector<double>& ref_ends = reference.iteration_end_times;
  const std::vector<double>& cand_ends = candidate.iteration_end_times;
  if (ref_ends.size() != cand_ends.size()) {
    os << "iteration_end_times: count " << ref_ends.size() << " vs "
       << cand_ends.size() << "\n";
  } else {
    const auto [r, c] =
        std::mismatch(ref_ends.begin(), ref_ends.end(), cand_ends.begin());
    if (r != ref_ends.end()) {
      os.precision(17);
      os << "iteration_end_times: first divergence at iteration "
         << (r - ref_ends.begin()) << ": " << *r << " vs " << *c << "\n";
    }
  }
  if (reference.events_processed != candidate.events_processed) {
    os << "events_processed: " << reference.events_processed << " vs "
       << candidate.events_processed << "\n";
  }
  if (reference.events_scheduled != candidate.events_scheduled) {
    os << "events_scheduled: " << reference.events_scheduled << " vs "
       << candidate.events_scheduled << "\n";
  }
  Divergence d;
  d.report = os.str();
  d.identical = d.report.empty();
  return d;
}

void write_divergence(const std::string& prefix, const Capture& first,
                      const Capture& replay, const Divergence& divergence) {
  const auto write = [](const std::string& path, const std::string& text) {
    write_file(path, "divergence", [&](std::ostream& os) { os << text; });
  };
  write(prefix + ".report.txt", divergence.report);
  for (const auto& [run, capture] :
       {std::pair<const char*, const Capture*>{".first", &first},
        {".replay", &replay}}) {
    const std::string stem = prefix + run;
    write(stem + ".trace", capture->trace);
    write(stem + ".ledger", capture->ledger);
    write(stem + ".metrics", capture->metrics);
    write(stem + ".timeseries", capture->timeseries);
    write(stem + ".causal", capture->causal);
  }
}

}  // namespace autopipe::scenario
