#include "analysis/ledger_reader.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace autopipe::analysis {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("ledger parse error at line " +
                           std::to_string(line_no) + ": " + what);
}

/// key=value tokens after the leading line kind.
std::map<std::string, std::string> parse_fields(std::istringstream& tokens,
                                                std::size_t line_no) {
  std::map<std::string, std::string> fields;
  std::string token;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      fail(line_no, "malformed token '" + token + "'");
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return fields;
}

const std::string& require(const std::map<std::string, std::string>& fields,
                           const std::string& key, std::size_t line_no) {
  auto it = fields.find(key);
  if (it == fields.end()) fail(line_no, "missing field '" + key + "'");
  return it->second;
}

std::string opt(const std::string& raw) { return raw == "-" ? "" : raw; }

double to_double(const std::string& raw, std::size_t line_no) {
  try {
    std::size_t used = 0;
    const double v = std::stod(raw, &used);
    if (used != raw.size()) fail(line_no, "trailing junk in '" + raw + "'");
    return v;
  } catch (const std::logic_error&) {
    fail(line_no, "bad number '" + raw + "'");
  }
}

std::uint64_t to_u64(const std::string& raw, std::size_t line_no) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(raw, &used);
    if (used != raw.size()) fail(line_no, "trailing junk in '" + raw + "'");
    return v;
  } catch (const std::logic_error&) {
    fail(line_no, "bad integer '" + raw + "'");
  }
}

trace::DecisionAction parse_action(const std::string& raw,
                                   std::size_t line_no) {
  if (raw == "switch") return trace::DecisionAction::kSwitch;
  if (raw == "hold") return trace::DecisionAction::kHold;
  fail(line_no, "unknown action '" + raw + "'");
}

trace::OutcomeStatus parse_status(const std::string& raw,
                                  std::size_t line_no) {
  for (trace::OutcomeStatus s :
       {trace::OutcomeStatus::kPending, trace::OutcomeStatus::kExecuted,
        trace::OutcomeStatus::kReverted, trace::OutcomeStatus::kRejected,
        trace::OutcomeStatus::kSuperseded,
        trace::OutcomeStatus::kAbortedPrepare,
        trace::OutcomeStatus::kAbortedDrain,
        trace::OutcomeStatus::kAbortedTransfer}) {
    if (raw == trace::outcome_status_name(s)) return s;
  }
  fail(line_no, "unknown outcome status '" + raw + "'");
}

std::vector<double> parse_q(const std::string& raw, std::size_t line_no) {
  std::vector<double> q;
  if (raw == "-") return q;
  std::istringstream parts(raw);
  std::string part;
  while (std::getline(parts, part, ',')) q.push_back(to_double(part, line_no));
  return q;
}

}  // namespace

trace::DecisionLedger read_ledger(std::istream& is) {
  trace::DecisionLedger ledger;
  std::string line;
  std::size_t line_no = 0;

  if (!std::getline(is, line)) fail(1, "empty ledger");
  ++line_no;
  std::istringstream header(line);
  std::string kind, version;
  header >> kind >> version;
  if (kind != "ledger") fail(line_no, "not a ledger file");
  if (version != "v1") fail(line_no, "unsupported version '" + version + "'");
  const auto meta = parse_fields(header, line_no);
  ledger.set_run_info(
      static_cast<int>(to_u64(require(meta, "batch", line_no), line_no)),
      static_cast<int>(to_u64(require(meta, "workers", line_no), line_no)),
      opt(require(meta, "model", line_no)));
  const std::uint64_t expected =
      to_u64(require(meta, "decisions", line_no), line_no);

  // The open record accumulates cand/choice/outcome lines until the next
  // `decision` line (or EOF) seals it.
  bool open = false;
  bool have_choice = false, have_outcome = false;
  trace::DecisionRecord rec;
  const auto seal = [&] {
    if (!open) return;
    if (!have_choice) fail(line_no, "record missing choice line");
    if (!have_outcome) fail(line_no, "record missing outcome line");
    const std::uint64_t id = rec.id;
    if (ledger.add(std::move(rec)) != id)
      fail(line_no, "non-sequential record id");
    open = false;
  };

  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream tokens(line);
    std::string what;
    tokens >> what;
    const auto fields = parse_fields(tokens, line_no);
    const std::uint64_t id = to_u64(require(fields, "id", line_no), line_no);

    if (what == "decision") {
      seal();
      open = true;
      have_choice = have_outcome = false;
      rec = trace::DecisionRecord{};
      rec.id = id;
      rec.time = to_double(require(fields, "t", line_no), line_no);
      rec.iteration = to_u64(require(fields, "iter", line_no), line_no);
      rec.kind = opt(require(fields, "kind", line_no));
      rec.digest = opt(require(fields, "digest", line_no));
      rec.num_workers = static_cast<int>(
          to_u64(require(fields, "workers", line_no), line_no));
      rec.iteration_time =
          to_double(require(fields, "iter_time", line_no), line_no);
      rec.current = opt(require(fields, "current", line_no));
      rec.current_pred =
          to_double(require(fields, "current_pred", line_no), line_no);
      // Optional co-tenancy tag; absent in single-tenant ledgers.
      if (const auto it = fields.find("job"); it != fields.end())
        rec.job = to_u64(it->second, line_no);
      continue;
    }
    if (!open || id != rec.id)
      fail(line_no, "'" + what + "' line outside its decision");
    if (what == "cand") {
      if (to_u64(require(fields, "n", line_no), line_no) !=
          rec.candidates.size())
        fail(line_no, "candidate index out of order");
      trace::CandidateScore cs;
      cs.partition = opt(require(fields, "part", line_no));
      cs.predicted_speed = to_double(require(fields, "pred", line_no), line_no);
      cs.cost_fine = to_double(require(fields, "cost_fine", line_no), line_no);
      cs.cost_stw = to_double(require(fields, "cost_stw", line_no), line_no);
      cs.skipped = require(fields, "skip", line_no) == "1";
      rec.candidates.push_back(std::move(cs));
    } else if (what == "choice") {
      have_choice = true;
      rec.action = parse_action(require(fields, "action", line_no), line_no);
      rec.target = opt(require(fields, "target", line_no));
      rec.chosen_pred = to_double(require(fields, "pred", line_no), line_no);
      rec.best_pred = to_double(require(fields, "best", line_no), line_no);
      rec.cost_seconds = to_double(require(fields, "cost", line_no), line_no);
      rec.arbiter = opt(require(fields, "arbiter", line_no));
      rec.explored = require(fields, "explore", line_no) == "1";
      rec.q_values = parse_q(require(fields, "q", line_no), line_no);
    } else if (what == "outcome") {
      have_outcome = true;
      rec.outcome.status =
          parse_status(require(fields, "status", line_no), line_no);
      const std::string& realized = require(fields, "realized", line_no);
      rec.outcome.realized_speed =
          realized == "-" ? -1.0 : to_double(realized, line_no);
      rec.outcome.window_iterations = static_cast<int>(
          to_u64(require(fields, "window", line_no), line_no));
      rec.outcome.reason = opt(require(fields, "reason", line_no));
    } else {
      fail(line_no, "unknown line kind '" + what + "'");
    }
  }
  seal();
  if (ledger.size() != expected)
    fail(line_no, "header promised " + std::to_string(expected) +
                      " decisions, file has " + std::to_string(ledger.size()));
  return ledger;
}

bool ledger_round_trips(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  read_ledger(in).write_text(out);
  return out.str() == text;
}

trace::DecisionLedger read_ledger_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open ledger file: " + path);
  return read_ledger(is);
}

}  // namespace autopipe::analysis
