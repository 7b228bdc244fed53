// Parser for the decision-ledger text format (common/ledger.hpp). The
// format is line-based key=value groups — a `decision` line opens a record,
// `cand` lines add its candidates, `choice` carries the arbiter verdict and
// `outcome` the terminal state — and every double was written with
// trace::format_double, so parse → reserialize is byte-identical. That
// round-trip is the integrity check `autopipe_trace decisions --check` and
// tools/check.sh --ledger-smoke run.
#pragma once

#include <iosfwd>
#include <string>

#include "common/ledger.hpp"

namespace autopipe::analysis {

/// Parse a serialized ledger. Throws std::runtime_error naming the line on
/// malformed input (unknown line kind, missing field, id mismatch, record
/// count disagreeing with the header).
trace::DecisionLedger read_ledger(std::istream& is);

/// Whether `text` parses and reserializes byte-identically. Throws like
/// read_ledger() on malformed input.
bool ledger_round_trips(const std::string& text);

/// read_ledger() on a file; throws std::runtime_error when unreadable.
trace::DecisionLedger read_ledger_file(const std::string& path);

}  // namespace autopipe::analysis
