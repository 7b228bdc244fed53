// The lexical layer shared by the text grammars (sweep specs, fleet jobs
// specs, fault schedules): statement splitting with source line numbers,
// '#' comments, ';' separators, `@file` arguments, and number parsing whose
// diagnostics carry each grammar's own prefix. The grammars keep their own
// keys and semantics; only the lexing lives here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace autopipe::lex {

/// One statement of a spec text: the 1-based source line it started on and
/// its text with the comment removed (not trimmed).
struct Statement {
  std::size_t line = 0;
  std::string text;
};

/// Split `text` into statements. '#' starts a comment that runs to the end
/// of its line (so a ';' inside prose never starts a phantom statement);
/// newlines and ';' both end a statement. Blank statements are dropped.
std::vector<Statement> split_statements(const std::string& text);

/// Resolve a CLI spec argument: `@path` returns the file's contents, anything
/// else is returned as-is. Returns false when the file cannot be read.
bool load_text(const std::string& arg, std::string& text);

/// `s` without leading and trailing whitespace.
std::string trim(const std::string& s);

/// `s` split at every `sep` (no trimming; a trailing separator adds no
/// empty item).
std::vector<std::string> split(const std::string& s, char sep);

/// Where a number came from, for diagnostics. Every message starts with
/// `prefix` ("sweep spec: ", "jobs spec: line 3: "); `subject` names the
/// value ("key 'seed'", "'seed'") and may be empty.
struct Site {
  std::string prefix;
  std::string subject;
};

/// The whole of `v` as a double. Throws contract_error
/// "<prefix>bad number '<v>'[ for <subject>]".
double parse_double(const std::string& v, const Site& site);

/// The whole of `v` as a non-negative integer. Throws contract_error as
/// parse_double, or "<prefix><subject> wants a non-negative integer, got
/// '<v>'".
std::uint64_t parse_u64(const std::string& v, const Site& site);

}  // namespace autopipe::lex
