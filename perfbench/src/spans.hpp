// In-memory span log for the traced benchmark run. A span is one timed call
// into a layer's public API, made from the benchmark's own code: name,
// start, end, the enclosing span and the operation (run id) it belongs to.
// Spans stay in memory until the run ends and are written out then.
//
// Every Scope reads the clock, whether or not the log records: the
// untraced run needs the same boundary timings for its end-to-end metrics,
// and only the recording (and the parent bookkeeping) is switched off.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();

struct Span {
  std::uint32_t name = 0;  ///< index into SpanLog::names()
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 at the top
  std::uint32_t run = 0;     ///< operation the span belongs to
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Operation id stamped on spans opened from now on.
  void set_run(std::uint32_t run) { run_ = run; }

  /// Open a span at `start_ns`; returns its index, or -1 when disabled.
  /// `name` must be a string literal.
  std::int64_t open(const char* name, std::uint64_t start_ns);
  /// Close the innermost open span `index` at `end_ns`.
  void close(std::int64_t index, std::uint64_t end_ns);
  /// Record an already-finished span (timed on another thread) as a child
  /// of the innermost open span.
  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint32_t run);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Summed duration per span name, in seconds.
  std::map<std::string, double> total_seconds() const;
  /// Summed self time per span name: each span's duration minus the
  /// durations of its direct children, in seconds.
  std::map<std::string, double> self_seconds() const;

  /// One line per span: run, name, start, end (ns from the first span),
  /// parent index.
  void write_tsv(std::ostream& os) const;

 private:
  bool enabled_;
  std::uint32_t run_ = 0;
  std::int64_t current_ = -1;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<const char*, std::uint32_t> name_ids_;

  std::uint32_t intern(const char* name);
};

/// Times one call; records it in `log` when the log is enabled.
class Scope {
 public:
  Scope(SpanLog& log, const char* name)
      : log_(log), start_(now_ns()), index_(log.open(name, start_)) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// End the span now (idempotent); returns its duration in seconds.
  double stop();

 private:
  SpanLog& log_;
  std::uint64_t start_;
  std::int64_t index_;
  double seconds_ = -1.0;
};

}  // namespace perfbench
