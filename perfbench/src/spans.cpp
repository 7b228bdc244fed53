#include "spans.hpp"

#include <ostream>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t SpanLog::intern(const char* name) {
  const auto [it, inserted] = name_ids_.try_emplace(
      name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  return it->second;
}

std::int64_t SpanLog::open(const char* name, std::uint64_t start_ns) {
  if (!enabled_) return -1;
  spans_.push_back(Span{intern(name), start_ns, start_ns, current_, run_});
  current_ = static_cast<std::int64_t>(spans_.size()) - 1;
  return current_;
}

void SpanLog::close(std::int64_t index, std::uint64_t end_ns) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end_ns;
  current_ = span.parent;
}

void SpanLog::add(const char* name, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::uint32_t run) {
  if (!enabled_) return;
  spans_.push_back(Span{intern(name), start_ns, end_ns, current_, run});
}

std::map<std::string, double> SpanLog::total_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_)
    out[names_[s.name]] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  return out;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[names_[spans_[i].name]] += self[i] * 1e-9;
  return out;
}

void SpanLog::write_tsv(std::ostream& os) const {
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "run\tname\tstart_ns\tend_ns\tparent\n";
  for (const Span& s : spans_) {
    os << s.run << '\t' << names_[s.name] << '\t' << s.start_ns - origin
       << '\t' << s.end_ns - origin << '\t' << s.parent << '\n';
  }
}

double Scope::stop() {
  if (seconds_ < 0.0) {
    const std::uint64_t end = now_ns();
    log_.close(index_, end);
    seconds_ = static_cast<double>(end - start_) * 1e-9;
  }
  return seconds_;
}

}  // namespace perfbench
