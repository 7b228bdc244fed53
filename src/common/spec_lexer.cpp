#include "common/spec_lexer.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/expect.hpp"

namespace autopipe::lex {

std::vector<Statement> split_statements(const std::string& text) {
  std::vector<Statement> out;
  std::size_t line_no = 0;
  for (std::string chunk : split(text, '\n')) {
    ++line_no;
    const std::size_t hash = chunk.find('#');
    if (hash != std::string::npos) chunk.resize(hash);
    for (std::string& stmt : split(chunk, ';')) {
      if (!trim(stmt).empty()) out.push_back({line_no, std::move(stmt)});
    }
  }
  return out;
}

bool load_text(const std::string& arg, std::string& text) {
  if (arg.empty() || arg[0] != '@') {
    text = arg;
    return true;
  }
  std::ifstream in(arg.substr(1));
  if (!in.good()) return false;
  std::ostringstream contents;
  contents << in.rdbuf();
  text = contents.str();
  return true;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(s);
  while (std::getline(is, item, sep)) out.push_back(item);
  return out;
}

double parse_double(const std::string& v, const Site& site) {
  std::size_t pos = 0;
  double d = 0.0;
  try {
    d = std::stod(v, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != v.size()) {
    throw contract_error(site.prefix + "bad number '" + v + "'" +
                         (site.subject.empty() ? "" : " for " + site.subject));
  }
  return d;
}

std::uint64_t parse_u64(const std::string& v, const Site& site) {
  const double d = parse_double(v, site);
  // Range-check before the cast: converting a double at or above 2^64 (or
  // NaN) to an integer is undefined.
  if (!(d >= 0 && d < 0x1p64) || d != std::floor(d)) {
    throw contract_error(site.prefix + site.subject +
                         " wants a non-negative integer, got '" + v + "'");
  }
  return static_cast<std::uint64_t>(d);
}

}  // namespace autopipe::lex
