#include "src/common/str_util.h"

#include <cmath>

#include "src/common/numeric.h"

namespace xpe {

bool IsXmlWhitespaceChar(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

std::vector<std::string_view> SplitOnWhitespace(std::string_view s) {
  std::vector<std::string_view> out;
  ForEachWhitespaceToken(s, [&out](std::string_view t) { out.push_back(t); });
  return out;
}

std::string NormalizeSpace(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool pending_space = false;
  bool emitted = false;
  for (char c : s) {
    if (IsXmlWhitespaceChar(c)) {
      pending_space = emitted;
    } else {
      if (pending_space) out.push_back(' ');
      pending_space = false;
      out.push_back(c);
      emitted = true;
    }
  }
  return out;
}

std::string Translate(std::string_view s, std::string_view from,
                      std::string_view to) {
  // Map each source char to its replacement (or deletion) once, so the
  // translation itself is O(|s| + |from|).
  int map[256];
  for (int i = 0; i < 256; ++i) map[i] = -2;  // -2: identity
  for (size_t i = 0; i < from.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(from[i]);
    if (map[c] != -2) continue;  // first occurrence wins
    map[c] = i < to.size() ? static_cast<int>(static_cast<unsigned char>(to[i]))
                           : -1;  // -1: delete
  }
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    int m = map[static_cast<unsigned char>(c)];
    if (m == -2) {
      out.push_back(c);
    } else if (m >= 0) {
      out.push_back(static_cast<char>(m));
    }
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool Contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

std::string_view SubstringBefore(std::string_view s, std::string_view sep) {
  size_t pos = s.find(sep);
  if (pos == std::string_view::npos || sep.empty()) return {};
  return s.substr(0, pos);
}

std::string_view SubstringAfter(std::string_view s, std::string_view sep) {
  size_t pos = s.find(sep);
  if (pos == std::string_view::npos) return {};
  return s.substr(pos + sep.size());
}

std::string XPathSubstring(std::string_view s, double pos, double len,
                           bool has_len) {
  // Spec (XPath 1.0 §4.2): character p (1-based) is selected iff
  //   p >= round(pos)  and, with a length,  p < round(pos) + round(len).
  // IEEE arithmetic gives the NaN/Infinity cases for free.
  const double rp = XPathRound(pos);
  const double limit = has_len ? rp + XPathRound(len)
                               : std::numeric_limits<double>::infinity();
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    const double p = static_cast<double>(i + 1);
    if (p >= rp && p < limit) out.push_back(s[i]);
  }
  return out;
}

}  // namespace xpe
