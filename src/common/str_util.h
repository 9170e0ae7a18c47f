#ifndef XPE_COMMON_STR_UTIL_H_
#define XPE_COMMON_STR_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace xpe {

/// True for the four XML whitespace characters (space, tab, CR, LF).
bool IsXmlWhitespaceChar(char c);

/// Calls f(token) for each run of non-whitespace in `s`, in order. This is
/// the tokenization `deref_ids` applies to its argument (paper §2.1).
template <typename F>
void ForEachWhitespaceToken(std::string_view s, F f) {
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsXmlWhitespaceChar(s[i])) ++i;
    const size_t begin = i;
    while (i < s.size() && !IsXmlWhitespaceChar(s[i])) ++i;
    if (i > begin) f(s.substr(begin, i - begin));
  }
}

/// The tokens ForEachWhitespaceToken visits, as a vector.
std::vector<std::string_view> SplitOnWhitespace(std::string_view s);

/// XPath normalize-space(): strips leading/trailing whitespace and collapses
/// internal runs to a single space.
std::string NormalizeSpace(std::string_view s);

/// XPath translate(s, from, to): replaces each char of `s` occurring in
/// `from` by the char at the same index of `to`, deleting it when `from` is
/// longer than `to`. First occurrence in `from` wins for duplicates.
std::string Translate(std::string_view s, std::string_view from,
                      std::string_view to);

/// True when `s` starts with `prefix` (XPath starts-with()).
bool StartsWith(std::string_view s, std::string_view prefix);

/// True when `needle` occurs in `s` (XPath contains()).
bool Contains(std::string_view s, std::string_view needle);

/// XPath substring-before(): text before the first occurrence of `sep`,
/// empty if absent.
std::string_view SubstringBefore(std::string_view s, std::string_view sep);

/// XPath substring-after(): text after the first occurrence of `sep`,
/// empty if absent.
std::string_view SubstringAfter(std::string_view s, std::string_view sep);

/// XPath substring(s, pos, len?) with its 1-based, rounding, NaN-aware
/// index semantics. `len` of NaN/absent selects to the end of the string.
std::string XPathSubstring(std::string_view s, double pos, double len,
                           bool has_len);

}  // namespace xpe

#endif  // XPE_COMMON_STR_UTIL_H_
