/**
 * @file
 * String helpers shared by the parsers, classifiers and reporters.
 */

#ifndef REMEMBERR_UTIL_STRINGS_HH
#define REMEMBERR_UTIL_STRINGS_HH

#include <string>
#include <string_view>
#include <vector>

namespace rememberr {
namespace strings {

/** Strip ASCII whitespace from both ends. */
std::string trim(std::string_view text);

/** Split on a single character; keeps empty fields. */
std::vector<std::string> split(std::string_view text, char sep);

/** Split on any whitespace run; drops empty fields. */
std::vector<std::string> splitWhitespace(std::string_view text);

/** Split into lines, treating both "\n" and "\r\n" as terminators. */
std::vector<std::string> splitLines(std::string_view text);

/** Join with a separator. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** ASCII lower-case copy. */
std::string toLower(std::string_view text);

/** ASCII upper-case copy. */
std::string toUpper(std::string_view text);

/** Replace every occurrence of from with to. */
std::string replaceAll(std::string_view text, std::string_view from,
                       std::string_view to);

bool startsWith(std::string_view text, std::string_view prefix);
bool endsWith(std::string_view text, std::string_view suffix);

/** Case-insensitive equality (ASCII), without copies. */
bool equalsIgnoreCase(std::string_view a, std::string_view b);

/** Case-insensitive substring test (ASCII). */
bool containsIgnoreCase(std::string_view haystack,
                        std::string_view needle);

/** Pad with spaces on the right up to width. */
std::string padRight(std::string_view text, std::size_t width);

/** Pad with spaces on the left up to width. */
std::string padLeft(std::string_view text, std::size_t width);

/** Repeat a string n times. */
std::string repeat(std::string_view unit, std::size_t n);

/**
 * Greedy word-wrap at the given column; words longer than the column
 * are emitted unbroken on their own line.
 */
std::vector<std::string> wrap(std::string_view text, std::size_t columns);

/** Format a double with the given number of decimals. */
std::string formatDouble(double value, int decimals);

/** Format a fraction as a percentage string, e.g. "35.9%". */
std::string formatPercent(double fraction, int decimals = 1);

/**
 * Normalize free text for comparison: lower-case, collapse whitespace
 * runs, strip punctuation except intra-word hyphens/underscores.
 */
std::string canonicalize(std::string_view text);

} // namespace strings
} // namespace rememberr

#endif // REMEMBERR_UTIL_STRINGS_HH
