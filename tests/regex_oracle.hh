/**
 * @file
 * Test-only backtracking oracle for the regex engine.
 *
 * A backtracking VM over the compiled program (`Regex::program()`)
 * with an explicit stack of (pc, position) frames: Split tries arg1
 * before arg2 and the first path to reach Accept wins, which is the
 * leftmost-first semantics the Pike NFA reproduces without
 * backtracking. The differential tests compare the library's linear
 * tier against it. It tests Char and Any bytes itself instead of
 * through `redetail::instConsumes`, so those tests cover that helper
 * as well; Class bytes go through `CharClass::matches`, which every
 * interpreter shares. It can take exponential time on nested
 * repetition, so every call carries a step budget and reports when
 * it ran out instead of answering.
 */

#ifndef REMEMBERR_TESTS_REGEX_ORACLE_HH
#define REMEMBERR_TESTS_REGEX_ORACLE_HH

#include <cstddef>
#include <optional>
#include <string_view>

#include "text/regex.hh"

namespace rememberr {

/** Default VM steps per match attempt. */
constexpr std::size_t kOracleStepLimit = std::size_t{1} << 20;

/**
 * Anchored whole-subject decision. Sets *exhausted (when non-null)
 * and returns false when the step budget runs out.
 */
bool fullMatchBacktracking(const Regex &regex, std::string_view subject,
                           bool *exhausted = nullptr,
                           std::size_t step_limit = kOracleStepLimit);

/**
 * Leftmost match at or after from. Returns nullopt when there is no
 * match, or when one start position's attempt runs out of steps, in
 * which case *exhausted is set when non-null.
 */
std::optional<RegexMatch>
searchBacktracking(const Regex &regex, std::string_view subject,
                   std::size_t from = 0, bool *exhausted = nullptr,
                   std::size_t step_limit = kOracleStepLimit);

/** Whether searchBacktracking finds a match. */
bool containsBacktracking(const Regex &regex, std::string_view subject,
                          bool *exhausted = nullptr);

} // namespace rememberr

#endif // REMEMBERR_TESTS_REGEX_ORACLE_HH
