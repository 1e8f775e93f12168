/**
 * @file
 * The linear-time regex execution tier, which answers every `Regex`
 * query: a lazily built DFA for match decisions and a Pike NFA
 * simulation for leftmost match spans.
 *
 * Both engines interpret the same Thompson bytecode
 * (regex_program.hh), so they recognize exactly the same language.
 * The DFA answers `contains`/`fullMatch` booleans
 * in O(subject) with O(1) amortized work per byte once its states are
 * cached; the Pike simulation answers leftmost-first span queries in
 * O(subject × program) worst case with no backtracking. Neither can
 * take exponential time on any input — the '(x+)+' hazard class
 * RBE204 detects is structurally impossible here.
 *
 * DFA states are discovered on demand and cached in the
 * `RegexLinearCache` every copy of a compiled `Regex` shares. The
 * cache is bounded: when the state count hits the cap the cache is
 * flushed and the scan restarts, and a scan that keeps overflowing
 * falls back to the uncached NFA simulation — still linear, just
 * without memoization. See DESIGN.md §15.
 */

#ifndef REMEMBERR_TEXT_REGEX_LINEAR_HH
#define REMEMBERR_TEXT_REGEX_LINEAR_HH

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "text/regex.hh"

namespace rememberr {

/**
 * Per-pattern lazy-DFA state cache, shared (via shared_ptr) by every
 * copy of one compiled Regex.
 *
 * Concurrency: byte-equivalence classes are built once under
 * `once`; the two DFAs are guarded by `mutex`. Readers scan whole
 * subjects under a shared lock and treat any unexplored transition
 * as a miss; the miss path re-scans under the unique lock, building
 * states as it goes. States are only ever appended or flushed
 * wholesale, both under the unique lock.
 */
class RegexLinearCache
{
  public:
    /** One lazily discovered DFA (anchored or unanchored). */
    struct Dfa
    {
        struct State
        {
            /** Sorted NFA pcs pending (pre-closure) at a gap. */
            std::vector<std::int32_t> kernel;
            /** Context class of the preceding byte (kPrev*). */
            std::uint8_t prevClass = 0;
            /** Kernel empty: an anchored scan can stop early. */
            bool dead = false;
            /** -1 unknown, else 0/1: Accept reachable at EOT. */
            std::int8_t acceptAtEof = -1;
            /**
             * Per byte-equivalence-class transition: -1 unexplored,
             * else (nextStateId << 1) | acceptedAtThisGap.
             */
            std::vector<std::int32_t> trans;
        };

        std::vector<State> states;
        /** (kernel, prevClass) -> state id. */
        std::map<std::pair<std::vector<std::int32_t>, std::uint8_t>,
                 std::int32_t>
            index;
    };

    std::once_flag once;
    /** Byte -> equivalence class under the pattern's predicates. */
    std::array<std::uint16_t, 256> byteClass{};
    std::uint16_t numClasses = 0;

    std::shared_mutex mutex;
    /** For fullMatch: starts only at the scan origin. */
    Dfa anchored;
    /** For contains: a fresh match attempt injected at every gap. */
    Dfa unanchored;
};

/**
 * Static entry points of the linear tier. The engines read the
 * compiled program through `Regex::program()`; the class is a friend
 * of Regex only to reach its lazily filled DFA cache. Stateless
 * itself.
 */
class RegexLinear
{
  public:
    /** Unanchored decision: any match starting at or after from. */
    static bool contains(const Regex &regex, std::string_view subject,
                         std::size_t from = 0);

    /** Anchored whole-subject decision. */
    static bool fullMatch(const Regex &regex,
                          std::string_view subject);

    /**
     * Leftmost match span with leftmost-first semantics: among the
     * matches at the leftmost start, the one a backtracking matcher
     * would commit to first.
     */
    static std::optional<RegexMatch>
    searchSpan(const Regex &regex, std::string_view subject,
               std::size_t from = 0);

    /**
     * Test hook: shrink the per-DFA state cap to force
     * flush-on-overflow and the NFA fallback. 0 restores the
     * default. Affects newly scanned subjects only; existing cached
     * states stay valid.
     */
    static void setMaxDfaStatesForTest(std::size_t cap);
};

} // namespace rememberr

#endif // REMEMBERR_TEXT_REGEX_LINEAR_HH
