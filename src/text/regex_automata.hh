/**
 * @file
 * Bounded automata-theoretic analysis over compiled regex programs.
 *
 * The rule-table static analysis (RBE201/205/206/207) needs *language*
 * facts, not match results: is every text matched by one pattern also
 * matched by another, are two patterns interchangeable, can any text
 * fire two patterns at once. All three questions are decided here by
 * an on-the-fly product/subset construction over the shared Thompson
 * bytecode (regex_program.hh) — the same programs the matching engines
 * execute, so the analyzed language and the matched language cannot
 * drift apart.
 *
 * Semantics: every procedure works on the **contains language** of a
 * pattern — the set of subjects `Regex::contains()` accepts, i.e. the
 * unanchored "a match occurs somewhere" reading, which is how the
 * classification engine consumes its rule patterns. Anchors (^ $) and
 * boundary assertions (\b \B) are interpreted exactly as the engines
 * do (Bol after '\n', Eol before '\n', ASCII word characters), so
 * previously unanalyzable patterns participate fully.
 *
 * Construction: a breadth-first search over product states
 *
 *   (kernels of side A, acceptedA, kernels of side B, acceptedB,
 *    context class of the previous byte)
 *
 * where each side is a union of one or more patterns, a kernel is the
 * sorted set of pending consuming pcs of one pattern (fresh match
 * attempts injected at every gap, as in the unanchored lazy DFA), and
 * "accepted" is sticky — once a side has matched inside some prefix,
 * every extension of that prefix is in its contains language, so the
 * side's kernels are dropped and the flag absorbs. Zero-width
 * assertions are decided from the (previous class, next byte)
 * context; the end-of-input case is evaluated with next byte = none.
 *
 * Transitions are explored per joint byte-equivalence class (two
 * bytes every pattern treats alike drive one transition), visiting
 * classes in a fixed printable-preference order, so the BFS finds a
 * *shortest* witness and, among equal-length witnesses, a
 * deterministic, human-readable one ("ab", not "\x01b").
 *
 * Everything is bounded: the search interns at most
 * `AutomataOptions::stateBudget` product states and reports
 * `Status::Budget` instead of silently truncating — the caller (RBE207)
 * is expected to surface that. See DESIGN.md §17.
 */

#ifndef REMEMBERR_TEXT_REGEX_AUTOMATA_HH
#define REMEMBERR_TEXT_REGEX_AUTOMATA_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "text/regex.hh"

namespace rememberr {

/** Analysis limits. */
struct AutomataOptions
{
    /**
     * Maximum product states interned per decision. The default is
     * far above what any rule-table pair needs (tens of states)
     * while bounding memory and time on adversarial inputs.
     */
    std::size_t stateBudget = 4096;

    static std::size_t defaultStateBudget() { return 4096; }
};

/** Outcome of one decision procedure. */
struct AutomataResult
{
    enum class Status : std::uint8_t
    {
        Holds,  ///< the property was verified over all strings
        Fails,  ///< refuted; `witness` is a shortest counterexample
        Budget, ///< state budget exhausted before a decision
    };

    Status status = Status::Holds;
    /**
     * Set when status == Fails: a shortest string refuting the
     * property (in L(A)\L(B) for inclusion, in the symmetric
     * difference for equivalence, in L(A)∩L(B) for intersection
     * emptiness). May contain arbitrary bytes; escape for display.
     */
    std::string witness;
    /** Product states interned (deterministic for fixed inputs). */
    std::size_t statesExplored = 0;

    bool holds() const { return status == Status::Holds; }
    bool fails() const { return status == Status::Fails; }
    bool budgetExhausted() const { return status == Status::Budget; }
};

/**
 * Static decision procedures over compiled patterns. Reads each
 * compiled program through `Regex::program()`; stateless itself.
 */
class RegexAutomata
{
  public:
    /** L(inner) ⊆ L(outer)? Witness in L(inner)\L(outer). */
    static AutomataResult includes(const Regex &inner,
                                   const Regex &outer,
                                   const AutomataOptions &options = {});

    /**
     * L(inner) ⊆ ∪ L(outer[i])? The union side is what RBE206 needs:
     * one accept pattern against a whole relevance list. An empty
     * union is the empty language. Witness in L(inner)\∪L(outer).
     */
    static AutomataResult
    includedInUnion(const Regex &inner,
                    const std::vector<const Regex *> &outer,
                    const AutomataOptions &options = {});

    /** L(a) = L(b)? Witness in the symmetric difference. */
    static AutomataResult equivalent(const Regex &a, const Regex &b,
                                     const AutomataOptions &options = {});

    /** L(a) ∩ L(b) = ∅? Witness in the intersection. */
    static AutomataResult
    intersectionEmpty(const Regex &a, const Regex &b,
                      const AutomataOptions &options = {});

    /**
     * A shortest string of the pattern's contains language (the
     * deterministic exemplar used in shadowing messages). nullopt
     * when the language is empty or the budget ran out first.
     */
    static std::optional<std::string>
    shortestAcceptedWord(const Regex &regex,
                         const AutomataOptions &options = {});
};

/**
 * Render a witness for humans: printable ASCII verbatim, everything
 * else as \xHH (and '"'/'\\' escaped), so witnesses embed safely in
 * diagnostic messages.
 */
std::string escapeWitness(const std::string &witness);

} // namespace rememberr

#endif // REMEMBERR_TEXT_REGEX_AUTOMATA_HH
