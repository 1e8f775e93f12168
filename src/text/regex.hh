/**
 * @file
 * A self-contained regular-expression engine.
 *
 * The software-assisted classification of Section V-A relies on
 * regular expressions in two places: conservative category
 * prefiltering and the syntax-highlighting engine that marks the
 * erratum text spans relevant to a category. Match *spans* (not just
 * booleans) are therefore part of the API.
 *
 * Supported syntax:
 *   - literals, '.', escapes \d \D \w \W \s \S plus \n \t \r \\ etc.
 *   - character classes [abc], [a-z0-9], negated [^...]
 *   - groups (...) and (?:...), both non-capturing
 *   - alternation a|b
 *   - quantifiers * + ? {m} {m,} {m,n}, each with a lazy '?' variant
 *   - anchors ^ $ and word boundaries \b \B
 *
 * Patterns compile to a small Thompson-style bytecode program (see
 * regex_program.hh) that the linear tier (regex_linear.{hh,cc})
 * executes: an incrementally built lazy DFA answers match decisions
 * and a priority-ordered Pike NFA simulation produces leftmost match
 * spans, both in guaranteed O(subject) time, so exponential
 * backtracking is structurally impossible.
 */

#ifndef REMEMBERR_TEXT_REGEX_HH
#define REMEMBERR_TEXT_REGEX_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "text/regex_program.hh"
#include "util/expected.hh"

namespace rememberr {

/** Result of a successful regex match. */
struct RegexMatch
{
    /** Byte offset of the match start in the subject. */
    std::size_t begin = 0;
    /** Byte offset one past the match end. */
    std::size_t end = 0;

    std::size_t length() const { return end - begin; }

    /** Extract the matched text from the subject. */
    std::string
    text(std::string_view subject) const
    {
        return std::string(subject.substr(begin, end - begin));
    }
};

/** Compilation and execution options. */
struct RegexOptions
{
    /** ASCII case-insensitive matching. */
    bool ignoreCase = false;
};

class RegexLinearCache;

/** A compiled regular expression. Immutable and cheap to copy
 * (copies share the compiled program's lazy-DFA cache). */
class Regex
{
  public:
    /** Compile a pattern; reports syntax errors with offsets. */
    static Expected<Regex> compile(std::string_view pattern,
                                   RegexOptions options = {});

    /**
     * Compile a pattern that must be valid (library-internal rule
     * tables). Panics on syntax errors.
     */
    static Regex compileOrDie(std::string_view pattern,
                              RegexOptions options = {});

    /** Anchored match over the whole subject. */
    bool fullMatch(std::string_view subject) const;

    /**
     * Find the leftmost match at or after position from, with
     * leftmost-first (backtracking-order) preference among matches
     * that start there. Returns nullopt when there is no match.
     */
    std::optional<RegexMatch> search(std::string_view subject,
                                     std::size_t from = 0) const;

    /** All non-overlapping matches, left to right. */
    std::vector<RegexMatch> findAll(std::string_view subject) const;

    /** True when the pattern occurs anywhere in the subject. */
    bool contains(std::string_view subject) const;

    /** The original pattern text. */
    const std::string &pattern() const { return pattern_; }

    /** Whether the pattern matches ASCII case-insensitively. */
    bool ignoreCase() const { return options_.ignoreCase; }

    /**
     * Read-only view of the compiled program, for every interpreter
     * of it: the linear engines (regex_linear.hh), the automata
     * analysis (regex_automata.hh) and the test-only backtracking
     * oracle.
     */
    redetail::ProgramView
    program() const
    {
        return {&program_, &classes_, options_.ignoreCase};
    }

    /**
     * Required literal factors: a set of ASCII-lower-cased strings
     * such that every subject containing a match also contains at
     * least one factor as a substring of its lower-cased form. The
     * set is conservative in the only safe direction — a factor hit
     * does not imply a match, but a miss of every factor proves there
     * is none — which is exactly what a multi-pattern literal
     * prefilter needs. An empty vector means no factor could be
     * extracted and callers must always run the full matcher.
     */
    std::vector<std::string> literalFactors() const;

    /**
     * The pattern's complete language, when it is finite and small:
     * every string (ASCII-lower-cased) the pattern can match, and
     * nothing else. nullopt when the language is infinite, too large
     * to enumerate, or the pattern failed to re-parse. Rule-set
     * analysis uses it to decide language containment (shadowing)
     * without running a matcher.
     */
    std::optional<std::vector<std::string>> exactLiterals() const;

    /**
     * Scan the pattern AST for exponential-backtracking hazards:
     * a quantifier that can iterate more than once whose body
     * contains another variable-count repetition of non-empty text
     * (the '(x+)+' shape). Returns a description of the first hazard
     * found, nullopt when the pattern is safe. Purely structural —
     * no timing, no matcher runs. The linear tier is immune to the
     * shape; it only costs time on a backtracking matcher.
     */
    std::optional<std::string> backtrackingHazard() const;

  private:
    friend class RegexCompiler;
    friend class RegexLinear;

    using Op = redetail::Op;
    using Inst = redetail::Inst;
    using CharClass = redetail::CharClass;

    std::string pattern_;
    RegexOptions options_;
    std::vector<Inst> program_;
    std::vector<CharClass> classes_;
    /** Lazily filled DFA state cache, shared across copies. */
    std::shared_ptr<RegexLinearCache> linear_;
};

/** Escape all regex metacharacters so text matches literally. */
std::string regexEscape(std::string_view literal);

} // namespace rememberr

#endif // REMEMBERR_TEXT_REGEX_HH
