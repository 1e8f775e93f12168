/**
 * @file
 * Multi-pattern literal scanning (Aho–Corasick) for regex
 * prefiltering.
 *
 * The classification engine owns dozens of rule regexes, almost all
 * of which are gated on literal phrases ("page boundary", "machine
 * check", ...). Running the regex engine for every (rule, erratum)
 * pair is the measured hot path; production matchers instead screen
 * with one multi-pattern automaton over the required literal factors
 * of every pattern (see Regex::literalFactors) and only run the full
 * engine on the rules whose factors actually occur. The scanner is
 * built once per rule set and is immutable afterwards, so concurrent
 * scans from worker threads are safe.
 */

#ifndef REMEMBERR_TEXT_LITERAL_SCAN_HH
#define REMEMBERR_TEXT_LITERAL_SCAN_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rememberr {

/** ASCII-lower-case a haystack once for repeated scanning. */
std::string foldForScan(std::string_view text);

/**
 * An Aho–Corasick automaton mapping needle hits to dense owner ids.
 *
 * Each owner registers a set of alternative needles; after build(),
 * scan() walks a haystack once and reports, per owner, whether at
 * least one of its needles occurred. Failure links are resolved into
 * full byte transitions at build time, so the scan loop is a single
 * table lookup per input byte with no fail-chasing.
 */
class LiteralScanner
{
  public:
    /**
     * Register needles for an owner id. Needles must be non-empty
     * and already case-folded (see foldForScan); owners may be
     * registered in any order and ids need not be contiguous, but
     * scan() sizes its result to the largest id + 1.
     */
    void addOwner(std::uint32_t owner,
                  const std::vector<std::string> &needles);

    /** Resolve failure links; no addOwner() calls afterwards. */
    void build();

    bool built() const { return built_; }
    /** Largest registered owner id + 1 (0 when none). */
    std::size_t ownerCount() const { return ownerLimit_; }
    /** Automaton states (1 when empty: the root). */
    std::size_t nodeCount() const { return nodes_.size(); }
    /** Registered needles across all owners. */
    std::size_t needleCount() const { return needleCount_; }

    /**
     * One linear pass over a case-folded haystack. hits is resized
     * to ownerCount() and hits[o] is set to 1 for every owner with
     * at least one needle present (other entries are set to 0).
     */
    void scan(std::string_view foldedHaystack,
              std::vector<std::uint8_t> &hits) const;

  private:
    struct Node
    {
        /** Byte transitions; trie edges before build(), full DFA
         * transitions (failure links folded in) afterwards. */
        std::array<std::int32_t, 256> next;
        /** Owners completed at this state, including via suffix
         * links (merged at build time). */
        std::vector<std::uint32_t> owners;

        Node() { next.fill(-1); }
    };

    std::vector<Node> nodes_{Node()};
    std::size_t ownerLimit_ = 0;
    std::size_t needleCount_ = 0;
    bool built_ = false;
};

} // namespace rememberr

#endif // REMEMBERR_TEXT_LITERAL_SCAN_HH
