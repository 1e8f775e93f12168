/**
 * @file
 * Static analysis of the classification rule tables
 * (rules RBE201..RBE207).
 *
 * The regex tables of Section V-A are code, and code has bugs. The
 * checks are derived from the pattern automata (never from timing):
 *
 *   RBE201  a pattern whose language is contained in an earlier
 *           pattern of the same list never changes the outcome —
 *           decided by true language inclusion over the compiled
 *           automata (text/regex_automata.hh), with the exact-
 *           literal screen kept as a fast pre-filter;
 *   RBE202  a pattern matching no erratum of the calibrated corpus
 *           contributes nothing (measured, not proved);
 *   RBE203  a pattern without literal factors defeats the
 *           Aho-Corasick prefilter — every text reaches the regex
 *           engine;
 *   RBE204  nested variable repetition, which a backtracking matcher
 *           explores in exponential time (the linear engines here
 *           are immune);
 *   RBE205  two patterns of one list accept exactly the same texts;
 *   RBE206  an accept pattern matches texts its category's relevance
 *           list rejects (order-dependent classification), with a
 *           witness text in the finding;
 *   RBE207  the automata analysis ran out of state budget on a
 *           pattern pair — the pair is *unverified*, and the cap is
 *           reported instead of silently skipped.
 */

#ifndef REMEMBERR_DIAG_RULESET_CHECKS_HH
#define REMEMBERR_DIAG_RULESET_CHECKS_HH

#include <cstddef>
#include <vector>

#include "classify/rules.hh"
#include "diagnostic.hh"
#include "model/erratum.hh"
#include "obs/metrics.hh"
#include "text/regex_automata.hh"

namespace rememberr {

/** Rule-set check configuration. */
struct RulesetCheckOptions
{
    /**
     * Corpus documents for the dead-pattern check (RBE202); when
     * null the check is skipped — deadness is a property of a rule
     * set *against a corpus*, not of the rule set alone.
     */
    const std::vector<ErrataDocument> *corpus = nullptr;
    /** Worker threads (0 = all hardware threads, 1 = serial). */
    std::size_t threads = 1;
    /** When set, receives check.* counters. */
    MetricsRegistry *metrics = nullptr;
    /**
     * Product-state budget per automata decision (RBE201/205/206).
     * Exhaustion is reported as RBE207, never silently dropped.
     */
    std::size_t automataBudget = AutomataOptions::defaultStateBudget();
};

/** Run rules RBE201..RBE207 over one rule set. */
std::vector<Diagnostic>
checkRuleSet(const RuleSet &rules,
             const RulesetCheckOptions &options = {});

/**
 * Same checks over a bare category-rule list. RuleSet is a
 * singleton, so this is the entry point for checking synthetic
 * pattern tables (and what checkRuleSet() forwards to).
 */
std::vector<Diagnostic>
checkCategoryRules(const std::vector<CategoryRule> &rules,
                   const RulesetCheckOptions &options = {});

} // namespace rememberr

#endif // REMEMBERR_DIAG_RULESET_CHECKS_HH
