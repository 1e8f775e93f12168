#include "ruleset_checks.hh"

#include <cctype>
#include <optional>

#include "classify/engine.hh"
#include "taxonomy/taxonomy.hh"
#include "util/parallel.hh"

namespace rememberr {

namespace {

using Diagnostics = std::vector<Diagnostic>;

/** One pattern slot: category + list + index. */
struct PatternRef
{
    CategoryId category = 0;
    const char *list = "accept";
    std::size_t index = 0;
    const Regex *regex = nullptr;
};

SourceLocation
patternLocation(const PatternRef &ref)
{
    SourceLocation location;
    location.path =
        "ruleset:" +
        Taxonomy::instance().categoryById(ref.category).code;
    location.field = std::string(ref.list) + "[" +
                     std::to_string(ref.index) + "]";
    return location;
}

Diagnostic
patternDiagnostic(std::string_view rule_id, const PatternRef &ref,
                  std::string message)
{
    Diagnostic diagnostic;
    diagnostic.ruleId = std::string(rule_id);
    diagnostic.severity = findRule(rule_id)->defaultSeverity;
    diagnostic.message = std::move(message);
    diagnostic.location = patternLocation(ref);
    diagnostic.ids = {
        Taxonomy::instance().categoryById(ref.category).code,
        diagnostic.location.field};
    return diagnostic;
}

/**
 * Shadow analysis is only sound for patterns whose match condition
 * is pure substring containment. Anchors and boundary assertions
 * constrain *where* the language strings may occur, so any pattern
 * mentioning them is excluded (conservatively — '^' inside a
 * character class also disqualifies).
 */
bool
containmentSemantics(const Regex &regex)
{
    const std::string &p = regex.pattern();
    return p.find('^') == std::string::npos &&
           p.find('$') == std::string::npos &&
           p.find("\\b") == std::string::npos &&
           p.find("\\B") == std::string::npos;
}

/**
 * Every string of `language` contains some string of `earlier` as a
 * substring — then any text matching the later pattern also matches
 * the earlier one, and the later pattern is unreachable in an
 * any-of list.
 */
bool
languageSubsumed(const std::vector<std::string> &language,
                 const std::vector<std::string> &earlier)
{
    for (const std::string &word : language) {
        bool covered = false;
        for (const std::string &needle : earlier) {
            if (!needle.empty() &&
                word.find(needle) != std::string::npos) {
                covered = true;
                break;
            }
        }
        if (!covered)
            return false;
    }
    return !language.empty();
}

/** "; e.g. \"...\" ..." clause shared by RBE201/RBE205 messages. */
std::string
exampleClause(const std::optional<std::string> &word)
{
    if (!word)
        return "";
    return "; e.g. \"" + escapeWitness(*word) +
           "\" already fires the earlier pattern";
}

/** RBE201/RBE203/RBE204/RBE205/RBE207 over one pattern list. */
void
checkPatternList(CategoryId category, const char *list,
                 const std::vector<Regex> &patterns,
                 const AutomataOptions &automata, Diagnostics &out)
{
    // Exact literal languages, computed once per pattern: the fast
    // screen. A pair of finite literal languages is decided by
    // substring cover alone; everything else goes to the automata.
    std::vector<std::optional<std::vector<std::string>>> languages;
    languages.reserve(patterns.size());
    for (const Regex &regex : patterns) {
        if (containmentSemantics(regex))
            languages.push_back(regex.exactLiterals());
        else
            languages.push_back(std::nullopt);
    }

    for (std::size_t i = 0; i < patterns.size(); ++i) {
        PatternRef ref{category, list, i, &patterns[i]};

        // RBE201/RBE205: language containment against every earlier
        // pattern of the same list. One finding per pattern.
        for (std::size_t j = 0; j < i; ++j) {
            bool shadowed = false;
            bool bothWays = false;
            if (languages[i] && languages[j]) {
                shadowed = languageSubsumed(*languages[i],
                                            *languages[j]);
                bothWays = shadowed &&
                           languageSubsumed(*languages[j],
                                            *languages[i]);
            } else {
                AutomataResult incl = RegexAutomata::includes(
                    patterns[i], patterns[j], automata);
                if (incl.budgetExhausted()) {
                    out.push_back(patternDiagnostic(
                        "RBE207", ref,
                        "containment of /" + patterns[i].pattern() +
                            "/ in earlier pattern /" +
                            patterns[j].pattern() +
                            "/ is undecided within the " +
                            std::to_string(automata.stateBudget) +
                            "-state analysis budget"));
                    continue;
                }
                shadowed = incl.holds();
                if (shadowed) {
                    // Reverse direction only distinguishes RBE205
                    // from RBE201; on budget exhaustion fall back
                    // to the weaker (still true) RBE201 claim.
                    bothWays = RegexAutomata::includes(
                                   patterns[j], patterns[i],
                                   automata)
                                   .holds();
                }
            }
            if (!shadowed)
                continue;

            std::optional<std::string> word =
                RegexAutomata::shortestAcceptedWord(patterns[i],
                                                    automata);
            Diagnostic diagnostic;
            if (bothWays) {
                diagnostic = patternDiagnostic(
                    "RBE205", ref,
                    "pattern /" + patterns[i].pattern() +
                        "/ accepts exactly the same texts as "
                        "earlier pattern /" +
                        patterns[j].pattern() +
                        "/; one of them is redundant" +
                        exampleClause(word));
            } else {
                diagnostic = patternDiagnostic(
                    "RBE201", ref,
                    "pattern /" + patterns[i].pattern() +
                        "/ is shadowed by earlier pattern /" +
                        patterns[j].pattern() +
                        "/ and can never change the outcome" +
                        exampleClause(word));
            }
            diagnostic.witness = word;
            out.push_back(std::move(diagnostic));
            break;
        }

        // RBE203: no literal factor means the Aho-Corasick
        // prefilter can never screen this pattern out.
        if (patterns[i].literalFactors().empty()) {
            out.push_back(patternDiagnostic(
                "RBE203", ref,
                "pattern /" + patterns[i].pattern() +
                    "/ yields no literal factors; every text falls "
                    "through the prefilter to the regex engine"));
        }

        // RBE204: nested variable repetition. The linear engines
        // are immune; the finding keeps the rule tables fit for a
        // backtracking matcher.
        if (auto hazard = patterns[i].backtrackingHazard()) {
            out.push_back(patternDiagnostic(
                "RBE204", ref,
                "pattern /" + patterns[i].pattern() + "/: " +
                    *hazard));
        }
    }
}

/** ASCII-lower-case a text once for factor screening. */
std::string
foldedCopy(const std::string &text)
{
    std::string folded = text;
    for (char &c : folded)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return folded;
}

/** Whether the pattern matches at least one of the texts. */
bool
matchesAnywhere(const Regex &regex,
                const std::vector<std::string> &texts,
                const std::vector<std::string> &folded)
{
    std::vector<std::string> factors = regex.literalFactors();
    for (std::size_t t = 0; t < texts.size(); ++t) {
        if (!factors.empty()) {
            bool hit = false;
            for (const std::string &factor : factors) {
                if (folded[t].find(factor) != std::string::npos) {
                    hit = true;
                    break;
                }
            }
            if (!hit)
                continue;
        }
        if (regex.contains(texts[t]))
            return true;
    }
    return false;
}

} // namespace

std::vector<Diagnostic>
checkRuleSet(const RuleSet &rules, const RulesetCheckOptions &options)
{
    return checkCategoryRules(rules.rules(), options);
}

std::vector<Diagnostic>
checkCategoryRules(const std::vector<CategoryRule> &rules,
                   const RulesetCheckOptions &options)
{
    Diagnostics out;
    std::size_t patternCount = 0;
    AutomataOptions automata;
    automata.stateBudget = options.automataBudget;

    // Structural checks: automata + AST work, serial, category order.
    for (const CategoryRule &rule : rules) {
        checkPatternList(rule.id, "accept", rule.accept, automata,
                         out);
        checkPatternList(rule.id, "relevance", rule.relevance,
                         automata, out);
        patternCount += rule.accept.size() + rule.relevance.size();
    }

    // RBE206: an accept pattern whose language escapes the union of
    // the category's relevance patterns. The engine checks accept
    // against body text (a substring of the full text the relevance
    // screen sees), so a text in L(accept)\∪L(relevance) really can
    // classify AutoYes while the relevance screen calls it
    // irrelevant — the classification depends on list order.
    for (const CategoryRule &rule : rules) {
        if (rule.relevance.empty())
            continue;
        std::vector<const Regex *> relevance;
        for (const Regex &regex : rule.relevance)
            relevance.push_back(&regex);
        for (std::size_t i = 0; i < rule.accept.size(); ++i) {
            PatternRef ref{rule.id, "accept", i, &rule.accept[i]};
            AutomataResult cover = RegexAutomata::includedInUnion(
                rule.accept[i], relevance, automata);
            if (cover.budgetExhausted()) {
                out.push_back(patternDiagnostic(
                    "RBE207", ref,
                    "coverage of accept pattern /" +
                        rule.accept[i].pattern() +
                        "/ by the relevance list is undecided "
                        "within the " +
                        std::to_string(automata.stateBudget) +
                        "-state analysis budget"));
                continue;
            }
            if (!cover.fails())
                continue;
            Diagnostic diagnostic = patternDiagnostic(
                "RBE206", ref,
                "accept pattern /" + rule.accept[i].pattern() +
                    "/ matches text the relevance list rejects "
                    "(\"" +
                    escapeWitness(cover.witness) +
                    "\"), so classification depends on list "
                    "order");
            diagnostic.witness = cover.witness;
            out.push_back(std::move(diagnostic));
        }
    }

    // RBE202: patterns that never fire on the calibrated corpus.
    // Accept patterns see body text only, relevance patterns the
    // full text — mirroring the engine's evaluation.
    if (options.corpus) {
        std::vector<std::string> bodies;
        std::vector<std::string> fulls;
        for (const ErrataDocument &document : *options.corpus) {
            for (const Erratum &erratum : document.errata) {
                bodies.push_back(erratumBodyText(erratum));
                fulls.push_back(erratumFullText(erratum));
            }
        }
        std::vector<std::string> foldedBodies;
        std::vector<std::string> foldedFulls;
        for (const std::string &body : bodies)
            foldedBodies.push_back(foldedCopy(body));
        for (const std::string &full : fulls)
            foldedFulls.push_back(foldedCopy(full));

        std::vector<PatternRef> refs;
        for (const CategoryRule &rule : rules) {
            for (std::size_t i = 0; i < rule.accept.size(); ++i)
                refs.push_back(
                    {rule.id, "accept", i, &rule.accept[i]});
            for (std::size_t i = 0; i < rule.relevance.size(); ++i)
                refs.push_back(
                    {rule.id, "relevance", i, &rule.relevance[i]});
        }

        Diagnostics dead = parallelMapReduce<Diagnostics>(
            refs.size(), options.threads,
            [&](std::size_t begin, std::size_t end) {
                Diagnostics part;
                for (std::size_t r = begin; r < end; ++r) {
                    const PatternRef &ref = refs[r];
                    bool isAccept =
                        std::string_view(ref.list) == "accept";
                    bool alive = matchesAnywhere(
                        *ref.regex, isAccept ? bodies : fulls,
                        isAccept ? foldedBodies : foldedFulls);
                    if (!alive) {
                        part.push_back(patternDiagnostic(
                            "RBE202", ref,
                            "pattern /" + ref.regex->pattern() +
                                "/ matches no erratum of the "
                                "calibrated corpus"));
                    }
                }
                return part;
            },
            [](Diagnostics &acc, Diagnostics &&part) {
                std::move(part.begin(), part.end(),
                          std::back_inserter(acc));
            });
        std::move(dead.begin(), dead.end(),
                  std::back_inserter(out));
    }

    if (options.metrics) {
        options.metrics->counter("check.ruleset.patterns")
            .add(patternCount);
        options.metrics->counter("check.ruleset.diagnostics")
            .add(out.size());
    }
    return out;
}

} // namespace rememberr
