/**
 * @file
 * Parsing microbenchmarks: the regex engine's rule-pattern decisions
 * (lazy DFA) and leftmost spans (Pike NFA) over corpus prose, a
 * hazard set of nested-repetition patterns that stays linear, and
 * the table-driven tokenizer against its per-character `<cctype>`
 * reference with an equivalence hash proving the fast path changes
 * no token. The regex hashes are printed for reference; the regex
 * outputs themselves are pinned by tier-1 (test_regex_pin). Results
 * land in BENCH_parse.json so successive changes can diff the
 * trajectory; `--smoke` runs on a small sample and exits 1 when the
 * tokenizer paths diverge, for the CI leg.
 */

#include "common.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "classify/engine.hh"
#include "classify/rules.hh"
#include "text/regex.hh"
#include "text/tokenize.hh"

namespace rememberr {
namespace bench {
namespace {

/** FNV-1a 64-bit, the usual trick for order-sensitive run hashes. */
struct Fnv
{
    std::uint64_t state = 1469598103934665603ULL;

    void
    add(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            state ^= (value >> (byte * 8)) & 0xff;
            state *= 1099511628211ULL;
        }
    }

    void
    addText(std::string_view text)
    {
        for (unsigned char c : text) {
            state ^= c;
            state *= 1099511628211ULL;
        }
        add(text.size());
    }
};

std::string
hex(std::uint64_t value)
{
    char buffer[19];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

double
wallMs(const std::function<void()> &fn)
{
    auto begin = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - begin)
        .count();
}

/** Corpus prose (title + body per erratum), the matcher haystacks. */
const std::vector<std::string> &
corpusTexts(std::size_t cap)
{
    static const std::vector<std::string> texts = [] {
        std::vector<std::string> built;
        for (const ErrataDocument &doc :
             pipeline().corpus.documents) {
            for (const Erratum &erratum : doc.errata)
                built.push_back(erratumFullText(erratum));
        }
        return built;
    }();
    static std::vector<std::string> capped;
    if (cap >= texts.size())
        return texts;
    if (capped.size() != cap)
        capped.assign(texts.begin(),
                      texts.begin() + static_cast<long>(cap));
    return capped;
}

/** Every classification rule pattern, the matcher needles. */
const std::vector<const Regex *> &
rulePatterns()
{
    static const std::vector<const Regex *> patterns = [] {
        std::vector<const Regex *> built;
        for (const CategoryRule &rule : RuleSet::instance().rules()) {
            for (const Regex &regex : rule.accept)
                built.push_back(&regex);
            for (const Regex &regex : rule.relevance)
                built.push_back(&regex);
        }
        return built;
    }();
    return patterns;
}

/** contains() for every (pattern, text) pair, hashing the
 * decisions; per-text scan time feeds the quantile. */
std::uint64_t
decideAll(const std::vector<std::string> &texts,
          QuantileHistogram *perText)
{
    const auto &patterns = rulePatterns();
    Fnv hash;
    for (const std::string &text : texts) {
        auto begin = std::chrono::steady_clock::now();
        for (const Regex *regex : patterns)
            hash.add(regex->contains(text) ? 1 : 0);
        auto end = std::chrono::steady_clock::now();
        if (perText)
            perText->observe(
                std::chrono::duration<double, std::micro>(end - begin)
                    .count());
    }
    return hash.state;
}

/** Leftmost span of every rule pattern in every text, hashing
 * (found, begin, end). */
std::uint64_t
spanAll(const std::vector<std::string> &texts)
{
    Fnv hash;
    for (const std::string &text : texts) {
        for (const Regex *regex : rulePatterns()) {
            auto match = regex->search(text);
            hash.add(match.has_value() ? 1 : 0);
            if (match) {
                hash.add(match->begin);
                hash.add(match->end);
            }
        }
    }
    return hash.state;
}

/** The worst-case set: nested variable repetition that a
 * backtracking matcher explores in exponential time (RBE204's shape),
 * decided here in time linear in the subject. */
constexpr const char *kHazards[] = {
    "(?:a+)+b",  "(a+)+$",      "(?:a*)*b",
    "(?:a|a)+b", "(?:a+){2,}b", "(\\w+)+b",
};

struct HazardResult
{
    std::uint64_t hash = 0;
    double ms = 0.0;
};

HazardResult
runHazards(int repeats)
{
    const std::string run(40, 'a');
    const std::string runB = run + "b";

    std::vector<Regex> regexes;
    for (const char *pattern : kHazards)
        regexes.push_back(Regex::compileOrDie(pattern));

    // One subject matches, the other is the exponential blind alley
    // for a backtracking matcher.
    auto decide = [&](Fnv &hash) {
        for (const Regex &regex : regexes) {
            hash.add(regex.contains(runB) ? 1 : 0);
            hash.add(regex.contains(run) ? 1 : 0);
        }
    };

    HazardResult result;
    {
        Fnv hash;
        decide(hash);
        result.hash = hash.state;
    }
    result.ms = wallMs([&] {
        for (int r = 0; r < repeats; ++r) {
            Fnv hash;
            decide(hash);
            benchmark::DoNotOptimize(hash.state);
        }
    });
    return result;
}

std::uint64_t
tokenizeAll(const std::vector<std::string> &texts, bool reference,
            QuantileHistogram *perText)
{
    TokenizerOptions options;
    options.dropStopWords = true;
    options.minLength = 2;
    Fnv hash;
    for (const std::string &text : texts) {
        auto begin = std::chrono::steady_clock::now();
        std::vector<Token> tokens =
            reference ? tokenizeReference(text, options)
                      : tokenize(text, options);
        auto end = std::chrono::steady_clock::now();
        for (const Token &token : tokens) {
            hash.addText(token.text);
            hash.add(token.begin);
            hash.add(token.end);
        }
        if (perText)
            perText->observe(
                std::chrono::duration<double, std::micro>(end - begin)
                    .count());
    }
    return hash.state;
}

JsonValue
quantileJson(const QuantileHistogram &histogram)
{
    JsonValue out = JsonValue::makeObject();
    out["count"] =
        JsonValue(static_cast<double>(histogram.count()));
    out["p50_us"] = JsonValue(histogram.quantile(0.5));
    out["p95_us"] = JsonValue(histogram.quantile(0.95));
    out["p99_us"] = JsonValue(histogram.quantile(0.99));
    out["max_us"] = JsonValue(histogram.max());
    return out;
}

int
runParse(bool smoke)
{
    const std::size_t textCap = smoke ? 48 : 512;
    const int hazardRepeats = smoke ? 2 : 10;
    const auto &texts = corpusTexts(textCap);
    bool identical = true;

    MetricsRegistry metrics;
    QuantileHistogram &regexUs = metrics.quantile("parse.regex_us");
    QuantileHistogram &tokenizeUs =
        metrics.quantile("parse.tokenize_us");

    JsonValue root = JsonValue::makeObject();
    root["schema"] = JsonValue("rememberr-bench-parse-v2");
    root["smoke"] = JsonValue(smoke ? 1.0 : 0.0);

    // ---- rule-pattern decisions: lazy DFA --------------------------
    {
        decideAll(texts, nullptr); // warm the DFA caches
        const std::uint64_t hash = decideAll(texts, &regexUs);
        const double ms = wallMs([&] { decideAll(texts, nullptr); });

        std::printf("rule decisions: %zu patterns x %zu texts\n",
                    rulePatterns().size(), texts.size());
        std::printf("  lazy DFA        %8.1f ms   hash %s\n", ms,
                    hex(hash).c_str());

        JsonValue decisions = JsonValue::makeObject();
        decisions["patterns"] = JsonValue(
            static_cast<double>(rulePatterns().size()));
        decisions["texts"] =
            JsonValue(static_cast<double>(texts.size()));
        decisions["dfa_ms"] = JsonValue(ms);
        decisions["decision_hash"] = JsonValue(hex(hash));
        root["decisions"] = std::move(decisions);
    }

    // ---- leftmost spans: Pike NFA ----------------------------------
    {
        const std::uint64_t hash = spanAll(texts);
        const double ms = wallMs([&] { spanAll(texts); });

        std::printf("\nleftmost spans (all rule patterns):\n");
        std::printf("  Pike NFA        %8.1f ms   hash %s\n", ms,
                    hex(hash).c_str());

        JsonValue spans = JsonValue::makeObject();
        spans["pike_ms"] = JsonValue(ms);
        spans["span_hash"] = JsonValue(hex(hash));
        root["spans"] = std::move(spans);
    }

    // ---- hazard set: nested repetition, still linear ---------------
    {
        const HazardResult hazard = runHazards(hazardRepeats);

        std::printf("\nhazard set (%zu nested-repetition patterns, "
                    "%d rounds):\n",
                    std::size(kHazards), hazardRepeats);
        std::printf("  lazy DFA        %8.3f ms   hash %s\n",
                    hazard.ms, hex(hazard.hash).c_str());

        JsonValue hazardJson = JsonValue::makeObject();
        hazardJson["patterns"] =
            JsonValue(static_cast<double>(std::size(kHazards)));
        hazardJson["rounds"] =
            JsonValue(static_cast<double>(hazardRepeats));
        hazardJson["dfa_ms"] = JsonValue(hazard.ms);
        hazardJson["decision_hash"] = JsonValue(hex(hazard.hash));
        root["hazards"] = std::move(hazardJson);
    }

    // ---- tokenizer: table-driven vs per-character cctype -----------
    {
        const std::uint64_t hashTable =
            tokenizeAll(texts, false, &tokenizeUs);
        const double tableMs =
            wallMs([&] { tokenizeAll(texts, false, nullptr); });
        const std::uint64_t hashReference =
            tokenizeAll(texts, true, nullptr);
        const double referenceMs =
            wallMs([&] { tokenizeAll(texts, true, nullptr); });
        const double speedup =
            tableMs > 0.0 ? referenceMs / tableMs : 0.0;
        identical = identical && hashTable == hashReference;

        std::printf("\ntokenizer over %zu texts:\n", texts.size());
        std::printf("  cctype branchy  %8.1f ms   hash %s\n",
                    referenceMs, hex(hashReference).c_str());
        std::printf("  table-driven    %8.1f ms   hash %s\n",
                    tableMs, hex(hashTable).c_str());
        std::printf("  speedup %.2fx, tokens %s\n", speedup,
                    hashTable == hashReference ? "IDENTICAL"
                                               : "DIVERGED");

        JsonValue tokenizer = JsonValue::makeObject();
        tokenizer["texts"] =
            JsonValue(static_cast<double>(texts.size()));
        tokenizer["branchy_ms"] = JsonValue(referenceMs);
        tokenizer["table_ms"] = JsonValue(tableMs);
        tokenizer["speedup"] = JsonValue(speedup);
        tokenizer["token_hash_branchy"] =
            JsonValue(hex(hashReference));
        tokenizer["token_hash_table"] = JsonValue(hex(hashTable));
        tokenizer["tokens_identical"] =
            JsonValue(hashTable == hashReference ? 1.0 : 0.0);
        root["tokenizer"] = std::move(tokenizer);
    }

    JsonValue quantiles = JsonValue::makeObject();
    quantiles["regex_scan"] = quantileJson(regexUs);
    quantiles["tokenize"] = quantileJson(tokenizeUs);
    root["per_text_quantiles"] = std::move(quantiles);
    std::printf("\nper-text timings: regex p50 %.1f us p99 %.1f us, "
                "tokenize p50 %.1f us p99 %.1f us\n",
                regexUs.quantile(0.5), regexUs.quantile(0.99),
                tokenizeUs.quantile(0.5), tokenizeUs.quantile(0.99));

    if (!identical) {
        std::printf("\nFAIL: table-driven tokens diverged from the "
                    "cctype reference\n");
        return 1;
    }
    if (smoke) {
        std::printf("\nsmoke OK: tokenizer hashes identical\n");
        return 0;
    }
    std::ofstream out("BENCH_parse.json");
    out << root.dumpPretty() << "\n";
    if (out)
        std::printf("\n[parse profile written to "
                    "BENCH_parse.json]\n");
    return 0;
}

} // namespace
} // namespace bench
} // namespace rememberr

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    return rememberr::bench::runParse(smoke);
}
