#include "diagnostic.hh"

#include "util/logging.hh"

namespace rememberr {

std::string_view
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note:
        return "note";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    REMEMBERR_PANIC("severityName: bad severity");
}

std::optional<Severity>
parseSeverity(std::string_view name)
{
    if (name == "note")
        return Severity::Note;
    if (name == "warning")
        return Severity::Warning;
    if (name == "error")
        return Severity::Error;
    return std::nullopt;
}

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        {"RBE001", "duplicate-revision-claim",
         "two revisions claim to have added the same erratum",
         Severity::Warning},
        {"RBE002", "missing-from-notes",
         "an erratum never appears in the revision notes",
         Severity::Warning},
        {"RBE003", "reused-name",
         "one document-local name refers to several errata",
         Severity::Error},
        {"RBE004", "missing-field",
         "a mandatory erratum field is empty", Severity::Warning},
        {"RBE005", "duplicate-field",
         "a field duplicates another field verbatim",
         Severity::Warning},
        {"RBE006", "wrong-msr-number",
         "an MSR number contradicts the reference manual",
         Severity::Error},
        {"RBE007", "intra-doc-duplicate",
         "the same erratum appears twice in one document",
         Severity::Warning},
        {"RBE101", "status-regression",
         "a duplicate's fix status regresses from Fixed to NoFix in "
         "a newer document",
         Severity::Error},
        {"RBE102", "divergent-msr-numbers",
         "duplicates of one erratum disagree on an MSR number",
         Severity::Error},
        {"RBE103", "divergent-workaround",
         "duplicates of one erratum disagree on the workaround text",
         Severity::Warning},
        {"RBE104", "non-monotonic-revision-dates",
         "a document's revision dates go backwards",
         Severity::Warning},
        {"RBE105", "dangling-reference",
         "revision notes reference an erratum the document never "
         "defines",
         Severity::Warning},
        {"RBE201", "shadowed-pattern",
         "a rule pattern is subsumed by an earlier pattern of the "
         "same list and can never change the outcome",
         Severity::Warning},
        {"RBE202", "dead-pattern",
         "a rule pattern matches no erratum of the calibrated "
         "corpus",
         Severity::Note},
        {"RBE203", "factorless-pattern",
         "a rule pattern yields no literal factors, so every text "
         "falls through the prefilter to the regex engine",
         Severity::Note},
        {"RBE204", "backtracking-hazard",
         "a rule pattern contains nested variable repetition, which "
         "a backtracking matcher explores in exponential time; the "
         "linear engines here are immune",
         Severity::Warning},
        {"RBE205", "equivalent-patterns",
         "two patterns of one list accept exactly the same texts; "
         "one of them is redundant",
         Severity::Warning},
        {"RBE206", "uncovered-accept-pattern",
         "an accept pattern matches texts its category's relevance "
         "list rejects, so classification depends on evaluation "
         "order; the finding carries a witness text",
         Severity::Warning},
        {"RBE207", "analysis-budget-exceeded",
         "the automata analysis hit its state budget before "
         "deciding a pattern pair, so that pair is unverified",
         Severity::Note},
    };
    return catalog;
}

const RuleInfo *
findRule(std::string_view id_or_name)
{
    for (const RuleInfo &rule : ruleCatalog()) {
        if (rule.id == id_or_name || rule.name == id_or_name)
            return &rule;
    }
    return nullptr;
}

std::string_view
ruleIdForDefect(DefectKind kind)
{
    switch (kind) {
      case DefectKind::DuplicateRevisionClaim:
        return "RBE001";
      case DefectKind::MissingFromNotes:
        return "RBE002";
      case DefectKind::ReusedName:
        return "RBE003";
      case DefectKind::MissingField:
        return "RBE004";
      case DefectKind::DuplicateField:
        return "RBE005";
      case DefectKind::WrongMsrNumber:
        return "RBE006";
      case DefectKind::IntraDocDuplicate:
        return "RBE007";
      case DefectKind::StatusRegression:
        return "RBE101";
      case DefectKind::DivergentWorkaround:
        return "RBE103";
      case DefectKind::DanglingReference:
        return "RBE105";
    }
    REMEMBERR_PANIC("ruleIdForDefect: bad kind");
}

std::optional<DefectKind>
defectForRuleId(std::string_view rule_id)
{
    for (std::size_t k = 0; k < kDefectKindCount; ++k) {
        DefectKind kind = static_cast<DefectKind>(k);
        if (ruleIdForDefect(kind) == rule_id)
            return kind;
    }
    return std::nullopt;
}

bool
RuleConfig::disable(std::string_view id_or_name)
{
    const RuleInfo *rule = findRule(id_or_name);
    if (!rule)
        return false;
    enabled_[std::string(rule->id)] = false;
    return true;
}

bool
RuleConfig::overrideSeverity(std::string_view id_or_name,
                             Severity severity)
{
    const RuleInfo *rule = findRule(id_or_name);
    if (!rule)
        return false;
    severities_[std::string(rule->id)] = severity;
    return true;
}

bool
RuleConfig::enabled(std::string_view rule_id) const
{
    auto it = enabled_.find(rule_id);
    return it == enabled_.end() || it->second;
}

Severity
RuleConfig::severityFor(std::string_view rule_id) const
{
    auto it = severities_.find(rule_id);
    if (it != severities_.end())
        return it->second;
    const RuleInfo *rule = findRule(rule_id);
    return rule ? rule->defaultSeverity : Severity::Warning;
}

std::vector<Diagnostic>
RuleConfig::apply(std::vector<Diagnostic> diagnostics) const
{
    std::vector<Diagnostic> kept;
    kept.reserve(diagnostics.size());
    for (Diagnostic &diagnostic : diagnostics) {
        if (!enabled(diagnostic.ruleId))
            continue;
        diagnostic.severity = severityFor(diagnostic.ruleId);
        kept.push_back(std::move(diagnostic));
    }
    return kept;
}

} // namespace rememberr
