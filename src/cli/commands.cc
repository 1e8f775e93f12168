#include "commands.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/parallel.hh"

#include "analysis/msr.hh"
#include "analysis/stats.hh"
#include "classify/engine.hh"
#include "classify/highlight.hh"
#include "core/pipeline.hh"
#include "db/query.hh"
#include "dedup/dedup.hh"
#include "diag/check.hh"
#include "document/format.hh"
#include "document/lint.hh"
#include "guidance/guidance.hh"
#include "obs/exporter.hh"
#include "obs/log.hh"
#include "obs/pool_metrics.hh"
#include "report/figures.hh"
#include "report/table.hh"
#include "serve/server.hh"
#include "snap/format.hh"
#include "snap/view.hh"
#include "snap/writer.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace rememberr {
namespace cli {

ArgList
ArgList::parse(const std::vector<std::string> &args)
{
    ArgList list;
    std::size_t start = 0;
    if (!args.empty() && !strings::startsWith(args[0], "--")) {
        list.command_ = args[0];
        start = 1;
    }
    for (std::size_t i = start; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (!strings::startsWith(arg, "--")) {
            list.positionals_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        std::size_t eq = body.find('=');
        if (eq != std::string::npos) {
            list.options_[body.substr(0, eq)] = body.substr(eq + 1);
        } else if (i + 1 < args.size() &&
                   !strings::startsWith(args[i + 1], "--")) {
            list.options_[body] = args[i + 1];
            ++i;
        } else {
            list.options_[body] = "";
        }
    }
    return list;
}

bool
ArgList::hasFlag(const std::string &name) const
{
    return options_.count(name) > 0;
}

std::optional<std::string>
ArgList::option(const std::string &name) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        return std::nullopt;
    return it->second;
}

std::optional<long>
ArgList::intOption(const std::string &name) const
{
    auto text = option(name);
    // An empty value must be rejected explicitly: strtol("") leaves
    // end at the start of the string, where *end == '\0' would pass
    // the trailing-junk check and silently yield 0.
    if (!text || text->empty())
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    long value = std::strtol(text->c_str(), &end, 10);
    if (end == text->c_str() || *end != '\0')
        return std::nullopt;
    if (errno == ERANGE)
        return std::nullopt; // saturated at LONG_MIN/LONG_MAX
    return value;
}

std::string
usageText()
{
    return "usage: rememberr <command> [options]\n"
           "\n"
           "commands:\n"
           "  stats                       headline numbers vs the "
           "paper\n"
           "  generate  --out DIR         write all documents + db "
           "exports\n"
           "  lint      FILE...           lint specification-update "
           "documents\n"
           "  check     [FILE...]         static analysis: "
           "per-document, cross-\n"
           "                              document and rule-set "
           "checks; without\n"
           "                              FILEs, the calibrated "
           "corpus is checked\n"
           "    --format text|json|sarif  output format (default "
           "text)\n"
           "    --out FILE                write the report to FILE\n"
           "    --baseline FILE           suppress known findings\n"
           "    --write-baseline FILE     accept current findings\n"
           "    --disable ID[,ID...]      disable rules by id or "
           "name\n"
           "    --severity ID=LEVEL[,...] override rule severities\n"
           "    --rules | --no-rules      force rule-set analysis "
           "on/off\n"
           "    --explain                 print witness texts under "
           "findings\n"
           "    --list-rules              print the rule catalog "
           "and exit\n"
           "    --automata-budget N       product-state budget for "
           "the\n"
           "                              language analysis "
           "(default 4096)\n"
           "  classify  FILE              software-assisted "
           "classification\n"
           "  highlight FILE ID CATEGORY  show annotation "
           "highlighting\n"
           "  query     [filters]         query the annotated "
           "database\n"
           "    --vendor intel|amd  --category CODE  --class CODE\n"
           "    --min-triggers N    --workaround NAME  --limit N\n"
           "  campaign  [--pairs N]       derive a directed testing "
           "campaign\n"
           "  seeds     [--count N]       emit a fuzzer seed corpus "
           "(JSON)\n"
           "  figures   --out DIR         write every reproduced "
           "figure (SVG)\n"
           "  snapshot  --out FILE        write the database as a "
           "binary\n"
           "                              snapshot (mmap-able, "
           "query-ready)\n"
           "  serve                       long-lived query daemon: "
           "answers JSON\n"
           "                              query lines over TCP "
           "(SIGINT/SIGTERM\n"
           "                              shut it down gracefully)\n"
           "    --port N                  TCP port, 0..65535 "
           "(default 0 =\n"
           "                              ephemeral; see "
           "--port-file)\n"
           "    --max-connections N       active+queued connections "
           "before\n"
           "                              rejecting (default 64)\n"
           "    --cache N                 cached responses across "
           "shards\n"
           "                              (default 1024; 0 "
           "disables)\n"
           "    --port-file FILE          write the bound port to "
           "FILE once\n"
           "                              listening (atomic write)\n"
           "  profile                     run the pipeline and "
           "print per-stage\n"
           "                              timings, counters and "
           "worker stats\n"
           "    --snapshot FILE           profile the mmap fast "
           "path (open,\n"
           "                              verify, materialize) "
           "instead\n"
           "\n"
           "common options:\n"
           "  --snapshot FILE             serve stats/query/campaign/"
           "seeds/\n"
           "                              figures from a binary "
           "snapshot\n"
           "                              instead of rebuilding the "
           "pipeline\n"
           "  --seed N                    corpus generator seed\n"
           "  --threads N                 pipeline worker threads "
           "(default 1;\n"
           "                              0 = all hardware threads)\n"
           "  --metrics-out FILE          dump pipeline metrics "
           "(JSON, or CSV\n"
           "                              when FILE ends in .csv)\n"
           "  --trace-out FILE            dump Chrome trace_event "
           "JSON (open in\n"
           "                              chrome://tracing or "
           "Perfetto)\n"
           "  --metrics-interval MS       flush metrics every MS "
           "milliseconds as\n"
           "                              an append-only JSONL time "
           "series to the\n"
           "                              --metrics-out file "
           "(atomic rewrites)\n"
           "  --log-json                  structured JSON log "
           "records on stderr\n"
           "                              (level, ts_us, thread, "
           "span, msg)\n"
           "  --verbose | --quiet         raise/silence warn+debug "
           "logging\n";
}

namespace {

/**
 * Build the pipeline with an optional seed override. Results are
 * cached per seed: a CLI process (or a test binary driving runCli
 * repeatedly) pays for each corpus once.
 */
/** Apply --seed/--threads to fresh pipeline options. */
PipelineOptions
pipelineOptionsFromArgs(const ArgList &args)
{
    PipelineOptions options;
    if (auto seed = args.intOption("seed"))
        options.generator.seed = static_cast<std::uint64_t>(*seed);
    if (auto threads = args.intOption("threads"))
        options.threads = static_cast<std::size_t>(*threads);
    return options;
}

/**
 * RAII attachment of the work-pool stats sink: every parallel
 * command (not just profile) reports per-worker chunk/busy/idle
 * counters into its registry while it runs.
 */
class PoolMetricsScope
{
  public:
    explicit PoolMetricsScope(MetricsRegistry &registry)
    {
        attachPoolMetrics(registry);
    }
    ~PoolMetricsScope() { detachPoolMetrics(); }

    PoolMetricsScope(const PoolMetricsScope &) = delete;
    PoolMetricsScope &operator=(const PoolMetricsScope &) = delete;
};

const PipelineResult &
buildPipeline(const ArgList &args)
{
    PipelineOptions options = pipelineOptionsFromArgs(args);

    // The cache is keyed by seed alone: the parallel stages merge
    // deterministically, so the thread count never changes results.
    static std::map<std::uint64_t, PipelineResult> cache;
    auto it = cache.find(options.generator.seed);
    if (it == cache.end()) {
        it = cache.emplace(options.generator.seed,
                           runPipeline(options))
                 .first;
    }
    return it->second;
}

/**
 * Resolve the database a read-only command queries: with --snapshot
 * FILE it is materialized from the memory-mapped snapshot (no corpus
 * generation, no dedup, no classification — query-ready in the time
 * it takes to map and decode the file); otherwise it is the ground
 * truth of the (cached) pipeline run. On success `db` points either
 * at `storage` or at the cached pipeline result; the non-zero return
 * is the command's exit code otherwise.
 */
int
resolveDatabase(const ArgList &args,
                std::optional<Database> &storage,
                const Database *&db, std::ostream &err)
{
    if (auto path = args.option("snapshot")) {
        if (path->empty()) {
            err << "--snapshot requires a file name\n";
            return 2;
        }
        snap::LoadOptions options;
        options.metrics = &MetricsRegistry::global();
        options.trace = &TraceRecorder::global();
        auto view = snap::SnapshotView::open(*path, options);
        if (!view) {
            err << "cannot load snapshot " << *path << ": "
                << view.error().toString() << "\n";
            return 1;
        }
        storage.emplace(view.value().database());
        db = &*storage;
        return 0;
    }
    db = &buildPipeline(args).groundTruth;
    return 0;
}

int
cmdStats(const ArgList &args, std::ostream &out, std::ostream &err)
{
    std::optional<Database> storage;
    const Database *db = nullptr;
    if (int rc = resolveDatabase(args, storage, db, err))
        return rc;
    HeadlineStats stats = headlineStats(*db);

    AsciiTable table;
    table.setColumns({"statistic", "measured", "paper"},
                     {Align::Left, Align::Right, Align::Right});
    table.addRow({"Intel errata (collected/unique)",
                  std::to_string(stats.intelRows) + " / " +
                      std::to_string(stats.intelUnique),
                  "2,057 / 743"});
    table.addRow({"AMD errata (collected/unique)",
                  std::to_string(stats.amdRows) + " / " +
                      std::to_string(stats.amdUnique),
                  "506 / 385"});
    table.addRow({"no clear trigger",
                  strings::formatPercent(stats.noTriggerFraction),
                  "14.4%"});
    table.addRow({">= 2 combined triggers",
                  strings::formatPercent(
                      stats.multiTriggerFraction),
                  "49%"});
    table.addRow({"no workaround (Intel / AMD)",
                  strings::formatPercent(
                      stats.workaroundNoneIntel) +
                      " / " +
                      strings::formatPercent(
                          stats.workaroundNoneAmd),
                  "35.9% / 28.9%"});
    out << table.toString();
    return 0;
}

int
cmdGenerate(const ArgList &args, std::ostream &out,
            std::ostream &err)
{
    auto dir = args.option("out");
    if (!dir || dir->empty()) {
        err << "generate: --out DIR is required\n";
        return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(*dir, ec);
    if (ec) {
        err << "generate: cannot create " << *dir << "\n";
        return 1;
    }

    const PipelineResult &result = buildPipeline(args);
    for (const ErrataDocument &doc : result.corpus.documents) {
        std::string name = doc.design.key();
        for (char &c : name) {
            if (c == '/')
                c = '_';
        }
        std::ofstream file(*dir + "/" + name + ".txt");
        file << renderDocument(doc);
        out << "wrote " << *dir << "/" << name << ".txt ("
            << doc.errata.size() << " errata)\n";
    }
    {
        std::ofstream file(*dir + "/rememberr_db.json");
        file << result.groundTruth.toJson().dumpPretty() << "\n";
    }
    {
        std::ofstream file(*dir + "/rememberr_db.csv");
        file << result.groundTruth.toCsv();
    }
    out << "wrote " << *dir << "/rememberr_db.json and .csv ("
        << result.groundTruth.entries().size()
        << " unique errata)\n";
    return 0;
}

int
cmdLint(const ArgList &args, std::ostream &out, std::ostream &err)
{
    if (args.positionals().empty()) {
        err << "lint: at least one FILE is required\n";
        return 2;
    }
    int failures = 0;
    for (const std::string &path : args.positionals()) {
        std::ifstream in(path);
        if (!in) {
            err << "lint: cannot open " << path << "\n";
            ++failures;
            continue;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        auto parsed = parseDocument(buffer.str());
        if (!parsed) {
            err << "lint: " << path << ": "
                << parsed.error().toString() << "\n";
            ++failures;
            continue;
        }
        parsed.value().sourcePath = path;
        auto findings = lintDocument(parsed.value());
        out << path << ": " << findings.size() << " finding(s)\n";
        for (const LintFinding &finding : findings) {
            out << "  [" << defectKindName(finding.kind) << "]";
            if (finding.line > 0)
                out << " line " << finding.line << ":";
            out << " " << finding.detail << "\n";
        }
    }
    return failures == 0 ? 0 : 1;
}

int writeTextFile(const std::string &path,
                  const std::string &content, const char *what,
                  std::ostream &err);

int
cmdCheck(const ArgList &args, std::ostream &out, std::ostream &err)
{
    if (args.hasFlag("list-rules")) {
        for (const RuleInfo &rule : ruleCatalog()) {
            out << rule.id << "  " << severityName(rule.defaultSeverity);
            // Pad to the widest severity name ("warning").
            for (std::size_t pad = severityName(rule.defaultSeverity)
                                       .size();
                 pad < 7; ++pad)
                out << ' ';
            out << "  " << rule.name << "\n        " << rule.summary
                << "\n";
        }
        return 0;
    }

    std::string format = args.option("format").value_or("text");
    if (format != "text" && format != "json" && format != "sarif") {
        err << "check: unknown format '" << format
            << "' (expected text, json or sarif)\n";
        return 2;
    }
    if (args.hasFlag("baseline") && args.hasFlag("write-baseline")) {
        err << "check: --baseline and --write-baseline are "
               "mutually exclusive\n";
        return 2;
    }

    CheckOptions options;
    if (auto threads = args.intOption("threads"))
        options.threads = static_cast<std::size_t>(*threads);
    if (auto budget = args.intOption("automata-budget")) {
        if (*budget < 1) {
            err << "check: --automata-budget must be positive\n";
            return 2;
        }
        options.automataBudget = static_cast<std::size_t>(*budget);
    }
    options.metrics = &MetricsRegistry::global();
    options.trace = &TraceRecorder::global();
    // Per-worker pool stats for the parallel check stages (and the
    // pipeline build in corpus mode).
    PoolMetricsScope poolMetrics(*options.metrics);

    auto eachToken = [](const std::string &list,
                        const auto &consume) {
        std::size_t pos = 0;
        while (pos <= list.size()) {
            std::size_t comma = list.find(',', pos);
            if (comma == std::string::npos)
                comma = list.size();
            std::string token = list.substr(pos, comma - pos);
            pos = comma + 1;
            if (!token.empty() && !consume(token))
                return false;
        }
        return true;
    };
    if (auto disable = args.option("disable")) {
        bool ok = eachToken(*disable, [&](const std::string &rule) {
            if (options.config.disable(rule))
                return true;
            err << "check: unknown rule '" << rule << "'\n";
            return false;
        });
        if (!ok)
            return 2;
    }
    if (auto overrides = args.option("severity")) {
        bool ok =
            eachToken(*overrides, [&](const std::string &token) {
                std::size_t eq = token.find('=');
                std::optional<Severity> severity;
                if (eq != std::string::npos)
                    severity = parseSeverity(token.substr(eq + 1));
                if (!severity) {
                    err << "check: expected RULE=note|warning|error"
                           ", got '"
                        << token << "'\n";
                    return false;
                }
                if (!options.config.overrideSeverity(
                        token.substr(0, eq), *severity)) {
                    err << "check: unknown rule '"
                        << token.substr(0, eq) << "'\n";
                    return false;
                }
                return true;
            });
        if (!ok)
            return 2;
    }

    std::optional<Baseline> baseline;
    if (auto path = args.option("baseline")) {
        std::ifstream in(*path);
        if (!in) {
            err << "check: cannot open baseline " << *path << "\n";
            return 1;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        auto parsed = Baseline::parse(buffer.str());
        if (!parsed) {
            err << "check: " << *path << ": "
                << parsed.error().toString() << "\n";
            return 1;
        }
        baseline.emplace(std::move(parsed.value()));
        options.baseline = &*baseline;
    }

    CheckReport report;
    if (args.positionals().empty()) {
        // Corpus mode: the calibrated corpus with its pipeline
        // dedup clusters; rule-set analysis on unless disabled.
        options.ruleSetChecks = !args.hasFlag("no-rules");
        const PipelineResult &result = buildPipeline(args);
        report = runChecks(result.corpus.documents, result.dedup,
                           options);
    } else {
        // File mode: parse and dedup just the given documents.
        // Rule-set analysis is off by default — it concerns the
        // classifier's tables, not the documents — but --rules
        // turns it on (dead-pattern analysis then runs against
        // these documents).
        options.ruleSetChecks = args.hasFlag("rules");
        std::vector<ErrataDocument> documents;
        for (const std::string &path : args.positionals()) {
            std::ifstream in(path);
            if (!in) {
                err << "check: cannot open " << path << "\n";
                return 1;
            }
            std::ostringstream buffer;
            buffer << in.rdbuf();
            auto parsed = parseDocument(buffer.str());
            if (!parsed) {
                err << "check: " << path << ": "
                    << parsed.error().toString() << "\n";
                return 1;
            }
            parsed.value().sourcePath = path;
            documents.push_back(std::move(parsed.value()));
        }
        DedupOptions dedupOptions;
        dedupOptions.threads = options.threads;
        DedupResult dedup = deduplicate(documents, dedupOptions);
        report = runChecks(documents, dedup, options);
    }

    if (auto path = args.option("write-baseline")) {
        if (path->empty()) {
            err << "check: --write-baseline requires a file name\n";
            return 2;
        }
        Baseline accepted =
            Baseline::fromDiagnostics(report.diagnostics);
        if (int rc = writeTextFile(*path, accepted.serialize(),
                                   "baseline", err)) {
            return rc;
        }
        out << "wrote " << *path << " ("
            << report.diagnostics.size() << " accepted finding(s))\n";
        return 0;
    }

    std::string body;
    if (format == "text") {
        body = renderText(report.diagnostics, report.suppressed,
                          args.hasFlag("explain"));
    } else if (format == "json") {
        body = diagnosticsToJson(report.diagnostics,
                                 report.suppressed)
                   .dumpPretty() +
               "\n";
    } else {
        body = diagnosticsToSarif(report.diagnostics).dumpPretty() +
               "\n";
    }
    if (auto path = args.option("out")) {
        if (path->empty()) {
            err << "check: --out requires a file name\n";
            return 2;
        }
        if (int rc = writeTextFile(*path, body, "report", err))
            return rc;
    } else {
        out << body;
    }
    return report.failed() ? 1 : 0;
}

int
cmdClassify(const ArgList &args, std::ostream &out,
            std::ostream &err)
{
    if (args.positionals().size() != 1) {
        err << "classify: exactly one FILE is required\n";
        return 2;
    }
    std::ifstream in(args.positionals()[0]);
    if (!in) {
        err << "classify: cannot open " << args.positionals()[0]
            << "\n";
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto parsed = parseDocument(buffer.str());
    if (!parsed) {
        err << "classify: " << parsed.error().toString() << "\n";
        return 1;
    }
    const Taxonomy &taxonomy = Taxonomy::instance();
    for (const Erratum &erratum : parsed.value().errata) {
        EngineResult result = classifyErratum(erratum);
        out << erratum.localId << ": ";
        bool first = true;
        for (CategoryId id : result.autoYes.toVector()) {
            if (!first)
                out << ", ";
            first = false;
            out << taxonomy.categoryById(id).code;
        }
        if (first)
            out << "(no auto-accepted categories)";
        out << " [+" << result.manual.size()
            << " manual decision(s)]\n";
    }
    return 0;
}

int
cmdHighlight(const ArgList &args, std::ostream &out,
             std::ostream &err)
{
    if (args.positionals().size() != 3) {
        err << "highlight: FILE ERRATUM-ID CATEGORY required\n";
        return 2;
    }
    const Taxonomy &taxonomy = Taxonomy::instance();
    auto category = taxonomy.parseCategory(args.positionals()[2]);
    if (!category) {
        err << "highlight: unknown category '"
            << args.positionals()[2] << "'\n";
        return 2;
    }
    std::ifstream in(args.positionals()[0]);
    if (!in) {
        err << "highlight: cannot open " << args.positionals()[0]
            << "\n";
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto parsed = parseDocument(buffer.str());
    if (!parsed) {
        err << "highlight: " << parsed.error().toString() << "\n";
        return 1;
    }
    const Erratum *erratum =
        parsed.value().findErratum(args.positionals()[1]);
    if (!erratum) {
        err << "highlight: no erratum '" << args.positionals()[1]
            << "' in the document\n";
        return 1;
    }
    std::string body = erratumBodyText(*erratum);
    auto spans = highlightCategory(body, *category);
    bool html = args.hasFlag("html");
    out << (html ? renderHtml(body, spans)
                 : renderAnsi(body, spans))
        << "\n";
    return 0;
}

int
cmdQuery(const ArgList &args, std::ostream &out, std::ostream &err)
{
    // Validate every filter before paying for the pipeline, so bad
    // arguments fail fast.
    const Taxonomy &taxonomy = Taxonomy::instance();
    std::optional<Vendor> vendorFilter;
    std::optional<CategoryId> categoryFilter;
    std::optional<ClassId> classFilter;
    std::optional<WorkaroundClass> workaroundFilter;

    if (auto vendor = args.option("vendor")) {
        std::string lowered = strings::toLower(*vendor);
        if (lowered == "intel") {
            vendorFilter = Vendor::Intel;
        } else if (lowered == "amd") {
            vendorFilter = Vendor::Amd;
        } else {
            err << "query: unknown vendor '" << *vendor << "'\n";
            return 2;
        }
    }
    if (auto code = args.option("category")) {
        categoryFilter = taxonomy.parseCategory(*code);
        if (!categoryFilter) {
            err << "query: unknown category '" << *code << "'\n";
            return 2;
        }
    }
    if (auto code = args.option("class")) {
        classFilter = taxonomy.parseClass(*code);
        if (!classFilter) {
            err << "query: unknown class '" << *code << "'\n";
            return 2;
        }
    }
    if (auto name = args.option("workaround")) {
        for (int c = 0; c <= 5; ++c) {
            auto cls = static_cast<WorkaroundClass>(c);
            if (strings::toLower(
                    std::string(workaroundClassName(cls))) ==
                strings::toLower(*name)) {
                workaroundFilter = cls;
            }
        }
        if (!workaroundFilter) {
            err << "query: unknown workaround class '" << *name
                << "'\n";
            return 2;
        }
    }

    std::optional<Database> storage;
    const Database *db = nullptr;
    if (int rc = resolveDatabase(args, storage, db, err))
        return rc;

    Query query(*db);
    if (vendorFilter)
        query.vendor(*vendorFilter);
    if (categoryFilter)
        query.hasCategory(*categoryFilter);
    if (classFilter)
        query.hasClass(*classFilter);
    if (workaroundFilter)
        query.workaround(*workaroundFilter);
    if (auto n = args.intOption("min-triggers"))
        query.triggerCountAtLeast(static_cast<std::size_t>(*n));

    auto matches = query.run();
    std::size_t limit = 20;
    if (auto n = args.intOption("limit"))
        limit = static_cast<std::size_t>(*n);

    AsciiTable table;
    table.setColumns({"key", "vendor", "title", "triggers",
                      "occurrences"},
                     {Align::Right, Align::Left, Align::Left,
                      Align::Right, Align::Right});
    for (std::size_t i = 0; i < matches.size() && i < limit; ++i) {
        const DbEntry *entry = matches[i];
        table.addRow({
            std::to_string(entry->key),
            std::string(vendorName(entry->vendor)),
            entry->title.size() > 48
                ? entry->title.substr(0, 45) + "..."
                : entry->title,
            std::to_string(entry->triggers.size()),
            std::to_string(entry->occurrences.size()),
        });
    }
    out << table.toString();
    out << matches.size() << " matching unique errata";
    if (matches.size() > limit)
        out << " (showing " << limit << ")";
    out << "\n";
    return 0;
}

int
cmdCampaign(const ArgList &args, std::ostream &out,
            std::ostream &err)
{
    std::optional<Database> storage;
    const Database *db = nullptr;
    if (int rc = resolveDatabase(args, storage, db, err))
        return rc;
    CampaignOptions options;
    if (auto n = args.intOption("pairs"))
        options.stimulusPairs = static_cast<std::size_t>(*n);
    TestCampaign campaign = deriveCampaign(*db, options);
    if (args.hasFlag("json"))
        out << campaign.toJson().dumpPretty() << "\n";
    else
        out << campaign.renderText();
    return 0;
}

int
cmdSeeds(const ArgList &args, std::ostream &out, std::ostream &err)
{
    std::optional<Database> storage;
    const Database *db = nullptr;
    if (int rc = resolveDatabase(args, storage, db, err))
        return rc;
    SeedCorpusOptions options;
    if (auto n = args.intOption("count"))
        options.sequenceCount = static_cast<std::size_t>(*n);
    SeedCorpus corpus = generateSeedCorpus(*db, options);
    out << corpus.toJson().dumpPretty() << "\n";
    return 0;
}

/**
 * figures --out DIR: write every SVG of the figure registry. A
 * --snapshot database comes without the classification run, so the
 * entries that read it are skipped and named.
 */
int
cmdFigures(const ArgList &args, std::ostream &out,
           std::ostream &err)
{
    auto dir = args.option("out");
    if (!dir || dir->empty()) {
        err << "figures: --out DIR is required\n";
        return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(*dir, ec);
    if (ec) {
        err << "figures: cannot create " << *dir << "\n";
        return 1;
    }
    std::optional<Database> storage;
    const Database *db = nullptr;
    if (int rc = resolveDatabase(args, storage, db, err))
        return rc;
    // Without --snapshot, resolveDatabase built the cached pipeline.
    const PipelineResult *pipeline =
        storage ? nullptr : &buildPipeline(args);

    std::vector<std::string> skipped;
    for (const FigureEntry &entry : figureRegistry()) {
        if (entry.svgNames.empty())
            continue;
        if (entry.needsPipeline && !pipeline) {
            skipped.insert(skipped.end(), entry.svgNames.begin(),
                           entry.svgNames.end());
            continue;
        }
        FigureOutput figure = entry.render(*db, pipeline);
        for (std::size_t i = 0; i < figure.svgs.size(); ++i) {
            std::string path =
                *dir + "/" + entry.svgNames[i] + ".svg";
            if (int rc =
                    writeTextFile(path, figure.svgs[i], "figure", err))
                return rc;
            out << "wrote " << path << "\n";
        }
    }
    if (!skipped.empty()) {
        out << "skipped " << strings::join(skipped, ", ")
            << ": a snapshot holds no classification run\n";
    }
    return 0;
}

int
cmdSnapshot(const ArgList &args, std::ostream &out,
            std::ostream &err)
{
    auto path = args.option("out");
    if (!path || path->empty()) {
        err << "snapshot: --out FILE is required\n";
        return 2;
    }
    // Per-worker pool stats for the parallel pipeline build feeding
    // the snapshot writer.
    PoolMetricsScope poolMetrics(MetricsRegistry::global());
    const PipelineResult &result = buildPipeline(args);
    snap::WriteOptions options;
    options.metrics = &MetricsRegistry::global();
    options.trace = &TraceRecorder::global();
    auto written =
        snap::writeSnapshotFile(*path, result.groundTruth, options);
    if (!written) {
        err << "snapshot: " << written.error().toString() << "\n";
        return 1;
    }
    // Re-open what was just written: a structural + hash check that
    // the file on disk is servable, and the printed hash doubles as
    // the fingerprint CI pins.
    auto view = snap::SnapshotView::open(*path);
    if (!view) {
        err << "snapshot: verification failed: "
            << view.error().toString() << "\n";
        return 1;
    }
    out << "wrote " << *path << " (" << written.value()
        << " bytes, " << view.value().entryCount() << " entries, "
        << view.value().documentCount() << " documents, hash "
        << snap::hashHex(view.value().contentHash()) << ")\n";
    return 0;
}

/**
 * Write `content` to `path`, reporting failures on err. Crash-safe:
 * the content is staged in a sibling temp file and renamed into
 * place, so an interrupted run never leaves a truncated report,
 * baseline, metrics or trace artifact.
 */
int
writeTextFile(const std::string &path, const std::string &content,
              const char *what, std::ostream &err)
{
    auto written = atomicWriteFile(path, content);
    if (!written) {
        err << "cannot write " << what << " to " << path << "\n";
        return 1;
    }
    return 0;
}

/**
 * Handle --metrics-out/--trace-out against the given registry and
 * recorder. Metrics are JSON unless FILE ends in .csv; traces are
 * always Chrome trace_event JSON. With `metricsHandled` (a periodic
 * exporter owned the --metrics-out file as a JSONL series) only the
 * trace export runs.
 */
int
writeObsExports(const ArgList &args, std::ostream &err,
                const MetricsRegistry &metrics,
                const TraceRecorder &trace,
                bool metricsHandled = false)
{
    if (auto path = args.option("metrics-out");
        path && !metricsHandled) {
        if (path->empty()) {
            err << "--metrics-out requires a file name\n";
            return 2;
        }
        bool csv = strings::endsWith(*path, ".csv");
        std::string body = csv
                               ? metrics.toCsv()
                               : metrics.toJson().dumpPretty() + "\n";
        if (int rc = writeTextFile(*path, body, "metrics", err))
            return rc;
    }
    if (auto path = args.option("trace-out")) {
        if (path->empty()) {
            err << "--trace-out requires a file name\n";
            return 2;
        }
        if (int rc = writeTextFile(
                *path, trace.toChromeJson() + "\n", "trace", err))
            return rc;
    }
    return 0;
}

#if defined(__unix__) || defined(__APPLE__)
/** SIGINT/SIGTERM latch for `serve`; the handler may only set it. */
volatile std::sig_atomic_t serveStopRequested = 0;

extern "C" void
serveSignalHandler(int)
{
    serveStopRequested = 1;
}
#endif

/**
 * serve: bind a TCP port and answer query requests until a signal
 * (or a caller-driven stop in tests) asks for a graceful shutdown.
 * The database comes from resolveDatabase, so `--snapshot FILE` is
 * the intended production path (mmap once, serve forever) and the
 * cached pipeline build is the fallback. A periodic metrics exporter
 * (--metrics-interval + --metrics-out) makes the `serve.*` counters
 * and latency quantiles a live JSONL series while the daemon runs.
 */
int
cmdServe(const ArgList &args, std::ostream &out, std::ostream &err)
{
    serve::ServeOptions options;
    // checkIntOptions already rejected malformed or negative values;
    // the upper bounds are serve-specific.
    if (auto port = args.intOption("port")) {
        if (*port > 65535) {
            err << "--port must be in [0, 65535], got " << *port
                << "\n";
            return 2;
        }
        options.port = static_cast<int>(*port);
    }
    if (auto maxConnections = args.intOption("max-connections")) {
        if (*maxConnections < 1) {
            err << "--max-connections must be at least 1, got "
                << *maxConnections << "\n";
            return 2;
        }
        options.maxConnections =
            static_cast<std::size_t>(*maxConnections);
    }
    if (auto cache = args.intOption("cache"))
        options.cacheCapacity = static_cast<std::size_t>(*cache);
    // Workers each own one connection at a time, so unlike the
    // pipeline the daemon wants a floor above the core count: a
    // couple of idle-ish clients must not starve each other on a
    // small machine. --threads still overrides exactly.
    if (auto threads = args.intOption("threads"))
        options.workers = static_cast<std::size_t>(*threads);
    else
        options.workers =
            std::max<std::size_t>(resolveThreadCount(0), 4);
    options.metrics = &MetricsRegistry::global();
    options.trace = &TraceRecorder::global();

    std::optional<Database> storage;
    const Database *db = nullptr;
    if (int rc = resolveDatabase(args, storage, db, err))
        return rc;

    serve::Server server(*db, options);
    if (auto started = server.start(); !started) {
        err << "serve: " << started.error().toString() << "\n";
        return 1;
    }
    if (auto portFile = args.option("port-file")) {
        if (portFile->empty()) {
            err << "--port-file requires a file name\n";
            return 2;
        }
        // Atomic (and directory-fsynced): a supervisor polling for
        // this file never reads a partial port number.
        if (!atomicWriteFile(*portFile,
                             std::to_string(server.port()) + "\n")) {
            err << "serve: cannot write port file " << *portFile
                << "\n";
            return 1;
        }
    }
    out << "serving " << db->entries().size() << " errata on "
        << "127.0.0.1:" << server.port() << " (workers "
        << resolveThreadCount(options.workers) << ", cache "
        << options.cacheCapacity << ", max connections "
        << options.maxConnections << ")" << std::endl;

#if defined(__unix__) || defined(__APPLE__)
    serveStopRequested = 0;
    struct sigaction action
    {
    };
    action.sa_handler = serveSignalHandler;
    sigemptyset(&action.sa_mask);
    struct sigaction oldInt
    {
    };
    struct sigaction oldTerm
    {
    };
    ::sigaction(SIGINT, &action, &oldInt);
    ::sigaction(SIGTERM, &action, &oldTerm);
    while (serveStopRequested == 0 && server.running())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::sigaction(SIGINT, &oldInt, nullptr);
    ::sigaction(SIGTERM, &oldTerm, nullptr);
#endif
    server.stop();

    serve::ServerStats stats = server.stats();
    serve::ShardedLruCache::Stats cacheStats =
        server.cache().stats();
    out << "served " << stats.requests << " requests ("
        << stats.errors << " errors, " << stats.rejected
        << " rejected, cache " << cacheStats.hits << " hits / "
        << cacheStats.misses << " misses)\n";
    return 0;
}

/**
 * Start a private exporter for a profile run when the user asked for
 * a live series (--metrics-interval was validated in runCli). The
 * exporter is non-movable, so it is emplaced into the caller's slot;
 * the slot stays empty otherwise.
 */
void
makeProfileExporter(const ArgList &args, MetricsRegistry &metrics,
                    std::optional<MetricsExporter> &exporter)
{
    if (auto interval = args.intOption("metrics-interval")) {
        ExporterOptions options;
        options.interval = std::chrono::milliseconds(*interval);
        options.metrics = &metrics;
        exporter.emplace(*args.option("metrics-out"), options);
    }
}

/** Stop a profile exporter, surfacing any write failure. */
int
stopProfileExporter(std::optional<MetricsExporter> &exporter,
                    std::ostream &err)
{
    if (!exporter)
        return 0;
    if (!exporter->stop()) {
        err << "cannot write metrics to " << exporter->path() << ": "
            << exporter->lastError() << "\n";
        return 1;
    }
    return 0;
}

/**
 * profile --snapshot FILE: time the mmap fast path (open + verify,
 * then full materialization) instead of the generation pipeline.
 * Uses the same private-instrument discipline as the pipeline
 * profile: a fresh registry/recorder per invocation.
 */
int
profileSnapshot(const std::string &path, const ArgList &args,
                std::ostream &out, std::ostream &err)
{
    MetricsRegistry metrics;
    TraceRecorder trace;
    std::optional<MetricsExporter> exporter;
    makeProfileExporter(args, metrics, exporter);

    snap::LoadOptions loadOptions;
    loadOptions.metrics = &metrics;
    loadOptions.trace = &trace;
    auto view = snap::SnapshotView::open(path, loadOptions);
    if (!view) {
        err << "profile: cannot load snapshot " << path << ": "
            << view.error().toString() << "\n";
        return 1;
    }
    Database db = view.value().database();

    auto gaugeUs = [&](const std::string &name) -> std::int64_t {
        const Gauge *gauge = metrics.findGauge(name);
        return gauge ? gauge->value() : 0;
    };
    auto count = [&](const std::string &name) -> std::uint64_t {
        const Counter *counter = metrics.findCounter(name);
        return counter ? counter->value() : 0;
    };
    auto ms = [](double us) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.1f", us / 1000.0);
        return std::string(buffer);
    };

    struct StageRow
    {
        const char *stage;
        const char *gauge;
        const char *counter;
        const char *unit;
    };
    static constexpr StageRow stages[] = {
        {"open+verify", "snap.load.open_us", "snap.load.bytes",
         "bytes"},
        {"materialize", "snap.load.materialize_us",
         "snap.load.entries", "db entries"},
    };

    std::int64_t totalUs = 0;
    for (const StageRow &row : stages)
        totalUs += gaugeUs(row.gauge);
    AsciiTable table;
    table.setColumns({"stage", "time ms", "share", "items", "unit",
                      "items/s"},
                     {Align::Left, Align::Right, Align::Right,
                      Align::Right, Align::Left, Align::Right});
    for (const StageRow &row : stages) {
        std::int64_t us = gaugeUs(row.gauge);
        std::uint64_t items = count(row.counter);
        double share =
            totalUs > 0 ? static_cast<double>(us) / totalUs : 0.0;
        double rate = us > 0 ? items * 1e6 / us : 0.0;
        char rateText[32];
        std::snprintf(rateText, sizeof(rateText), "%.0f", rate);
        table.addRow({row.stage, ms(static_cast<double>(us)),
                      strings::formatPercent(share),
                      std::to_string(items), row.unit, rateText});
    }
    table.addSeparator();
    table.addRow({"total", ms(static_cast<double>(totalUs)),
                  strings::formatPercent(totalUs > 0 ? 1.0 : 0.0),
                  std::to_string(db.entries().size()),
                  "unique errata", ""});
    out << table.toString();
    out << "\nsnapshot: " << path << " ("
        << count("snap.load.bytes") << " bytes, "
        << view.value().documentCount() << " documents, hash "
        << snap::hashHex(view.value().contentHash()) << ")\n";

    if (int rc = stopProfileExporter(exporter, err))
        return rc;
    return writeObsExports(args, err, metrics, trace,
                           exporter.has_value());
}

int
cmdProfile(const ArgList &args, std::ostream &out,
           std::ostream &err)
{
    // profile --snapshot FILE times the load path, not the build
    // path.
    if (auto path = args.option("snapshot")) {
        if (path->empty()) {
            err << "profile: --snapshot requires a file name\n";
            return 2;
        }
        return profileSnapshot(*path, args, out, err);
    }

    // Profile against private instruments (not the process-global
    // ones) so the report reflects exactly one fresh pipeline run,
    // uncontaminated by earlier commands in the same process and
    // never served from the per-seed cache.
    PipelineOptions options = pipelineOptionsFromArgs(args);
    MetricsRegistry metrics;
    TraceRecorder trace;
    options.metrics = &metrics;
    options.trace = &trace;
    std::optional<MetricsExporter> exporter;
    makeProfileExporter(args, metrics, exporter);
    attachPoolMetrics(metrics);
    PipelineResult result = runPipeline(options);
    detachPoolMetrics();

    auto gaugeUs = [&](const std::string &name) -> std::int64_t {
        const Gauge *gauge = metrics.findGauge(name);
        return gauge ? gauge->value() : 0;
    };
    auto count = [&](const std::string &name) -> std::uint64_t {
        const Counter *counter = metrics.findCounter(name);
        return counter ? counter->value() : 0;
    };
    auto ms = [](double us) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.1f", us / 1000.0);
        return std::string(buffer);
    };

    struct StageRow
    {
        const char *stage;
        const char *counter;
        const char *unit;
    };
    static constexpr StageRow stages[] = {
        {"acquire", "pipeline.acquire.errata", "errata"},
        {"parse", "pipeline.parse.documents", "documents"},
        {"lint", "pipeline.lint.findings", "findings"},
        {"dedup", "pipeline.dedup.candidate_pairs",
         "candidate pairs"},
        {"classify", "pipeline.classify.annotations",
         "annotations"},
        {"assemble", "pipeline.assemble.entries", "db entries"},
    };

    std::int64_t totalUs = gaugeUs("pipeline.total_us");
    std::int64_t stageSumUs = 0;
    AsciiTable table;
    table.setColumns({"stage", "time ms", "share", "items", "unit",
                      "items/s"},
                     {Align::Left, Align::Right, Align::Right,
                      Align::Right, Align::Left, Align::Right});
    for (const StageRow &row : stages) {
        std::int64_t us =
            gaugeUs(std::string("pipeline.stage_us.") + row.stage);
        stageSumUs += us;
        std::uint64_t items = count(row.counter);
        double share =
            totalUs > 0 ? static_cast<double>(us) / totalUs : 0.0;
        double rate = us > 0 ? items * 1e6 / us : 0.0;
        char rateText[32];
        std::snprintf(rateText, sizeof(rateText), "%.0f", rate);
        table.addRow({row.stage, ms(static_cast<double>(us)),
                      strings::formatPercent(share),
                      std::to_string(items), row.unit, rateText});
    }
    table.addSeparator();
    double coverage =
        totalUs > 0 ? static_cast<double>(stageSumUs) / totalUs
                    : 0.0;
    table.addRow({"total", ms(static_cast<double>(totalUs)),
                  strings::formatPercent(coverage),
                  std::to_string(
                      result.groundTruth.entries().size()),
                  "unique errata", ""});
    out << table.toString();

    std::size_t workers = resolveThreadCount(options.threads);
    out << "\nthreads: " << workers
        << (options.threads == 0 ? " (all hardware)" : "") << "\n";
    if (std::uint64_t regions = count("parallel.regions")) {
        std::uint64_t busy = count("parallel.busy_us");
        std::uint64_t idle = count("parallel.idle_us");
        double idleShare =
            busy + idle > 0
                ? static_cast<double>(idle) / (busy + idle)
                : 0.0;
        out << "work pool: " << regions << " fork-join region(s), "
            << count("parallel.chunks") << " chunk(s) over "
            << count("parallel.workers") << " worker run(s); idle "
            << strings::formatPercent(idleShare)
            << " of worker time\n";
    } else {
        out << "work pool: not used (serial run; pass --threads N "
               "to engage it)\n";
    }

    if (int rc = stopProfileExporter(exporter, err))
        return rc;
    return writeObsExports(args, err, metrics, trace,
                           exporter.has_value());
}

/**
 * Validate every numeric option up front so a malformed, empty or
 * out-of-range value fails fast with a message instead of being
 * silently treated as absent (and replaced by the default).
 */
int
checkIntOptions(const ArgList &args, std::ostream &err)
{
    static constexpr const char *intOptions[] = {
        "seed",    "limit", "min-triggers",     "pairs",
        "count",   "threads", "metrics-interval", "port",
        "max-connections", "cache"};
    for (const char *name : intOptions) {
        auto text = args.option(name);
        if (!text)
            continue;
        auto value = args.intOption(name);
        if (!value) {
            err << "invalid integer '" << *text << "' for --"
                << name << "\n";
            return 2;
        }
        if (*value < 0) {
            err << "--" << name << " must be non-negative, got "
                << *value << "\n";
            return 2;
        }
    }
    return 0;
}

} // namespace

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    ArgList parsed = ArgList::parse(args);
    const std::string &command = parsed.command();

    if (command.empty() || command == "help" ||
        parsed.hasFlag("help")) {
        err << usageText();
        return command.empty() ? 2 : 0;
    }
    if (int rc = checkIntOptions(parsed, err))
        return rc;

    // Verbosity: commands run quiet by default (the pipeline's
    // warn/inform chatter would drown their output); --verbose
    // enables debug traces, --quiet is the explicit form of the
    // default. --log-json implies Info — structured records exist to
    // be collected, so silencing them by default would defeat the
    // flag — unless --quiet or --verbose says otherwise.
    if (parsed.hasFlag("verbose") && parsed.hasFlag("quiet")) {
        err << "--verbose and --quiet are mutually exclusive\n";
        return 2;
    }
    bool logJson = parsed.hasFlag("log-json");
    setLogLevel(parsed.hasFlag("verbose") ? LogLevel::Debug
                : logJson && !parsed.hasFlag("quiet")
                    ? LogLevel::Info
                    : LogLevel::Quiet);

    // The JSON emitter must be restored on every exit path: tests
    // (and future embedders) drive runCli repeatedly in one process.
    struct JsonLogScope
    {
        bool active = false;
        ~JsonLogScope()
        {
            if (active)
                disableJsonLogging();
        }
    } jsonLogScope;
    if (logJson) {
        enableJsonLogging();
        jsonLogScope.active = true;
    }

    // A live metrics series needs a positive period and a file to
    // own; both are checked before any command work starts.
    auto metricsInterval = parsed.intOption("metrics-interval");
    if (parsed.hasFlag("metrics-interval")) {
        if (!metricsInterval || *metricsInterval <= 0) {
            err << "--metrics-interval must be a positive number "
                   "of milliseconds\n";
            return 2;
        }
        auto path = parsed.option("metrics-out");
        if (!path || path->empty()) {
            err << "--metrics-interval requires --metrics-out "
                   "FILE\n";
            return 2;
        }
    }

    auto dispatch = [&]() -> int {
        if (command == "stats")
            return cmdStats(parsed, out, err);
        if (command == "generate")
            return cmdGenerate(parsed, out, err);
        if (command == "lint")
            return cmdLint(parsed, out, err);
        if (command == "check")
            return cmdCheck(parsed, out, err);
        if (command == "classify")
            return cmdClassify(parsed, out, err);
        if (command == "highlight")
            return cmdHighlight(parsed, out, err);
        if (command == "query")
            return cmdQuery(parsed, out, err);
        if (command == "campaign")
            return cmdCampaign(parsed, out, err);
        if (command == "seeds")
            return cmdSeeds(parsed, out, err);
        if (command == "figures")
            return cmdFigures(parsed, out, err);
        if (command == "snapshot")
            return cmdSnapshot(parsed, out, err);
        if (command == "serve")
            return cmdServe(parsed, out, err);
        if (command == "profile")
            return cmdProfile(parsed, out, err);
        err << "unknown command '" << command << "'\n"
            << usageText();
        return 2;
    };
    // profile exports its own private instruments (and starts its
    // own exporter); every other command records into the
    // process-global registry/recorder, so the live exporter wraps
    // the dispatch and the requested dumps run afterwards.
    std::optional<MetricsExporter> exporter;
    if (metricsInterval && command != "profile") {
        ExporterOptions options;
        options.interval =
            std::chrono::milliseconds(*metricsInterval);
        options.metrics = &MetricsRegistry::global();
        exporter.emplace(*parsed.option("metrics-out"), options);
    }
    int rc = dispatch();
    bool metricsHandled = false;
    if (exporter) {
        metricsHandled = true;
        if (!exporter->stop() && rc == 0) {
            err << "cannot write metrics to " << exporter->path()
                << ": " << exporter->lastError() << "\n";
            rc = 1;
        }
        exporter.reset();
    }
    if (rc == 0 && command != "profile") {
        rc = writeObsExports(parsed, err, MetricsRegistry::global(),
                             TraceRecorder::global(),
                             metricsHandled);
    }
    return rc;
}

} // namespace cli
} // namespace rememberr
