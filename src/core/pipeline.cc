#include "pipeline.hh"

#include <chrono>

#include "document/format.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace rememberr {

namespace {

/**
 * Per-stage observability: one trace span plus a duration gauge
 * (`pipeline.stage_us.<stage>`). The gauge is measured with its own
 * monotonic clock so metrics work when tracing is disabled.
 */
class StageScope
{
  public:
    StageScope(const PipelineOptions &options, const char *stage)
        : metrics_(options.metrics), stage_(stage),
          span_(options.trace, std::string("pipeline.") + stage),
          begin_(std::chrono::steady_clock::now())
    {
    }

    ~StageScope()
    {
        auto elapsed =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - begin_)
                .count();
        if (metrics_) {
            metrics_
                ->gauge(std::string("pipeline.stage_us.") + stage_)
                .set(static_cast<std::int64_t>(elapsed));
            // Quantile form of the same timing: one run observes one
            // sample per stage; repeated runs (and the exporter's
            // periodic snapshots) turn it into a latency
            // distribution.
            metrics_
                ->quantile(std::string("pipeline.stage_lat_us.") +
                           stage_)
                .observe(static_cast<double>(elapsed));
        }
        REMEMBERR_DEBUG("pipeline: stage ", stage_, " took ",
                        elapsed, " us");
    }

  private:
    MetricsRegistry *metrics_;
    const char *stage_;
    ScopedSpan span_;
    std::chrono::steady_clock::time_point begin_;
};

} // namespace

PipelineResult
runPipeline(const PipelineOptions &options)
{
    PipelineResult result;
    MetricsRegistry *metrics = options.metrics;
    ScopedSpan pipelineSpan(options.trace, "pipeline");
    auto pipelineBegin = std::chrono::steady_clock::now();

    // 1. Acquire.
    {
        StageScope stage(options, "acquire");
        result.corpus =
            CorpusGenerator(options.generator).generate();
        if (metrics) {
            std::size_t errata = 0;
            for (const ErrataDocument &doc :
                 result.corpus.documents)
                errata += doc.errata.size();
            metrics->counter("pipeline.acquire.documents")
                .add(result.corpus.documents.size());
            metrics->counter("pipeline.acquire.errata").add(errata);
        }
    }
    std::vector<ErrataDocument> &documents =
        result.corpus.documents;

    // 2. Parse (round-trip through the text format). Documents
    // render and re-parse independently; failures are collected per
    // slot and reported after the join so the panic message does not
    // depend on thread scheduling.
    if (options.roundTripDocuments) {
        StageScope stage(options, "parse");
        Counter *parsed =
            metrics ? &metrics->counter("pipeline.parse.documents")
                    : nullptr;
        std::vector<std::string> parseErrors(documents.size());
        parallelFor(documents.size(), options.threads,
                    [&](std::size_t d) {
                        auto reparsed = parseDocument(
                            renderDocument(documents[d]));
                        if (!reparsed) {
                            parseErrors[d] =
                                reparsed.error().toString();
                            return;
                        }
                        // The text format does not carry the origin;
                        // keep the generator's pseudo-path.
                        reparsed.value().sourcePath =
                            std::move(documents[d].sourcePath);
                        documents[d] = std::move(reparsed.value());
                        if (parsed)
                            parsed->add();
                    });
        for (std::size_t d = 0; d < documents.size(); ++d) {
            if (!parseErrors[d].empty()) {
                REMEMBERR_PANIC("pipeline: document ",
                                documents[d].design.name,
                                " failed to re-parse: ",
                                parseErrors[d]);
            }
        }
    }

    if (options.lint) {
        StageScope stage(options, "lint");
        result.lintFindings.resize(documents.size());
        parallelFor(documents.size(), options.threads,
                    [&](std::size_t d) {
                        result.lintFindings[d] =
                            lintDocument(documents[d]);
                    });
        if (metrics) {
            std::size_t findings = 0;
            for (const auto &perDoc : result.lintFindings)
                findings += perDoc.size();
            metrics->counter("pipeline.lint.findings")
                .add(findings);
        }
    }

    // 3. Deduplicate.
    {
        StageScope stage(options, "dedup");
        DedupOptions dedupOptions = options.dedup;
        dedupOptions.threads = options.threads;
        dedupOptions.metrics = metrics;
        dedupOptions.trace = options.trace;
        result.dedup = deduplicate(documents, dedupOptions);
        if (metrics) {
            const DedupResult &dedup = result.dedup;
            metrics->counter("pipeline.dedup.candidate_pairs")
                .add(dedup.candidatePairsConsidered);
            metrics->counter("pipeline.dedup.exact_merges")
                .add(dedup.exactTitleMerges);
            metrics->counter("pipeline.dedup.reviewed_pairs")
                .add(dedup.reviewedPairs);
            metrics->counter("pipeline.dedup.review_merges")
                .add(dedup.reviewConfirmedMerges);
            metrics->counter("pipeline.dedup.numeric_merges")
                .add(dedup.numericIdMerges);
            metrics->counter("pipeline.dedup.clusters")
                .add(dedup.clusters.size());
        }
    }

    // 4. Classify.
    {
        StageScope stage(options, "classify");
        FourEyesOptions foureyesOptions = options.foureyes;
        foureyesOptions.threads = options.threads;
        foureyesOptions.metrics = metrics;
        result.annotations =
            runFourEyes(result.corpus, foureyesOptions);
        if (metrics) {
            metrics->counter("pipeline.classify.annotations")
                .add(result.annotations.annotations.size());
            metrics->counter("pipeline.classify.manual_decisions")
                .add(result.annotations
                         .manualDecisionsPerAnnotator);
        }
    }

    // 5. Assemble.
    {
        StageScope stage(options, "assemble");
        result.database = Database::build(
            result.corpus, result.dedup, result.annotations);
        result.groundTruth =
            Database::buildFromGroundTruth(result.corpus);
        if (metrics) {
            metrics->counter("pipeline.assemble.entries")
                .add(result.database.entries().size());
            metrics
                ->counter(
                    "pipeline.assemble.ground_truth_entries")
                .add(result.groundTruth.entries().size());
        }
    }

    if (metrics) {
        auto total =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - pipelineBegin)
                .count();
        metrics->gauge("pipeline.total_us")
            .set(static_cast<std::int64_t>(total));
        metrics->quantile("pipeline.total_lat_us")
            .observe(static_cast<double>(total));
        metrics->counter("pipeline.runs").add(1);
    }
    return result;
}

std::string
renderProposedFormat(const DbEntry &entry)
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    auto codes = [&](const CategorySet &set) {
        std::string out;
        for (CategoryId id : set.toVector()) {
            if (!out.empty())
                out += ", ";
            out += taxonomy.categoryById(id).code;
        }
        return out.empty() ? std::string("(none)") : out;
    };

    std::string out;
    out += "ID: " + std::to_string(entry.key) + "\n";
    out += "Title: " + entry.title + "\n";
    out += "Triggers:\n";
    out += "  Abstract: " + codes(entry.triggers) + "\n";
    out += "  Concrete: " + entry.description + "\n";
    out += "Contexts:\n";
    out += "  Abstract: " + codes(entry.contexts) + "\n";
    out += "Effects:\n";
    out += "  Abstract: " + codes(entry.effects) + "\n";
    out += "Root cause: ";
    out += entry.rootCause.empty()
               ? "(not published by the vendor)"
               : entry.rootCause;
    out += '\n';
    out += "Workaround: " + entry.workaroundText + "\n";
    out += "Status: " +
           std::string(fixStatusName(entry.status)) + "\n";
    return out;
}

} // namespace rememberr
