/**
 * @file
 * End-to-end pipeline: the paper's methodology (Figure 1) as one
 * call.
 *
 *   1. acquire     — generate the calibrated corpus and render every
 *                    document to the text format;
 *   2. parse       — read the documents back (exercising the real
 *                    parser) and lint them for "errata in errata";
 *   3. deduplicate — AMD numeric keying + Intel title pipeline;
 *   4. classify    — software-assisted prefilter + four-eyes manual
 *                    annotation;
 *   5. database    — assemble the annotated RemembERR database.
 */

#ifndef REMEMBERR_CORE_PIPELINE_HH
#define REMEMBERR_CORE_PIPELINE_HH

#include <string>
#include <vector>

#include "classify/foureyes.hh"
#include "corpus/generator.hh"
#include "db/database.hh"
#include "dedup/dedup.hh"
#include "document/lint.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace rememberr {

/** Pipeline configuration. */
struct PipelineOptions
{
    GeneratorOptions generator;
    DedupOptions dedup;
    FourEyesOptions foureyes;
    /** Render + reparse every document (slower, exercises the
     * parser); when false the generated documents are used
     * directly. */
    bool roundTripDocuments = true;
    /** Run the linter over every document. */
    bool lint = true;
    /**
     * Worker threads for the parse, dedup and classify stages
     * (0 = all hardware threads, 1 = serial). Propagated into
     * DedupOptions/FourEyesOptions; every stage merges
     * deterministically, so the pipeline result is bit-identical
     * for any thread count.
     */
    std::size_t threads = 1;
    /**
     * Metrics target. Every stage records its duration (gauge
     * `pipeline.stage_us.<stage>`) and flow counters (documents
     * parsed, lint findings, dedup candidates/merges/clusters,
     * annotations, database entries) here. Defaults to the
     * process-global registry; null disables metrics entirely — the
     * remaining cost is one pointer test per instrumentation site.
     */
    MetricsRegistry *metrics = &MetricsRegistry::global();
    /**
     * Trace target. Each stage is wrapped in a ScopedSpan
     * (`pipeline.<stage>`) plus one umbrella `pipeline` span, and
     * dedup records its phase spans (`dedup.*`, see DedupOptions)
     * inside its stage; export with TraceRecorder::toChromeJson().
     * Defaults to the process-global recorder; null disables span
     * recording.
     */
    TraceRecorder *trace = &TraceRecorder::global();
};

/** Everything the pipeline produces. */
struct PipelineResult
{
    /** The corpus; documents are the re-parsed ones when
     * round-tripping. */
    Corpus corpus;
    /** Lint findings per document (empty when lint is off). */
    std::vector<std::vector<LintFinding>> lintFindings;
    DedupResult dedup;
    FourEyesResult annotations;
    /** The assembled database (pipeline path). */
    Database database;
    /** Oracle database straight from ground truth. */
    Database groundTruth;
};

/** Run the full pipeline. Deterministic per options. */
PipelineResult runPipeline(const PipelineOptions &options = {});

/** Render an entry in the proposed Table VII format. */
std::string renderProposedFormat(const DbEntry &entry);

} // namespace rememberr

#endif // REMEMBERR_CORE_PIPELINE_HH
