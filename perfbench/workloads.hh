/**
 * @file
 * The benchmark's workloads and the traced layer probes they share.
 *
 *   build       serial pipeline + ground-truth snapshot serialize
 *   query-hot   serve a Zipf mix of ~45 query shapes (cache hits)
 *   query-cold  the same op mix with fresh filter values (misses)
 *
 * Every run drives the library from outside, through public calls
 * only. An untraced run reports the end-to-end metrics; a traced run
 * (`--trace 1`) wraps each public call in a span and reports the
 * per-layer metrics instead.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "db/database.hh"
#include "measure.hh"

namespace perfbench {

/** Query traffic shape. */
enum class Mix { Hot, Cold };

/** Run an untraced workload, reporting the end-to-end metrics. */
void runBuild(const Options &options, Report &report);
void runQuery(const Options &options, Mix mix, Report &report);

/**
 * Traced pipeline probe: composes the pipeline from its stage calls
 * with a span around each, checks that it produces the same snapshot
 * hashes as runPipeline, and reports the build layers' per-layer
 * metrics. Alternates with untraced runPipeline iterations so the
 * tracing overhead is measured too. Spends about `seconds` (at least
 * `minIterations` of each kind) and returns the ground-truth database.
 */
rememberr::Database traceBuildLayers(const Options &options,
                                     double seconds, int minIterations,
                                     Report &report);

/**
 * Traced serve probe: replays the mix in-process through the calls
 * the daemon makes per request (JSON parse, QuerySpec, cache,
 * execute, render) with a span around each, then measures the
 * daemon over the socket for the transport share, the cache regime
 * and the generator lag. Spends about `seconds`.
 */
void traceQueryLayers(const Options &options,
                      const rememberr::Database &db, Mix mix,
                      double seconds, Report &report);

/**
 * Time `SnapshotView::open` (hash verified) plus `database()` on
 * `path` for about `seconds` (at least 20 repetitions) and return
 * the per-repetition times; the first result must equal `expected`.
 * With `spans`, each call also gets a span (`snap.open`,
 * `snap.materialize`).
 */
Samples measureColdStart(const std::string &path,
                         const rememberr::Database &expected,
                         double seconds, SpanRecorder *spans,
                         Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
