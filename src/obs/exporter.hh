/**
 * @file
 * Periodic metrics exporter: a background thread that snapshots a
 * MetricsRegistry every interval and maintains an append-only JSONL
 * time series on disk, so a long-lived process (the future `serve`
 * daemon) has a continuous health record instead of a single
 * dump-on-exit.
 *
 * Each line is one self-contained JSON object:
 *
 *   {"seq": 3, "elapsed_ms": 150, "counters": {...}, "gauges":
 *    {...}, "histograms": {...}, "quantiles": {...}}
 *
 * Before each snapshot the exporter samples process resources
 * (obs/proc) into the registry's `proc.*` gauges, so RSS/CPU/context
 * switches ride in the same series. The file is rewritten atomically
 * every tick (all accumulated lines → sibling temp file → rename):
 * an interrupted run can never leave a truncated line, and any
 * moment's on-disk file is a complete, parseable series. Exporter
 * overhead is visible in its own instruments
 * (`obs.exporter.ticks` counter, `obs.exporter.tick_us` quantile).
 *
 * Shutdown is a clean join: stop() (or the destructor) wakes the
 * thread, takes one final snapshot so the series always ends with
 * the process's last state, and joins.
 */

#ifndef REMEMBERR_OBS_EXPORTER_HH
#define REMEMBERR_OBS_EXPORTER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"

namespace rememberr {

/** Exporter configuration. */
struct ExporterOptions
{
    /** Snapshot period. */
    std::chrono::milliseconds interval{1000};
    /** Registry to snapshot (required, must outlive the exporter). */
    MetricsRegistry *metrics = nullptr;
};

class MetricsExporter
{
  public:
    /** Starts the flusher thread immediately. */
    MetricsExporter(std::string path, ExporterOptions options);

    /** Equivalent to stop(). */
    ~MetricsExporter();

    MetricsExporter(const MetricsExporter &) = delete;
    MetricsExporter &operator=(const MetricsExporter &) = delete;

    /**
     * Take a final snapshot, flush, and join the thread. Idempotent;
     * called by the destructor when not called explicitly. Returns
     * false when any write failed (the last error is kept).
     */
    bool stop();

    /** Snapshot + flush right now, without waiting for the tick.
     * Thread-safe; lines stay in seq order. */
    void flushNow();

    /** Snapshots taken so far. */
    std::uint64_t ticks() const;

    /** Empty when every write so far succeeded. */
    std::string lastError() const;

    const std::string &path() const { return path_; }

  private:
    void run();
    /** Append one snapshot line and rewrite the file atomically.
     * Caller must hold mutex_. */
    void snapshotLocked();

    std::string path_;
    ExporterOptions options_;
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    bool stopped_ = false;
    std::vector<std::string> lines_;
    std::uint64_t seq_ = 0;
    std::string lastError_;

    std::thread thread_;
};

} // namespace rememberr

#endif // REMEMBERR_OBS_EXPORTER_HH
