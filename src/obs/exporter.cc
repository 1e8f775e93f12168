#include "exporter.hh"

#include "obs/proc.hh"
#include "util/fileio.hh"
#include "util/logging.hh"

namespace rememberr {

MetricsExporter::MetricsExporter(std::string path,
                                 ExporterOptions options)
    : path_(std::move(path)), options_(options),
      epoch_(std::chrono::steady_clock::now())
{
    if (!options_.metrics)
        REMEMBERR_PANIC("MetricsExporter requires a registry");
    if (options_.interval.count() <= 0)
        REMEMBERR_PANIC("MetricsExporter interval must be positive");
    thread_ = std::thread([this] { run(); });
}

MetricsExporter::~MetricsExporter() { stop(); }

void
MetricsExporter::run()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        // wait_for with a predicate: spurious wakeups re-check, and
        // a stop requested mid-wait flushes immediately.
        wake_.wait_for(lock, options_.interval,
                       [this] { return stopping_; });
        if (stopping_)
            return; // stop() takes the final snapshot itself
        snapshotLocked();
    }
}

void
MetricsExporter::snapshotLocked()
{
    auto begin = std::chrono::steady_clock::now();
    publishProcGauges(*options_.metrics, sampleProc());

    JsonValue line = options_.metrics->toJson();
    line["seq"] = JsonValue(static_cast<double>(seq_));
    line["elapsed_ms"] = JsonValue(static_cast<double>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            begin - epoch_)
            .count()));
    ++seq_;
    lines_.push_back(line.dump());

    std::string body;
    for (const std::string &entry : lines_) {
        body += entry;
        body += '\n';
    }
    auto written = atomicWriteFile(path_, body);
    if (!written)
        lastError_ = written.error().toString();

    // The exporter's own cost, measured into the series it exports.
    auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - begin)
            .count();
    options_.metrics->counter("obs.exporter.ticks").add(1);
    options_.metrics->quantile("obs.exporter.tick_us")
        .observe(static_cast<double>(elapsed));
}

void
MetricsExporter::flushNow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_)
        return;
    snapshotLocked();
}

bool
MetricsExporter::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_)
            return lastError_.empty();
        stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
    std::lock_guard<std::mutex> lock(mutex_);
    // Final snapshot: the series always ends with the process's
    // last state, even when the run was shorter than one interval.
    snapshotLocked();
    stopped_ = true;
    return lastError_.empty();
}

std::uint64_t
MetricsExporter::ticks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return seq_;
}

std::string
MetricsExporter::lastError() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lastError_;
}

} // namespace rememberr
