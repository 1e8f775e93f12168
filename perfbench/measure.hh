/**
 * @file
 * Measurement plumbing shared by the benchmark workloads: clocks,
 * sample statistics, the span recorder of the traced run, the
 * run report and the run options.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Parsed command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory inside the checkout (snapshot files). */
    std::string workdir = ".";
};

/** Hardware threads the process may use (never less than 1). */
std::size_t threadBudget();

/**
 * Pin the calling thread, and so every thread it starts afterwards,
 * to the last CPU it may run on. Returns that CPU, or -1 when the
 * affinity cannot be read or set (the thread then stays unpinned).
 */
int pinToOneCpu();

/** Monotonic wall clock in seconds. */
double wallSeconds();
/** CPU time of the whole process (all threads) in seconds. */
double processCpuSeconds();
/** Peak resident set size of the process in MiB. */
double peakRssMb();

/** A set of measurements of one quantity. */
class Samples
{
  public:
    void add(double value) { values_.push_back(value); }
    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    /** Linear-interpolated quantile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    double mean() const;
    void append(const Samples &other);
    const std::vector<double> &values() const { return values_; }

  private:
    std::vector<double> values_;
};

/** FNV-1a 64 over integers, for equivalence hashes. */
struct Fnv
{
    std::uint64_t state = 1469598103934665603ULL;

    void add(std::uint64_t value);
};

std::string hex64(std::uint64_t value);

/**
 * Spans of the traced run: name, start, end and the span that was
 * open when it started. Single-threaded: the traced run opens spans
 * only on the calling thread of the layer it times. Kept in memory;
 * summarized when the run ends.
 */
class SpanRecorder
{
  public:
    /** Open a span named by a string literal; returns its index. */
    std::size_t open(const char *name);
    void close(std::size_t index);

    /** Durations (seconds) of every span with this name. */
    Samples durations(std::string_view name) const;
    /** Per `parent` span, the summed durations of its `child`
     * spans; parents without such a child are skipped. */
    Samples childSums(std::string_view parent,
                      std::string_view child) const;
    /** Share of the `name` spans' total duration that their child
     * spans do not cover (the unexplained self time). */
    double selfShare(std::string_view name) const;

  private:
    struct Record
    {
        const char *name = "";
        double begin = 0;
        double end = 0;
        /** Index of the enclosing span, -1 for a root. */
        long parent = -1;
    };

    std::vector<Record> records_;
    std::vector<std::size_t> stack_;
};

/** RAII span; a null recorder makes it free. */
class Span
{
  public:
    Span(SpanRecorder *recorder, const char *name)
        : recorder_(recorder),
          index_(recorder ? recorder->open(name) : 0)
    {
    }
    ~Span()
    {
        if (recorder_)
            recorder_->close(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder *recorder_;
    std::size_t index_;
};

/**
 * The run's outcome. Human-readable lines go to stdout as the run
 * progresses; `finish` prints the one-line JSON result last.
 */
class Report
{
  public:
    /** Record a metric for the final JSON line and print it. */
    void metric(const std::string &name, double value,
                const std::string &unit, std::size_t samples);
    /** Print an informational figure (not part of the JSON). */
    void info(const std::string &name, double value,
              const std::string &unit, std::size_t samples);

    /** Count operations; a failed one also prints why. */
    void attempted(std::uint64_t count) { attempted_ += count; }
    void fail(const std::string &why, std::uint64_t count = 1);
    /** A gate that must hold; failing it counts one failed op. */
    void check(bool ok, const std::string &what);

    bool correct() const { return failed_ == 0; }

    /** Print the JSON line; returns the process exit code. */
    int finish() const;

  private:
    struct Entry
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Entry> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Seed of the corpus generator for a benchmark seed (0 = default). */
std::uint64_t generatorSeed(std::uint64_t benchSeed);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
