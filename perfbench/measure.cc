#include "measure.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

#include "corpus/generator.hh"

namespace perfbench {

std::size_t
threadBudget()
{
    unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
}

int
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return -1;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
    return -1;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec now{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return double(now.tv_sec) + double(now.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
Samples::quantile(double q) const
{
    if (values_.empty())
        return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    double rank = q * double(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - double(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double
Samples::mean() const
{
    if (values_.empty())
        return 0;
    double sum = 0;
    for (double value : values_)
        sum += value;
    return sum / double(values_.size());
}

void
Samples::append(const Samples &other)
{
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
}

void
Fnv::add(std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        state ^= (value >> (byte * 8)) & 0xff;
        state *= 1099511628211ULL;
    }
}

std::string
hex64(std::uint64_t value)
{
    char buffer[19];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

std::size_t
SpanRecorder::open(const char *name)
{
    Record record;
    record.name = name;
    record.parent =
        stack_.empty() ? -1 : static_cast<long>(stack_.back());
    record.begin = wallSeconds();
    records_.push_back(std::move(record));
    stack_.push_back(records_.size() - 1);
    return records_.size() - 1;
}

void
SpanRecorder::close(std::size_t index)
{
    records_[index].end = wallSeconds();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

Samples
SpanRecorder::durations(std::string_view name) const
{
    Samples out;
    for (const Record &record : records_) {
        if (record.name == name)
            out.add(record.end - record.begin);
    }
    return out;
}

Samples
SpanRecorder::childSums(std::string_view parent,
                        std::string_view child) const
{
    std::map<long, double> sums;
    for (const Record &record : records_) {
        if (record.parent >= 0 && record.name == child &&
            records_[static_cast<std::size_t>(record.parent)].name ==
                parent)
            sums[record.parent] += record.end - record.begin;
    }
    Samples out;
    for (const auto &entry : sums)
        out.add(entry.second);
    return out;
}

double
SpanRecorder::selfShare(std::string_view name) const
{
    double total = 0;
    double covered = 0;
    for (const Record &record : records_) {
        if (record.name == name)
            total += record.end - record.begin;
        else if (record.parent >= 0 &&
                 records_[static_cast<std::size_t>(record.parent)]
                         .name == name)
            covered += record.end - record.begin;
    }
    return total > 0 ? (total - covered) / total : 0;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::size_t samples)
{
    if (!std::isfinite(value))
        value = 0;
    metrics_[name] = Entry{value, unit};
    info(name, value, unit, samples);
}

void
Report::info(const std::string &name, double value,
             const std::string &unit, std::size_t samples)
{
    std::printf("  %-32s %14.6g %-6s (n=%zu)\n", name.c_str(), value,
                unit.c_str(), samples);
}

void
Report::fail(const std::string &why, std::uint64_t count)
{
    failed_ += count;
    std::printf("FAILED (%llu op%s): %s\n",
                static_cast<unsigned long long>(count),
                count == 1 ? "" : "s", why.c_str());
}

void
Report::check(bool ok, const std::string &what)
{
    attempted_ += 1;
    if (ok)
        std::printf("check ok: %s\n", what.c_str());
    else
        fail("check: " + what);
}

int
Report::finish() const
{
    std::uint64_t attempted =
        std::max<std::uint64_t>({attempted_, failed_, 1});
    std::printf("result: %llu attempted, %llu failed, error_rate "
                "%.6g\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed_),
                double(failed_) / double(attempted));
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, entry] : metrics_) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", entry.value);
        json += first ? "" : ", ";
        json += "\"" + name + "\": {\"value\": " + value +
                ", \"unit\": \"" + entry.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct() ? 0 : 1;
}

std::uint64_t
generatorSeed(std::uint64_t benchSeed)
{
    std::uint64_t seed = rememberr::GeneratorOptions{}.seed;
    // SplitMix64-style mixing keeps neighbouring benchmark seeds far
    // apart; seed 0 is the calibrated default corpus.
    if (benchSeed != 0) {
        std::uint64_t z = benchSeed * 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        seed ^= z ^ (z >> 31);
    }
    return seed;
}

} // namespace perfbench
