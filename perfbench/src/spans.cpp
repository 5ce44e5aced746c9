#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "telemetry/telemetry.hpp"

namespace tcmbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

std::int64_t
SpanRecorder::sinceOrigin(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
}

int
SpanRecorder::open(const std::string &name, int parent, int job)
{
    const std::int64_t start = sinceOrigin(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.job = job;
    s.name = name;
    s.startNs = start;
    s.endNs = start;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

double
SpanRecorder::close(int id)
{
    const std::int64_t end = sinceOrigin(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    Span &s = spans_.at(static_cast<std::size_t>(id));
    s.endNs = end;
    s.busyNs = end - s.startNs;
    return s.seconds();
}

int
SpanRecorder::addAggregate(const std::string &name, int parent,
                           Clock::time_point start, Clock::time_point end,
                           std::uint64_t calls, std::int64_t busyNs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.name = name;
    s.startNs = sinceOrigin(start);
    s.endNs = sinceOrigin(end);
    s.calls = calls;
    s.busyNs = busyNs;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<Span>
SpanRecorder::named(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s);
    return out;
}

void
SpanRecorder::writeJsonl(const std::string &path,
                         const std::string &header) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "%s\n", header.c_str());
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_)
        std::fprintf(f,
                     "{\"id\":%d,\"parent\":%d,\"job\":%d,\"name\":%s,"
                     "\"start_ns\":%lld,\"end_ns\":%lld,\"calls\":%llu,"
                     "\"busy_ns\":%lld}\n",
                     s.id, s.parent, s.job,
                     tcm::telemetry::jsonString(s.name).c_str(),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<unsigned long long>(s.calls),
                     static_cast<long long>(s.busyNs));
    const bool bad = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || bad)
        throw std::runtime_error("write failed for " + path);
}

double
clockOverheadNs()
{
    // Median of several batches of back-to-back clock pairs: the fixed
    // cost a timed region adds, subtracted from per-call timings.
    constexpr int kPairs = 20000;
    std::vector<double> batches;
    for (int b = 0; b < 7; ++b) {
        std::int64_t sum = 0;
        for (int i = 0; i < kPairs; ++i) {
            const auto a = Clock::now();
            const auto z = Clock::now();
            sum += std::chrono::duration_cast<std::chrono::nanoseconds>(z - a)
                       .count();
        }
        batches.push_back(static_cast<double>(sum) / kPairs);
    }
    std::sort(batches.begin(), batches.end());
    return batches[batches.size() / 2];
}

} // namespace tcmbench
