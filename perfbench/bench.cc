#include "bench.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
tailQuantile(size_t samples)
{
    if (samples < 20)
        return 0.5;
    const double q = 1.0 - 10.0 / static_cast<double>(samples);
    return std::min(q, 0.99);
}

double
peakRssMb()
{
    // VmHWM belongs to this process image; getrusage's ru_maxrss
    // survives exec and would report the launcher's peak instead.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

int
SpanRecorder::open(const char *name, int generation)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.generation = generation;
    if (generation < 0 && span.parent >= 0)
        span.generation = spans_[span.parent].generation;
    span.startNs = nowNs();
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
}

void
SpanRecorder::close(int index)
{
    spans_[index].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

double
SpanRecorder::totalSeconds(const std::string &name) const
{
    int64_t ns = 0;
    for (const Span &s : spans_) {
        if (s.name == name)
            ns += s.endNs - s.startNs;
    }
    return static_cast<double>(ns) * 1e-9;
}

namespace {

/** (total, uncovered) nanoseconds of every span named @p parentName. */
std::vector<std::pair<int64_t, int64_t>>
coverage(const std::vector<SpanRecorder::Span> &spans,
         const std::string &parentName)
{
    std::map<int, int64_t> childNs;
    for (const SpanRecorder::Span &s : spans) {
        if (s.parent >= 0)
            childNs[s.parent] += s.endNs - s.startNs;
    }
    std::vector<std::pair<int64_t, int64_t>> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecorder::Span &s = spans[i];
        if (s.name != parentName)
            continue;
        const int64_t total = s.endNs - s.startNs;
        out.emplace_back(total, total - childNs[static_cast<int>(i)]);
    }
    return out;
}

} // namespace

double
SpanRecorder::maxUncoveredShare(const std::string &parentName) const
{
    double worst = 0.0;
    for (const auto &[total, uncovered] : coverage(spans_, parentName)) {
        if (total > 0)
            worst = std::max(worst, static_cast<double>(uncovered) /
                                        static_cast<double>(total));
    }
    return worst;
}

double
SpanRecorder::uncoveredShare(const std::string &parentName) const
{
    int64_t total = 0;
    int64_t uncovered = 0;
    for (const auto &[t, u] : coverage(spans_, parentName)) {
        total += t;
        uncovered += u;
    }
    return total > 0 ? static_cast<double>(uncovered) /
                           static_cast<double>(total)
                     : 0.0;
}

bool
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (const Span &s : spans_) {
        out << "{\"name\": \"" << s.name << "\", \"start_ns\": "
            << s.startNs << ", \"end_ns\": " << s.endNs
            << ", \"parent\": " << s.parent
            << ", \"generation\": " << s.generation << "}\n";
    }
    return static_cast<bool>(out);
}

std::string
Metrics::json() const
{
    std::ostringstream oss;
    oss << "{";
    bool first = true;
    for (const std::string &name : order_) {
        const auto &[value, unit] = values_.at(name);
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        oss << (first ? "" : ", ") << "\"" << name
            << "\": {\"value\": " << num << ", \"unit\": \"" << unit
            << "\"}";
        first = false;
    }
    oss << "}";
    return oss.str();
}

std::string
Metrics::text() const
{
    std::ostringstream oss;
    for (const std::string &name : order_) {
        const auto &[value, unit] = values_.at(name);
        char line[160];
        std::snprintf(line, sizeof line, "  %-32s %14.6g %s\n",
                      name.c_str(), value, unit.c_str());
        oss << line;
    }
    return oss.str();
}

} // namespace perfbench
