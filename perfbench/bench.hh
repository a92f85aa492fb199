/**
 * @file
 * Shared helpers of the perfbench driver: clocks, order statistics,
 * the in-memory span recorder of traced runs, digests for the
 * correctness gates, and the metric sink that becomes the final JSON
 * line.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile q in [0, 1]; 0 for an empty set. */
double quantile(std::vector<double> values, double q);

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/**
 * The highest percentile that still has at least ten samples beyond
 * it (capped at p99), as a fraction: 0.99 for >= 1000 samples, lower
 * for smaller sets, 0.5 when there are fewer than 20.
 */
double tailQuantile(size_t samples);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** FNV-1a over 64-bit words; doubles fold in by bit pattern. */
struct Digest
{
    uint64_t hash = 14695981039346656037ULL;

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ULL;
        }
    }

    void
    mix(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
    }
};

/** Stateless 64-bit mixer (splitmix64 finaliser). */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/**
 * In-memory span recorder of a traced run. Single-threaded: spans are
 * opened and closed on the driving thread only, nested by a stack.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1;     ///< index of the enclosing span, -1 at top
        int generation = -1; ///< generation id, -1 outside the loop
    };

    /** RAII span; records nothing when the recorder is null. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, const char *name, int generation = -1)
            : rec_(rec)
        {
            if (rec_)
                index_ = rec_->open(name, generation);
        }
        ~Scope()
        {
            if (rec_)
                rec_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        int index_ = -1;
    };

    int open(const char *name, int generation);
    void close(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration in seconds of every span named @p name. */
    double totalSeconds(const std::string &name) const;

    /**
     * Largest share of any span named @p parentName not covered by its
     * direct children (0 when there is none).
     */
    double maxUncoveredShare(const std::string &parentName) const;

    /** Same, summed over every such span: uncovered ÷ total. */
    double uncoveredShare(const std::string &parentName) const;

    /** Write every span as one JSON object per line. */
    bool writeJsonl(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Ordered metric sink for the result line. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        if (!values_.count(name))
            order_.push_back(name);
        values_[name] = {value, unit};
    }

    /** `"metrics": {...}` body with every value at full precision. */
    std::string json() const;

    /** Human-readable `name value unit` lines. */
    std::string text() const;

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** Correctness bookkeeping shared by every workload. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> gateFailures;

    bool correct() const { return gateFailures.empty(); }

    void gateFail(const std::string &what) { gateFailures.push_back(what); }
};

/** Parsed command line of the driver binary. */
struct Args
{
    std::string mode;      ///< "run" or "fixtures"
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;    ///< tiny sizes; shape and gates only
    std::string workDir;   ///< scratch space inside the build tree
    std::string goldenPath;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
