/**
 * @file
 * Hierarchical per-generation metrics registry.
 *
 * One registry per run unifies everything the platform already counts
 * — modeled phase seconds (common/timing), runtime pool counters
 * (common/stats), fitness/species statistics — under dot-scoped names
 * ("modeled.evaluate_seconds", "runtime.idle_seconds", ...), and cuts
 * a snapshot row per generation. Counter metrics snapshot the *delta*
 * since the previous snapshot (so each generation's row is isolated);
 * gauge metrics snapshot their current value. Export as wide CSV (one
 * row per generation, one column per metric — the fig9-style
 * per-generation breakdown) or JSON.
 */

#ifndef E3_OBS_METRICS_HH
#define E3_OBS_METRICS_HH

#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/thread_annotations.hh"

namespace e3::obs {

/** Thread-safe, copyable registry of named counters and gauges. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &other);
    MetricsRegistry &operator=(const MetricsRegistry &other);

    /** Add @p delta to the named counter (created at zero). */
    void add(const std::string &name, double delta);

    /**
     * Set a counter's *cumulative* value directly — for sources that
     * already accumulate across generations (PhaseTimer seconds, pool
     * counters). Snapshots still record the per-generation delta.
     */
    void setCounter(const std::string &name, double cumulative);

    /** Set a gauge; snapshots record the value as-is. */
    void setGauge(const std::string &name, double value);

    /**
     * Import a common/stats counter group under `scope.<name>` as
     * cumulative counters. An empty scope imports the names as-is
     * (for groups that already carry their own prefix).
     */
    void importCounters(const std::string &scope, const Counters &src);

    /** Current cumulative/gauge value; 0 if never touched. */
    double value(const std::string &name) const;

    /** Close the current generation: record one snapshot row. */
    void snapshotGeneration(int generation);

    /** Metric names in creation order. */
    std::vector<std::string> names() const;

    size_t metricCount() const;
    size_t snapshotCount() const;

    /** Generation label of snapshot row @p row. */
    int snapshotGenerationAt(size_t row) const;

    /**
     * Value of @p name in snapshot row @p row; 0 if the metric did not
     * exist yet when the row was cut.
     */
    double snapshotValue(size_t row, const std::string &name) const;

    /** Wide CSV: header `generation,<metric...>`, one row per snapshot. */
    std::string toCsv() const;

    /** JSON document: metric names + one object per snapshot. */
    std::string toJson() const;

    /** toCsv()/toJson() to a file; warn()s and returns false on error. */
    bool writeCsv(const std::string &path) const;
    bool writeJson(const std::string &path) const;

    /** Drop all metrics and snapshots. */
    void reset();

  private:
    struct Metric
    {
        std::string name;
        bool gauge = false;
        double current = 0.0;
        double lastSnapshot = 0.0; ///< counter value at the last row
    };

    struct Row
    {
        int generation = 0;
        /** Aligned to metrics_ order; may be shorter than metrics_. */
        std::vector<double> values;
    };

    size_t indexOf(const std::string &name, bool gauge)
        E3_REQUIRES(mutex_);
    size_t findIndex(const std::string &name) const
        E3_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::vector<Metric> metrics_ E3_GUARDED_BY(mutex_);
    std::vector<Row> rows_ E3_GUARDED_BY(mutex_);
};

/**
 * Merge several labeled registries into one CSV with a leading label
 * column (used by the suite benches: one registry per env/backend).
 * Columns are the union of all metric names, in first-seen order.
 */
std::string combinedMetricsCsv(
    const std::vector<std::pair<std::string, const MetricsRegistry *>>
        &labeled);

} // namespace e3::obs

#endif // E3_OBS_METRICS_HH
