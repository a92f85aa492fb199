/**
 * @file
 * Fixed-size pool that runs one parallel loop at a time.
 *
 * The evaluate phase is embarrassingly parallel — one episode per
 * individual, each terminating on its own schedule (paper Sec. V-B) —
 * but episode lengths vary wildly (the irregularity of Fig. 4), so a
 * static partition of lanes leaves threads idle behind the longest
 * episodes. parallelFor therefore balances dynamically: the caller and
 * the helper threads claim contiguous blocks of indices from one
 * shared atomic counter until none is left. Claiming only moves
 * *where* an index executes; indices write disjoint results, so
 * outcomes are schedule-independent.
 *
 * Per-thread counters (indices run, idle seconds) feed the utilization
 * accounting in common/stats — the software analogue of the paper's
 * U(PE)/U(PU) hardware counters.
 */

#ifndef E3_RUNTIME_THREAD_POOL_HH
#define E3_RUNTIME_THREAD_POOL_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "common/thread_annotations.hh"

namespace e3::runtime {

/** Execution counters of one pool thread (thread 0 is the caller). */
struct WorkerStats
{
    uint64_t tasksRun = 0; ///< loop indices this thread ran
    /** Time inside a parallelFor with nothing left to claim. */
    double idleSeconds = 0.0;
};

/** The caller plus threads-1 helpers, sharing one loop at a time. */
class ThreadPool
{
  public:
    /**
     * A pool of @p threads (at least one): the calling thread of each
     * parallelFor plus threads-1 helper threads spawned here. One
     * thread runs every loop inline on the caller.
     */
    explicit ThreadPool(size_t threads);

    /** Stops and joins the helpers. @pre no parallelFor in flight. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t workerCount() const { return workers_.size(); }

    /**
     * Deterministic fan-out/fan-in: run body(i) for every i in [0, n)
     * and return once every thread has left the loop. The caller and
     * the helpers claim contiguous blocks of about n / (4 * threads)
     * indices until none is left. The caller must ensure iterations
     * write disjoint state; then the result is identical for every
     * thread count and schedule. The first exception thrown by an
     * iteration is rethrown here (remaining iterations may be
     * skipped). One loop at a time: not reentrant, and not to be
     * called from two threads at once.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &body);

    /** Snapshot of every thread's counters. */
    std::vector<WorkerStats> stats() const;

    /**
     * Export thread counters into a stat group:
     * `<prefix>worker<i>.tasks_run|idle_seconds` plus
     * `<prefix>tasks_run|idle_seconds` totals.
     */
    void exportCounters(Counters &out,
                        const std::string &prefix = "runtime.") const;

  private:
    struct Worker
    {
        std::atomic<uint64_t> tasksRun{0};
        std::atomic<double> idleSeconds{0.0};
        /** Seconds spent claiming and running in the current loop. */
        double busySeconds = 0.0;
    };

    void helperLoop(size_t index);
    /** Claim and run blocks of the current loop until none is left. */
    void runBlocks(size_t worker);

    std::vector<std::unique_ptr<Worker>> workers_;

    /** The current loop; set under mutex_ before each epoch bump. */
    const std::function<void(size_t)> *body_ = nullptr;
    size_t n_ = 0;
    size_t block_ = 1;
    std::atomic<size_t> next_{0}; ///< first unclaimed index
    std::atomic<bool> failed_{false};

    Mutex mutex_;
    CondVar posted_; ///< helpers wait for a new epoch
    CondVar joined_; ///< the caller waits for running_ == 0
    uint64_t epoch_ E3_GUARDED_BY(mutex_) = 0;
    size_t running_ E3_GUARDED_BY(mutex_) = 0; ///< helpers still in
    bool stop_ E3_GUARDED_BY(mutex_) = false;
    std::exception_ptr error_ E3_GUARDED_BY(mutex_);

    std::vector<std::thread> helpers_; ///< last: they use all the above
};

} // namespace e3::runtime

#endif // E3_RUNTIME_THREAD_POOL_HH
