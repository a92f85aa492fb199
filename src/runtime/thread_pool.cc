#include "runtime/thread_pool.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace e3::runtime {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> elapsed =
        // e3-lint: wall-clock-ok -- idle-time measurement; never feeds RNG
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    e3_assert(threads >= 1, "thread pool needs at least one thread");
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    helpers_.reserve(threads - 1);
    for (size_t i = 1; i < threads; ++i)
        helpers_.emplace_back([this, i] { helperLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    posted_.notify_all();
    for (auto &thread : helpers_)
        thread.join();
}

void
ThreadPool::runBlocks(size_t worker)
{
    // e3-lint: wall-clock-ok -- idle-time measurement; never feeds RNG
    const auto start = std::chrono::steady_clock::now();
    uint64_t ran = 0;
    // Claims and counters need only atomicity: the loop itself is
    // published, and the results joined, under mutex_.
    while (!failed_.load(std::memory_order_relaxed)) {
        const size_t lo = next_.fetch_add(block_, std::memory_order_relaxed);
        if (lo >= n_)
            break;
        const size_t hi = std::min(n_, lo + block_);
        try {
            for (size_t i = lo; i < hi; ++i, ++ran)
                (*body_)(i);
        } catch (...) {
            failed_.store(true, std::memory_order_relaxed);
            MutexLock lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
    Worker &self = *workers_[worker];
    self.tasksRun.fetch_add(ran, std::memory_order_relaxed);
    self.busySeconds = secondsSince(start);
}

void
ThreadPool::helperLoop(size_t index)
{
    obs::traceSetThreadName("worker" + std::to_string(index));
    uint64_t seen = 0;
    for (;;) {
        {
            MutexLock lock(mutex_);
            while (!stop_ && epoch_ == seen)
                posted_.wait(lock);
            if (stop_)
                return;
            seen = epoch_;
        }
        runBlocks(index);
        // Checking out under the lock publishes this helper's results
        // and busySeconds to the caller waiting in parallelFor.
        MutexLock lock(mutex_);
        if (--running_ == 0)
            joined_.notify_one();
    }
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t)> &body)
{
    if (n == 0)
        return;

    // e3-lint: wall-clock-ok -- idle-time measurement; never feeds RNG
    const auto start = std::chrono::steady_clock::now();
    {
        MutexLock lock(mutex_);
        body_ = &body;
        n_ = n;
        block_ = std::max<size_t>(1, n / (4 * workers_.size()));
        next_.store(0, std::memory_order_relaxed);
        failed_.store(false, std::memory_order_relaxed);
        error_ = nullptr;
        running_ = helpers_.size();
        ++epoch_;
    }
    posted_.notify_all();
    runBlocks(0);

    // Every helper checks in, even one that woke to an exhausted
    // counter, so the loop's idle time is booked before returning.
    std::exception_ptr error;
    {
        MutexLock lock(mutex_);
        while (running_ != 0)
            joined_.wait(lock);
        error = error_;
        body_ = nullptr;
    }
    const double span = secondsSince(start);
    for (const auto &worker : workers_) {
        worker->idleSeconds.fetch_add(
            std::max(0.0, span - worker->busySeconds),
            std::memory_order_relaxed);
    }
    if (error)
        std::rethrow_exception(error);
}

std::vector<WorkerStats>
ThreadPool::stats() const
{
    std::vector<WorkerStats> out;
    out.reserve(workers_.size());
    for (const auto &worker : workers_) {
        WorkerStats ws;
        ws.tasksRun = worker->tasksRun.load(std::memory_order_relaxed);
        ws.idleSeconds = worker->idleSeconds.load(std::memory_order_relaxed);
        out.push_back(ws);
    }
    return out;
}

void
ThreadPool::exportCounters(Counters &out,
                           const std::string &prefix) const
{
    double run = 0.0;
    double idle = 0.0;
    const std::vector<WorkerStats> all = stats();
    for (size_t i = 0; i < all.size(); ++i) {
        const std::string base =
            prefix + "worker" + std::to_string(i) + ".";
        out.add(base + "tasks_run",
                static_cast<double>(all[i].tasksRun));
        out.add(base + "idle_seconds", all[i].idleSeconds);
        run += static_cast<double>(all[i].tasksRun);
        idle += all[i].idleSeconds;
    }
    out.add(prefix + "tasks_run", run);
    out.add(prefix + "idle_seconds", idle);
}

} // namespace e3::runtime
