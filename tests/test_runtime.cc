/**
 * @file
 * src/runtime: pool lifecycle, exception propagation, block claiming,
 * idle booking, and the determinism contract — the parallel evaluator must
 * produce bit-identical results to the serial path for every thread
 * count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "e3/experiment.hh"
#include "runtime/parallel_eval.hh"
#include "runtime/thread_pool.hh"

using namespace e3;
using namespace e3::runtime;

TEST(ThreadPool, StartStopRepeatedly)
{
    for (int round = 0; round < 8; ++round) {
        ThreadPool pool(3);
        EXPECT_EQ(pool.workerCount(), 3u);
    }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    const size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(256,
                         [&](size_t i) {
                             if (i == 37)
                                 throw std::runtime_error("lane 37");
                         }),
        std::runtime_error);

    // The pool survives a failed batch and runs the next one.
    std::atomic<size_t> count{0};
    pool.parallelFor(100, [&](size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPool, BlockedIndexDoesNotStallOtherBlocks)
{
    // Blocks are n / (4 * threads) = 2 indices. Index 0 holds its
    // thread until every index outside its block has run, which is
    // only possible if the other thread keeps claiming blocks.
    ThreadPool pool(2);
    constexpr size_t n = 16;
    std::atomic<size_t> others{0};
    bool released = false;
    pool.parallelFor(n, [&](size_t i) {
        if (i == 0) {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (others.load() < n - 2 &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            released = others.load() == n - 2;
        } else if (i >= 2) {
            others.fetch_add(1);
        }
    });
    EXPECT_TRUE(released);
}

TEST(ThreadPool, IdleTimeIsBookedBeforeParallelForReturns)
{
    ThreadPool pool(2);
    auto totalIdle = [&pool] {
        double idle = 0.0;
        for (const WorkerStats &ws : pool.stats())
            idle += ws.idleSeconds;
        return idle;
    };
    pool.parallelFor(2, [](size_t) {}); // warm-up: helper running
    const double before = totalIdle();
    // One thread sleeps on index 0; the other runs index 1 and then
    // has nothing left to claim until the sleeper returns.
    pool.parallelFor(2, [](size_t i) {
        if (i == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
    });
    EXPECT_GE(totalIdle() - before, 0.020);
}

TEST(ThreadPool, OneThreadRunsInlineOnTheCaller)
{
    ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    size_t onCaller = 0;
    pool.parallelFor(10, [&](size_t) {
        onCaller += std::this_thread::get_id() == caller ? 1 : 0;
    });
    EXPECT_EQ(onCaller, 10u);
    EXPECT_EQ(pool.stats()[0].tasksRun, 10u);
}

TEST(ThreadPool, CountersAccountEveryTask)
{
    ThreadPool pool(4);
    pool.parallelFor(500, [](size_t) {});
    uint64_t run = 0;
    for (const WorkerStats &ws : pool.stats())
        run += ws.tasksRun;
    EXPECT_EQ(run, 500u);

    Counters exported;
    pool.exportCounters(exported);
    EXPECT_DOUBLE_EQ(exported.get("runtime.tasks_run"), 500.0);
}

namespace {

/** Evaluate a tiny cartpole population with a fixed linear policy. */
EvalOutcome
evalCartpole(size_t threads)
{
    const EnvSpec &spec = envSpec("cartpole");
    RuntimeConfig cfg;
    cfg.threads = threads;
    ParallelEval runtime(cfg);

    EvalPlan plan;
    plan.spec = &spec;
    plan.lanes = 24;
    plan.episodeSeeds = {11, 22, 33};
    plan.act = [&](size_t lane, const Observation &obs) {
        // Lane-dependent deterministic policy, no shared state.
        const double w = 0.1 * static_cast<double>(lane % 5) - 0.2;
        std::vector<double> outputs = {
            obs[2] * w + obs[0] > 0.0 ? 1.0 : 0.0};
        return decodeAction(spec, outputs);
    };
    return runtime.evaluate(plan);
}

} // namespace

TEST(ParallelEval, BitIdenticalAcrossThreadCounts)
{
    const EvalOutcome serial = evalCartpole(1);
    ASSERT_EQ(serial.fitness.size(), 24u);
    for (size_t threads : {2u, 3u, 4u, 8u}) {
        const EvalOutcome parallel = evalCartpole(threads);
        EXPECT_EQ(serial.fitness, parallel.fitness)
            << threads << " threads";
        EXPECT_EQ(serial.episodeLengths, parallel.episodeLengths)
            << threads << " threads";
    }
}

TEST(ParallelEval, RngAuditIdenticalAcrossThreadCounts)
{
    // The determinism sentinel: every lane stream's (draws, hash)
    // digest is folded in fixed lane order, so any scheduling-
    // dependent RNG consumption shows up as a digest mismatch even
    // when fitness happens to agree.
    const EvalOutcome serial = evalCartpole(1);
    EXPECT_GT(serial.rngAudit.draws, 0u);
    for (size_t threads : {2u, 3u, 4u, 8u}) {
        const EvalOutcome parallel = evalCartpole(threads);
        EXPECT_EQ(serial.rngAudit, parallel.rngAudit)
            << threads << " threads";
    }
}

namespace {

/** One platform run; returns the full generation trace. */
std::vector<GenerationPoint>
traceOf(const std::string &env, size_t threads)
{
    ExperimentOptions opt;
    opt.seed = 3;
    opt.populationSize = 64;
    opt.episodesPerEval = 2;
    opt.maxGenerations = 20;
    opt.threads = threads;
    return runExperiment(env, BackendKind::Cpu, opt).trace;
}

void
expectIdenticalTraces(const std::vector<GenerationPoint> &a,
                      const std::vector<GenerationPoint> &b,
                      const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t g = 0; g < a.size(); ++g) {
        SCOPED_TRACE(what + ", generation " + std::to_string(g));
        // Bit-identical, not approximately equal: the parallel path
        // must replay the exact serial arithmetic.
        EXPECT_EQ(a[g].generation, b[g].generation);
        EXPECT_EQ(a[g].bestFitness, b[g].bestFitness);
        EXPECT_EQ(a[g].meanFitness, b[g].meanFitness);
        EXPECT_EQ(a[g].normalizedBest, b[g].normalizedBest);
        EXPECT_EQ(a[g].cumulativeSeconds, b[g].cumulativeSeconds);
        EXPECT_EQ(a[g].meanNodes, b[g].meanNodes);
        EXPECT_EQ(a[g].meanConnections, b[g].meanConnections);
        EXPECT_EQ(a[g].meanDensity, b[g].meanDensity);
        EXPECT_EQ(a[g].numSpecies, b[g].numSpecies);
    }
}

} // namespace

TEST(RuntimeDeterminism, CartpoleTraceIdenticalAcrossThreadCounts)
{
    const auto serial = traceOf("cartpole", 1);
    ASSERT_FALSE(serial.empty());
    for (size_t threads : {2u, 4u, 8u}) {
        expectIdenticalTraces(
            serial, traceOf("cartpole", threads),
            "cartpole, " + std::to_string(threads) + " threads");
    }
}

TEST(RuntimeDeterminism, LunarLanderTraceIdenticalAcrossThreadCounts)
{
    const auto serial = traceOf("lunar_lander", 1);
    ASSERT_FALSE(serial.empty());
    for (size_t threads : {2u, 4u, 8u}) {
        expectIdenticalTraces(
            serial, traceOf("lunar_lander", threads),
            "lunar_lander, " + std::to_string(threads) + " threads");
    }
}

TEST(RuntimeDeterminism, RngAuditIdenticalAcrossFullRuns)
{
    // End-to-end sentinel: a whole evolve run folds every evaluation's
    // audit into RunResult::rngAudit. Serial and threaded runs must
    // report the same (draws, hash) digest.
    auto auditOf = [](size_t threads) {
        ExperimentOptions opt;
        opt.seed = 3;
        opt.populationSize = 64;
        opt.episodesPerEval = 2;
        opt.maxGenerations = 8;
        opt.threads = threads;
        return runExperiment("cartpole", BackendKind::Cpu, opt).rngAudit;
    };
    const RngAudit serial = auditOf(1);
    EXPECT_GT(serial.draws, 0u);
    for (size_t threads : {2u, 4u, 8u}) {
        EXPECT_EQ(serial, auditOf(threads))
            << threads << " threads";
    }
}
