/**
 * @file
 * Parallel population evaluation, bit-identical at every thread count.
 *
 * One evaluation "lane" per individual: the lane rolls its episodes to
 * completion on whichever pool thread claims it. Determinism comes from
 * stream isolation, not scheduling: every lane's RNG stream is derived
 * up front by the VectorEnv constructor (a pure function of the
 * episode seed and the lane index — and the lane order is the genome
 * key order, so effectively of (seed, generation, genome key)), lanes
 * never share mutable state, and results land in per-lane slots. Any
 * thread count, including one (every lane on the caller), produces
 * the same bits.
 */

#ifndef E3_RUNTIME_PARALLEL_EVAL_HH
#define E3_RUNTIME_PARALLEL_EVAL_HH

#include <functional>
#include <memory>
#include <vector>

#include "env/vector_env.hh"
#include "runtime/thread_pool.hh"

namespace e3::runtime {

/** Execution knobs of the evaluation runtime. */
struct RuntimeConfig
{
    /** Pool threads; <= 1 runs every lane on the calling thread. */
    size_t threads = 1;
};

/** One population evaluation request. */
struct EvalPlan
{
    const EnvSpec *spec = nullptr; ///< environment for every lane
    size_t lanes = 0;              ///< population size
    /** One master seed per episode round (VectorEnv seeding). */
    std::vector<uint64_t> episodeSeeds;

    /**
     * Policy of lane i: map an observation to an env action. Called
     * concurrently for distinct lanes; must not share mutable state
     * across lanes.
     */
    std::function<Action(size_t lane, const Observation &obs)> act;
};

/** Per-lane results of one evaluation. */
struct EvalOutcome
{
    /** Mean episode fitness per lane (over all episode rounds). */
    std::vector<double> fitness;
    /** episodeLengths[e][i] = env steps of lane i in episode round e. */
    std::vector<std::vector<int>> episodeLengths;
    /**
     * Determinism-sentinel digest: every lane's RNG stream digest
     * folded in (episode round, lane) order. A pure function of
     * (seed, generation, genome key) when evaluation is correct;
     * any scheduling-dependent draw diverges it immediately.
     */
    RngAudit rngAudit;
};

/** Evaluation runtime: owns the worker pool and utilization counters. */
class ParallelEval
{
  public:
    explicit ParallelEval(const RuntimeConfig &cfg);

    /** Evaluate every lane; blocks until fan-in. */
    EvalOutcome evaluate(const EvalPlan &plan);

    size_t threads() const { return cfg_.threads; }

    /** Pool utilization counters accumulated so far. */
    Counters counters() const;

    /**
     * The determinism sentinel: RNG stream digests of every
     * evaluate() call so far, folded in submission order. Serial and
     * 2/4/8-thread runs of the same experiment must return
     * identical digests — compare them across configurations (the
     * determinism-sentinel test and CI job do) to catch
     * scheduling-dependent draws at the source.
     */
    RngAudit auditDeterminism() const { return audit_; }

  private:
    void runLane(const EvalPlan &plan,
                 std::vector<std::unique_ptr<VectorEnv>> &venvs,
                 EvalOutcome &out, size_t lane) const;

    RuntimeConfig cfg_;
    ThreadPool pool_;
    RngAudit audit_; ///< fold of every evaluation's rngAudit
};

} // namespace e3::runtime

#endif // E3_RUNTIME_PARALLEL_EVAL_HH
