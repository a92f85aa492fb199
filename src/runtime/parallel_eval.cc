#include "runtime/parallel_eval.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace e3::runtime {

ParallelEval::ParallelEval(const RuntimeConfig &cfg)
    : cfg_(cfg), pool_(std::max<size_t>(cfg.threads, 1))
{
}

void
ParallelEval::runLane(const EvalPlan &plan,
                      std::vector<std::unique_ptr<VectorEnv>> &venvs,
                      EvalOutcome &out, size_t lane) const
{
    // Episode rounds run in order within the lane, exactly like the
    // lockstep path: reset consumes the lane's private stream, then
    // the policy drives the episode to termination or the step cap.
    obs::TraceSpan span("lane", obs::TraceDetail::Task);
    double sum = 0.0;
    for (size_t e = 0; e < venvs.size(); ++e) {
        VectorEnv &venv = *venvs[e];
        venv.resetLane(lane);
        bool finished = venv.done(lane);
        while (!finished)
            finished = venv.stepLane(
                lane, plan.act(lane, venv.observation(lane)));
        out.episodeLengths[e][lane] = venv.steps(lane);
        sum += venv.fitness(lane);
    }
    out.fitness[lane] =
        sum / static_cast<double>(venvs.size());
}

EvalOutcome
ParallelEval::evaluate(const EvalPlan &plan)
{
    e3_assert(plan.spec, "evaluation plan needs an environment spec");
    e3_assert(plan.act, "evaluation plan needs a policy");
    e3_assert(!plan.episodeSeeds.empty(),
              "evaluation plan needs at least one episode round");

    EvalOutcome out;
    if (plan.lanes == 0)
        return out;
    out.fitness.assign(plan.lanes, 0.0);
    out.episodeLengths.assign(plan.episodeSeeds.size(),
                              std::vector<int>(plan.lanes, 0));

    // VectorEnv construction derives every lane's RNG stream up front
    // on this thread — the same split sequence the lockstep path uses,
    // so streams are a pure function of (episode seed, lane index).
    std::vector<std::unique_ptr<VectorEnv>> venvs;
    venvs.reserve(plan.episodeSeeds.size());
    for (uint64_t seed : plan.episodeSeeds)
        venvs.push_back(
            std::make_unique<VectorEnv>(*plan.spec, plan.lanes, seed));

    {
        obs::TraceSpan span("rollout");
        pool_.parallelFor(plan.lanes, [&](size_t i) {
            runLane(plan, venvs, out, i);
        });
    }

    // Determinism sentinel: fold every lane's stream digest in fixed
    // (episode round, lane) order — independent of which worker ran
    // what when — and accumulate into the run-level digest. Runs once
    // per evaluation, after fan-in, on the calling thread.
    for (const auto &venv : venvs) {
        for (size_t i = 0; i < plan.lanes; ++i)
            out.rngAudit.mixAudit(venv->laneAudit(i));
    }
    audit_.mixAudit(out.rngAudit);

    // One sample per evaluation on the env-step counter track: the
    // rollout volume behind this generation's evaluate phase.
    if (obs::traceEnabled()) {
        double steps = 0.0;
        for (const auto &round : out.episodeLengths) {
            for (int s : round)
                steps += static_cast<double>(s);
        }
        obs::traceCounter("eval.env_steps", steps,
                          obs::TraceDetail::Phase);
    }
    return out;
}

Counters
ParallelEval::counters() const
{
    Counters out;
    pool_.exportCounters(out);
    return out;
}

} // namespace e3::runtime
