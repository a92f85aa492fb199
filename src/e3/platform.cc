#include "e3/platform.hh"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/logging.hh"
#include "e3/inax_backend.hh"
#include "nn/batch_eval.hh"
#include "nn/layering.hh"
#include "obs/trace.hh"
#include "persist/checkpoint.hh"
#include "verify/verify.hh"

namespace e3 {

namespace {

runtime::RuntimeConfig
runtimeConfigOf(const PlatformConfig &cfg)
{
    runtime::RuntimeConfig rt;
    rt.threads = std::max<size_t>(cfg.threads, 1);
    return rt;
}

/**
 * Canonical string hashed into the checkpoint fingerprint. Only the
 * knobs that shape functional evolution belong here: threads,
 * generation caps and time budgets are deliberately excluded so a run
 * may be resumed with more generations or a different worker count
 * and still replay bit-identically.
 */
std::string
canonicalConfig(const PlatformConfig &cfg)
{
    std::ostringstream oss;
    oss << "env=" << cfg.envName << ";seed=" << cfg.seed
        << ";pop=" << cfg.populationSize
        << ";episodes=" << cfg.episodesPerEval << ";quant=";
    if (cfg.quantization)
        oss << cfg.quantization->totalBits << '.'
            << cfg.quantization->fracBits;
    else
        oss << "none";
    return oss.str();
}

/** First error diagnostic of a report, formatted for a warn() line. */
std::string
firstErrorLine(const verify::Report &report)
{
    for (const verify::Diagnostic &d : report.diagnostics) {
        if (d.severity != verify::Severity::Error)
            continue;
        return d.ruleId + " [" + d.locus + "] " + d.message;
    }
    return {};
}

} // namespace

E3Platform::E3Platform(const PlatformConfig &cfg,
                       std::unique_ptr<EvalBackend> backend)
    : cfg_(cfg), spec_(envSpec(cfg.envName)),
      neatCfg_(NeatConfig::forTask(spec_.numInputs, spec_.numOutputs,
                                   spec_.requiredFitness)),
      backend_(std::move(backend)), runtime_(runtimeConfigOf(cfg))
{
    e3_assert(backend_, "platform needs a backend");
    e3_assert(cfg_.episodesPerEval >= 1, "need at least one episode");
    neatCfg_.populationSize = cfg_.populationSize;
}

void
E3Platform::evaluateFunctional(Population &pop, GenerationTrace &trace,
                               int generation)
{
    const size_t n = pop.genomes().size();

    // CreateNet: decode and analyse every genome once per generation.
    // The one NetAnalysis per def feeds the genome's NetStats (the
    // trace's individuals, which also feed the generation summary and
    // the champion's stats) and the compile of the whole population
    // through the one population-compile entry point (nn/batch_eval):
    // the flat engine under every backend, or, with quantized
    // deployment enabled, the adapter over fixed-point evaluators (the
    // accelerator's datapath view).
    std::vector<int> keys;
    std::vector<NetworkDef> defs;
    std::vector<NetAnalysis> analyses;
    {
        obs::TraceSpan span("createnet");
        keys.reserve(n);
        defs.reserve(n);
        analyses.reserve(n);
        for (const auto &[key, genome] : pop.genomes()) {
            keys.push_back(key);
            NetworkDef def = genome.toNetworkDef(neatCfg_);
            if (cfg_.verifyGenomes) {
                // The --verify gate: an evolved def failing structural
                // verification is an evolution-loop bug. Errors only —
                // pruned hidden nodes (E3V008) are normal NEAT debris.
                verify::Report report =
                    verify::verifyNetworkDef(def, neatCfg_.feedForward);
                report.diagnostics.erase(
                    std::remove_if(report.diagnostics.begin(),
                                   report.diagnostics.end(),
                                   [](const verify::Diagnostic &d) {
                                       return d.severity !=
                                              verify::Severity::Error;
                                   }),
                    report.diagnostics.end());
                if (!report.empty()) {
                    report.setArtifact(
                        "gen " + std::to_string(generation) +
                        " genome " + std::to_string(key));
                    warn("verify: genome ", key, " at generation ",
                         generation, ": ", firstErrorLine(report));
                    verifyReport_.merge(std::move(report));
                }
            }
            NetAnalysis analysis = analyzeNetwork(def);
            trace.individuals.push_back(computeNetStats(def, analysis));
            defs.push_back(std::move(def));
            analyses.push_back(std::move(analysis));
        }
    }

    std::unique_ptr<BatchNetwork> batch;
    {
        obs::TraceSpan span("compile");
        NetworkCompileOptions compileOpts;
        compileOpts.recurrent = !neatCfg_.feedForward;
        compileOpts.quantization = cfg_.quantization;
        Result<std::unique_ptr<BatchNetwork>> compiled =
            compilePopulation(defs, analyses, compileOpts);
        // Free the analyses now: the compiled lanes keep nothing of
        // them.
        analyses = {};
        // Evolved genomes satisfy the structural invariants by
        // construction, so a compile failure here is an evolution-loop
        // bug.
        e3_assert(compiled.ok(),
                  "population compile failed: ", compiled.message());
        batch = std::move(compiled).value();

        if (cfg_.verifyGenomes) {
            // The --verify gate, batch side: certify the flat plan
            // (E3V301–E3V306) against the very defs it was compiled
            // from before any lane activates. Only quantized runs,
            // compiled to the adapter, have no plan.
            if (const BatchPlan *batchPlan = batch->plan()) {
                verify::Report report =
                    verify::verifyBatchPlan(*batchPlan, defs);
                if (!report.empty()) {
                    report.setArtifact("gen " +
                                       std::to_string(generation) +
                                       " batch plan");
                    warn("verify: batch plan at generation ", generation,
                         ": ", firstErrorLine(report));
                    verifyReport_.merge(std::move(report));
                }
            }
        }
        trace.defs = std::move(defs);
        trace.numInputs = spec_.numInputs;
        trace.numOutputs = spec_.numOutputs;
    }

    obs::TraceSpan span("evaluate");
    runtime::EvalPlan plan;
    plan.spec = &spec_;
    plan.lanes = n;
    plan.episodeSeeds.reserve(cfg_.episodesPerEval);
    for (size_t e = 0; e < cfg_.episodesPerEval; ++e) {
        plan.episodeSeeds.push_back(
            cfg_.seed ^
            (0x9E3779B97F4A7C15ULL *
             (static_cast<uint64_t>(generation) * 31 + e + 1)));
    }
    plan.act = batchPolicy(*batch, spec_);
    runtime::EvalOutcome outcome = runtime_.evaluate(plan);
    trace.episodes = std::move(outcome.episodeLengths);
    for (const auto &round : trace.episodes) {
        for (int steps : round)
            envSteps_ += static_cast<uint64_t>(steps);
    }
    for (size_t i = 0; i < n; ++i)
        pop.genomes().at(keys[i]).fitness = outcome.fitness[i];
    batch.reset(); // its arena is freed inside the phase, too
}

std::function<Action(size_t, const Observation &)>
batchPolicy(BatchNetwork &batch, const EnvSpec &spec)
{
    // Distinct lanes touch disjoint value regions, so out-of-lockstep
    // parallel rollout stays safe.
    return [&batch, &spec](size_t lane, const Observation &obs) {
        std::vector<double> out(batch.numOutputs());
        batch.activateLane(lane, obs.data(), out.data());
        return decodeAction(spec, out);
    };
}

RunResult
E3Platform::run()
{
    RunResult result;
    result.backendName = backend_->name();
    result.envName = cfg_.envName;

    const bool checkpointing = !cfg_.checkpointDir.empty();
    const uint64_t configHash =
        persist::fingerprint(canonicalConfig(cfg_));

    // Resume: restore the newest usable snapshot. Any failure here —
    // missing directory, corrupt files, format or config mismatch —
    // degrades to a warning and a fresh start; it never crashes.
    std::optional<Genome> bestGenome;
    std::optional<Population> restored;
    int startGen = 0;
    if (checkpointing && cfg_.resume) {
        Result<persist::Checkpoint> loaded = persist::loadLatestCheckpoint(
            cfg_.checkpointDir, configHash);
        if (!loaded.ok()) {
            warn("resume from '", cfg_.checkpointDir,
                 "' failed (", loaded.message(), "); starting fresh");
        } else {
            persist::Checkpoint &ck = *loaded;
            // The checkpoint loader already ran the interface-agnostic
            // structural pass; here the run configuration is known, so
            // every restored genome must satisfy this env's full
            // interface (I/O shape, feed-forward legality). A failure
            // degrades like any other unusable checkpoint.
            const verify::GenomeInterface iface =
                verify::interfaceFor(spec_, neatCfg_.feedForward);
            bool genomesOk = true;
            auto checkRestored = [&](const Genome &g, const char *what) {
                verify::Report report = verify::verifyGenome(g, iface);
                if (report.hasErrors()) {
                    warn("resume: ", what, " genome ", g.key(),
                         " fails verification (",
                         firstErrorLine(report), "); starting fresh");
                    genomesOk = false;
                }
            };
            for (const auto &[key, genome] : ck.population.genomes)
                checkRestored(genome, "restored");
            if (ck.champion)
                checkRestored(*ck.champion, "champion");
            if (genomesOk) {
                restored.emplace(neatCfg_, ck.population);
                startGen = ck.generation;
                envSteps_ = ck.envSteps;
                result.bestFitness = ck.bestFitness;
                bestGenome = ck.champion;
                if (bestGenome) {
                    result.bestNetStats = computeNetStats(
                        bestGenome->toNetworkDef(neatCfg_));
                }
                for (const auto &[phase, seconds] : ck.phaseSeconds)
                    result.modeled.add(phase, seconds);
                result.trace = std::move(ck.trace);
                result.generations =
                    static_cast<int>(result.trace.size());
                inform("resumed '", cfg_.envName, "' from '",
                       cfg_.checkpointDir, "' at generation ",
                       startGen);
            }
        }
    }

    Population pop = restored ? std::move(*restored)
                              : Population(neatCfg_, cfg_.seed);

    double checkpointSeconds = 0.0;
    uint64_t checkpointBytes = 0;

    // Cut one metrics row per generation: gauges carry the current
    // value, counters the delta since the previous row, so every
    // generation's spend is isolated (the fig9-style breakdown).
    // Runs after the checkpoint write whose spend it records, so it
    // has its own span rather than joining "stats".
    auto closeGeneration = [&](int gen, const GenerationStats &stats) {
        obs::TraceSpan span("metrics");
        metrics_.setGauge("fitness.best", stats.bestFitness);
        metrics_.setGauge("fitness.mean", stats.meanFitness);
        metrics_.setGauge("species.count",
                          static_cast<double>(stats.numSpecies));
        metrics_.setGauge("net.mean_nodes", stats.nodeCounts.mean());
        metrics_.setGauge("net.mean_connections",
                          stats.connCounts.mean());
        metrics_.setCounter(
            "modeled.createnet_seconds",
            result.modeled.seconds(e3_phase::createNet));
        metrics_.setCounter("modeled.env_seconds",
                            result.modeled.seconds(e3_phase::env));
        metrics_.setCounter(
            "modeled.evaluate_seconds",
            result.modeled.seconds(e3_phase::evaluate));
        metrics_.setCounter("modeled.evolve_seconds",
                            result.modeled.seconds(e3_phase::evolve));
        metrics_.setCounter("env.steps",
                            static_cast<double>(envSteps_));
        if (checkpointing) {
            metrics_.setCounter("checkpoint.write_seconds",
                                checkpointSeconds);
            metrics_.setCounter(
                "checkpoint.bytes",
                static_cast<double>(checkpointBytes));
        }
        // Pool counters already carry their "runtime." prefix.
        metrics_.importCounters("", runtime_.counters());
        metrics_.snapshotGeneration(gen);
        obs::traceCounter("fitness.best", stats.bestFitness);
        obs::traceCounter("species.count",
                          static_cast<double>(stats.numSpecies));
    };

    // Snapshot the complete evolve-loop state after advance(): the
    // stored generation is the next one to run, so a resumed loop picks
    // up exactly where the interrupted one would have continued.
    auto persistCheckpoint = [&](int nextGen) {
        obs::TraceSpan span("persist");
        persist::Checkpoint ck;
        ck.configHash = configHash;
        ck.generation = nextGen;
        ck.envSteps = envSteps_;
        ck.bestFitness = result.bestFitness;
        ck.champion = bestGenome;
        ck.population = pop.saveState();
        for (const std::string &phase : result.modeled.phases())
            ck.phaseSeconds.emplace_back(
                phase, result.modeled.seconds(phase));
        ck.trace = result.trace;
        persist::WriteStats stats;
        Status written = persist::writeCheckpoint(
            cfg_.checkpointDir, ck, cfg_.checkpointKeep, &stats);
        if (!written.ok()) {
            warn("checkpoint write failed: ", written.message());
            return;
        }
        checkpointSeconds += stats.seconds;
        checkpointBytes += stats.bytes;
    };

    for (int gen = startGen; gen < cfg_.maxGenerations; ++gen) {
        obs::TraceSpan genSpan("generation");
        GenerationTrace trace;
        evaluateFunctional(pop, trace, gen);
        {
            // --- modeled timing: the host model, then the backend's
            // replay (INAX session / GPU / CPU cost model); hw-detail
            // traces emit the per-PU timelines from inside this span.
            obs::TraceSpan span("backend_replay");
            // e3-lint: discard-ok -- GenerationTrace::validate is void; it shares its name with Status-returning validates elsewhere
            trace.validate();
            result.modeled.add(e3_phase::createNet,
                               host_.createNetSeconds(trace));
            result.modeled.add(e3_phase::env, host_.envSeconds(trace));
            const double evalSeconds = backend_->evaluateSeconds(trace);
            result.modeled.add(e3_phase::evaluate, evalSeconds);
            backend_->attributeEnergy(evalSeconds, result.energyInput);
        }

        // --- per-generation stats, from CreateNet's NetStats ---
        GenerationStats stats;
        {
            obs::TraceSpan span("stats");
            stats = pop.stats(trace.individuals);
            GenerationPoint point;
            point.generation = gen;
            point.bestFitness = stats.bestFitness;
            point.meanFitness = stats.meanFitness;
            point.normalizedBest =
                spec_.normalizeFitness(stats.bestFitness);
            point.cumulativeSeconds = result.modeled.totalSeconds();
            point.meanNodes = stats.nodeCounts.mean();
            point.meanConnections = stats.connCounts.mean();
            point.meanDensity = stats.densities.mean();
            point.numSpecies = stats.numSpecies;
            result.trace.push_back(point);

            result.generations = gen + 1;
            const Genome &best = pop.best();
            if (best.fitness >= result.bestFitness ||
                (result.trace.size() == 1 && !bestGenome)) {
                result.bestFitness = best.fitness;
                // individuals are in genome-key order.
                result.bestNetStats = trace.individuals[static_cast<size_t>(
                    std::distance(pop.genomes().begin(),
                                  pop.genomes().find(best.key())))];
                bestGenome = best;
            }
        }

        if (pop.solved()) {
            result.solved = true;
            closeGeneration(gen, stats);
            break;
        }
        if (result.modeled.totalSeconds() >=
            cfg_.modeledSecondsBudget) {
            inform(backend_->name(), "/", cfg_.envName,
                   ": modeled-time budget exhausted at generation ",
                   gen);
            closeGeneration(gen, stats);
            break;
        }

        result.modeled.add(
            e3_phase::evolve,
            host_.evolveSeconds(neatCfg_.populationSize));
        {
            obs::TraceSpan span("evolve");
            pop.advance();
        }
        if (checkpointing && cfg_.checkpointEvery > 0 &&
            (gen + 1) % cfg_.checkpointEvery == 0) {
            persistCheckpoint(gen + 1);
        }
        closeGeneration(gen, stats);
    }

    // Host-side phases always run on the CPU.
    result.energyInput.cpuSeconds +=
        result.modeled.seconds(e3_phase::createNet) +
        result.modeled.seconds(e3_phase::env) +
        result.modeled.seconds(e3_phase::evolve);

    result.runtimeCounters = runtime_.counters();
    result.rngAudit = runtime_.auditDeterminism();
    result.metrics = metrics_;
    result.verifyReport = verifyReport_;

    if (auto *inax = dynamic_cast<InaxBackend *>(backend_.get()))
        result.inaxReport = inax->report();
    return result;
}

} // namespace e3
