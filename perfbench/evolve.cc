#include "evolve.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>

#include "e3/experiment.hh"
#include "e3/inax_backend.hh"
#include "e3/platform.hh"
#include "env/env_registry.hh"
#include "nn/batch_eval.hh"
#include "persist/checkpoint.hh"
#include "runtime/parallel_eval.hh"
#include "serve.hh"

namespace perfbench {

using namespace e3;
namespace fs = std::filesystem;

namespace {

/**
 * Everything the correctness gates compare: the per-generation fitness
 * trace, the runtime's RNG audit, the modeled per-phase seconds and
 * the INAX cycle total. All are simulated or functional results, so
 * they must repeat bit for bit.
 */
struct Gate
{
    uint64_t trace = 0;
    RngAudit rng;
    uint64_t modeled = 0;
    uint64_t inaxCycles = 0;

    bool
    operator==(const Gate &o) const
    {
        return trace == o.trace && rng == o.rng && modeled == o.modeled &&
               inaxCycles == o.inaxCycles;
    }

    std::string
    str() const
    {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%016" PRIx64 " %" PRIu64 " %016" PRIx64
                      " %016" PRIx64 " %" PRIu64,
                      trace, rng.draws, rng.hash, modeled, inaxCycles);
        return buf;
    }
};

uint64_t
traceDigest(const std::vector<GenerationPoint> &trace)
{
    Digest d;
    for (const GenerationPoint &p : trace) {
        d.mix(static_cast<uint64_t>(p.generation));
        d.mix(p.bestFitness);
        d.mix(p.meanFitness);
        d.mix(p.normalizedBest);
        d.mix(p.cumulativeSeconds);
        d.mix(p.meanNodes);
        d.mix(p.meanConnections);
        d.mix(p.meanDensity);
        d.mix(static_cast<uint64_t>(p.numSpecies));
    }
    return d.hash;
}

uint64_t
modeledDigest(const PhaseTimer &modeled)
{
    Digest d;
    for (const std::string &phase : modeled.phases()) {
        for (char c : phase)
            d.mix(static_cast<uint64_t>(c));
        d.mix(modeled.seconds(phase));
    }
    return d.hash;
}

uint64_t
inaxCyclesOf(const EvalBackend &backend)
{
    const auto *inax = dynamic_cast<const InaxBackend *>(&backend);
    return inax ? inax->report().totalCycles() : 0;
}

/**
 * Pass-through backend that stamps the host clock each time the
 * platform hands it a generation, which splits an untraced run into
 * per-generation host times at the cost of one clock read each.
 */
class StampingBackend : public EvalBackend
{
  public:
    StampingBackend(std::unique_ptr<EvalBackend> inner,
                    std::vector<Clock::time_point> &stamps)
        : inner_(std::move(inner)), stamps_(stamps)
    {
    }

    std::string name() const override { return inner_->name(); }

    double
    evaluateSeconds(const GenerationTrace &trace) override
    {
        stamps_.push_back(Clock::now());
        return inner_->evaluateSeconds(trace);
    }

    void
    attributeEnergy(double evalSeconds,
                    EnergyBreakdownInput &energy) const override
    {
        inner_->attributeEnergy(evalSeconds, energy);
    }

    bool
    batchedFunctionalInference() const override
    {
        return inner_->batchedFunctionalInference();
    }

    const EvalBackend &inner() const { return *inner_; }

  private:
    std::unique_ptr<EvalBackend> inner_;
    std::vector<Clock::time_point> &stamps_;
};

std::unique_ptr<EvalBackend>
createBackend(const EvolveSpec &spec, uint64_t seed, size_t threads)
{
    ExperimentOptions opts;
    opts.seed = seed;
    opts.populationSize = spec.population;
    opts.maxGenerations = spec.generations;
    opts.threads = threads;
    Result<std::unique_ptr<EvalBackend>> created =
        BackendRegistry::instance().create(spec.backend, opts,
                                           envSpec(spec.env));
    assertOk(created.status());
    return std::move(created).value();
}

PlatformConfig
platformConfig(const EvolveSpec &spec, uint64_t seed, size_t threads,
               const std::string &checkpointDir)
{
    PlatformConfig cfg;
    cfg.envName = spec.env;
    cfg.seed = seed;
    cfg.populationSize = spec.population;
    cfg.maxGenerations = spec.generations;
    cfg.threads = threads;
    cfg.checkpointDir = checkpointDir;
    cfg.checkpointEvery = 1;
    return cfg;
}

/** One untraced E3Platform::run of the workload's horizon. */
struct PlatformRun
{
    Gate gate;
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    std::vector<double> generationSeconds;
};

PlatformRun
runPlatform(const EvolveSpec &spec, uint64_t seed, size_t threads,
            const std::string &checkpointDir)
{
    if (!checkpointDir.empty())
        fs::remove_all(checkpointDir);
    std::vector<Clock::time_point> stamps;
    stamps.reserve(static_cast<size_t>(spec.generations) + 1);

    PlatformRun run;
    const auto setupStart = Clock::now();
    auto stamping = std::make_unique<StampingBackend>(
        createBackend(spec, seed, threads), stamps);
    const StampingBackend &backend = *stamping;
    E3Platform platform(
        platformConfig(spec, seed, threads,
                       spec.checkpointEachGeneration ? checkpointDir : ""),
        std::move(stamping));
    platform.neatConfig().fitnessThreshold =
        std::numeric_limits<double>::infinity();
    run.setupSeconds = secondsSince(setupStart);

    const auto runStart = Clock::now();
    const RunResult result = platform.run();
    run.runSeconds = secondsSince(runStart);

    Clock::time_point prev = runStart;
    for (const Clock::time_point &t : stamps) {
        run.generationSeconds.push_back(
            std::chrono::duration<double>(t - prev).count());
        prev = t;
    }
    run.gate.trace = traceDigest(result.trace);
    run.gate.rng = result.rngAudit;
    run.gate.modeled = modeledDigest(result.modeled);
    run.gate.inaxCycles = inaxCyclesOf(backend.inner());
    if (result.generations != spec.generations)
        e3_fatal("run stopped at generation ", result.generations,
                 " before the fixed horizon ", spec.generations);
    return run;
}

/** Per-lane timestamps of a traced rollout (one lane, one writer). */
struct LaneClock
{
    int64_t first = 0;   ///< start of the first policy call
    int64_t last = 0;    ///< end of the latest policy call
    int64_t inferNs = 0; ///< inside policy calls
    int64_t stepNs = 0;  ///< between consecutive policy calls
    uint64_t calls = 0;
};

/**
 * Tail percentile of one cycle's generation times; the metrics are the
 * medians over cycles of each cycle's p50 and p90. The host's speed
 * drifts by a fifth over ten seconds; a p90 over the whole run reads
 * its slowest spell, where the median cycle does not.
 */
constexpr double kTailQ = 0.9;

/** Independent evolutions per timed cycle of an evolve workload. */
constexpr size_t kSubSeeds = 4;

/** Seed of the k-th evolution of a cycle; k = 0 is the workload seed. */
uint64_t
subSeed(uint64_t seed, size_t k)
{
    return seed + 1000003ULL * k;
}

/** Pinned gate values: `workload seed trace draws rng modeled cycles`. */
std::optional<std::string>
pinnedGate(const std::string &path, const std::string &workload,
           uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name;
        uint64_t s = 0;
        if (!(fields >> name >> s) || name != workload || s != seed)
            continue;
        std::string rest;
        std::getline(fields, rest);
        rest.erase(0, rest.find_first_not_of(' '));
        return rest;
    }
    return std::nullopt;
}

/** Mirror of the platform's checkpoint-fingerprint input. */
std::string
canonicalConfig(const EvolveSpec &spec, uint64_t seed)
{
    std::ostringstream oss;
    oss << "env=" << spec.env << ";seed=" << seed
        << ";pop=" << spec.population << ";episodes=1;quant=none";
    return oss.str();
}

persist::TraceRow
toTraceRow(const GenerationPoint &p)
{
    persist::TraceRow row;
    row.generation = p.generation;
    row.bestFitness = p.bestFitness;
    row.meanFitness = p.meanFitness;
    row.normalizedBest = p.normalizedBest;
    row.cumulativeSeconds = p.cumulativeSeconds;
    row.meanNodes = p.meanNodes;
    row.meanConnections = p.meanConnections;
    row.meanDensity = p.meanDensity;
    row.numSpecies = p.numSpecies;
    return row;
}

bool
sameFiles(const std::string &a, const std::string &b)
{
    auto slurp = [](const fs::path &p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    size_t compared = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(a)) {
        const fs::path other = fs::path(b) / e.path().filename();
        if (!fs::exists(other) || slurp(e.path()) != slurp(other))
            return false;
        ++compared;
    }
    return compared > 0;
}

} // namespace

bool
evolveSpecFor(const std::string &workload, bool smoke, EvolveSpec &spec)
{
    if (workload == "evolve-lander") {
        spec.env = "lunar_lander";
        spec.backend = "inax";
        spec.population = 150;
        spec.threads = 1;
        spec.checkpointEachGeneration = false;
        spec.generations = 30;
    } else if (workload == "evolve-walker") {
        spec.env = "bipedal_walker";
        spec.backend = "cpu";
        spec.population = 150;
        spec.threads = 4;
        spec.checkpointEachGeneration = true;
        spec.generations = 8;
    } else {
        return false;
    }
    if (smoke) {
        spec.population = 24;
        spec.generations = 3;
    }
    return true;
}

std::string
evolveGate(const EvolveSpec &spec, uint64_t seed, const std::string &workDir)
{
    return runPlatform(spec, seed, spec.threads, workDir + "/ck").gate.str();
}

void
traceEvolveLayers(const EvolveSpec &spec, uint64_t seed,
                  const std::string &workDir,
                  const std::string &championDir, Metrics &metrics,
                  Outcome &outcome)
{
    const std::string untracedDir = workDir + "/ck-untraced";
    const std::string tracedDir = workDir + "/ck-traced";
    const PlatformRun reference =
        runPlatform(spec, seed, spec.threads, untracedDir);

    const bool checkpointing = spec.checkpointEachGeneration;
    fs::remove_all(tracedDir);
    const EnvSpec &env = envSpec(spec.env);
    NeatConfig neatCfg = NeatConfig::forTask(env.numInputs, env.numOutputs,
                                             env.requiredFitness);
    neatCfg.populationSize = spec.population;
    neatCfg.fitnessThreshold = std::numeric_limits<double>::infinity();
    const uint64_t configHash =
        persist::fingerprint(canonicalConfig(spec, seed));

    std::unique_ptr<EvalBackend> backend =
        createBackend(spec, seed, spec.threads);
    runtime::RuntimeConfig rtCfg;
    rtCfg.threads = std::max<size_t>(spec.threads, 1);
    runtime::ParallelEval runtime(rtCfg);
    const HostTimingModel host;

    SpanRecorder rec;
    PhaseTimer modeled;
    EnergyBreakdownInput energy;
    std::vector<GenerationPoint> points;
    std::optional<Genome> bestGenome;
    double bestFitness = 0.0;
    uint64_t envSteps = 0;
    double inferNs = 0.0;
    uint64_t inferCalls = 0;
    double stepNs = 0.0;
    uint64_t steps = 0;
    double laneSeconds = 0.0;
    double persistSeconds = 0.0;
    double persistBytes = 0.0;
    size_t persistWrites = 0;
    auto snapshot = [&](int nextGen, Population &pop) {
        persist::Checkpoint ck;
        ck.configHash = configHash;
        ck.generation = nextGen;
        ck.envSteps = envSteps;
        ck.bestFitness = bestFitness;
        ck.champion = bestGenome;
        ck.population = pop.saveState();
        for (const std::string &phase : modeled.phases())
            ck.phaseSeconds.emplace_back(phase, modeled.seconds(phase));
        for (const GenerationPoint &p : points)
            ck.trace.push_back(toTraceRow(p));
        return ck;
    };
    auto writeSnapshot = [&](const std::string &dir, int keep,
                             const persist::Checkpoint &ck) {
        persist::WriteStats stats;
        const Status written = persist::writeCheckpoint(dir, ck, keep,
                                                        &stats);
        if (!written.ok()) {
            outcome.gateFail("checkpoint write: " + written.message());
            return;
        }
        persistSeconds += stats.seconds;
        persistBytes += static_cast<double>(stats.bytes);
        ++persistWrites;
    };

    const auto loopStart = Clock::now();
    std::optional<Population> popHolder;
    {
        SpanRecorder::Scope span(&rec, "neat.init");
        popHolder.emplace(neatCfg, seed);
    }
    Population &pop = *popHolder;
    for (int gen = 0; gen < spec.generations; ++gen) {
        SpanRecorder::Scope genSpan(&rec, "generation", gen);
        GenerationTrace trace;
        const size_t n = pop.genomes().size();
        std::vector<int> keys;
        std::vector<NetworkDef> defs;
        {
            SpanRecorder::Scope span(&rec, "nn.decode");
            keys.reserve(n);
            defs.reserve(n);
            for (const auto &[key, genome] : pop.genomes()) {
                keys.push_back(key);
                NetworkDef def = genome.toNetworkDef(neatCfg);
                trace.individuals.push_back(computeNetStats(def));
                defs.push_back(std::move(def));
            }
        }
        std::unique_ptr<BatchNetwork> batch;
        {
            SpanRecorder::Scope span(&rec, "nn.compile");
            const BatchEngine engine = backend->batchedFunctionalInference()
                                           ? BatchEngine::Auto
                                           : BatchEngine::PerGenome;
            Result<std::unique_ptr<BatchNetwork>> compiled =
                compilePopulation(defs, NetworkCompileOptions{}, engine);
            assertOk(compiled.status());
            batch = std::move(compiled).value();
            for (NetworkDef &def : defs)
                trace.defs.push_back(std::move(def));
            trace.numInputs = env.numInputs;
            trace.numOutputs = env.numOutputs;
        }

        // Per-lane clocks around the policy callback: inside it is
        // inference, between two calls of one lane is its env step.
        std::vector<LaneClock> lanes(n);
        runtime::EvalPlan plan;
        plan.spec = &env;
        plan.lanes = n;
        plan.episodeSeeds.push_back(
            seed ^ (0x9E3779B97F4A7C15ULL *
                    (static_cast<uint64_t>(gen) * 31 + 1)));
        plan.act = [&](size_t i, const Observation &obs) {
            LaneClock &clock = lanes[i];
            const int64_t t0 = nowNs();
            if (clock.calls++ == 0)
                clock.first = t0;
            else
                clock.stepNs += t0 - clock.last;
            std::vector<double> out(batch->numOutputs());
            batch->activateLane(i, obs.data(), out.data());
            Action action = decodeAction(env, out);
            clock.last = nowNs();
            clock.inferNs += clock.last - t0;
            return action;
        };
        runtime::EvalOutcome evaluated;
        {
            SpanRecorder::Scope span(&rec, "runtime.evaluate");
            evaluated = runtime.evaluate(plan);
        }
        for (const LaneClock &clock : lanes) {
            inferNs += static_cast<double>(clock.inferNs);
            inferCalls += clock.calls;
            stepNs += static_cast<double>(clock.stepNs);
            steps += clock.calls > 0 ? clock.calls - 1 : 0;
            laneSeconds += static_cast<double>(clock.last - clock.first) *
                           1e-9;
        }
        {
            SpanRecorder::Scope span(&rec, "e3.host_model");
            trace.episodes = std::move(evaluated.episodeLengths);
            for (const auto &round : trace.episodes) {
                for (int steps : round)
                    envSteps += static_cast<uint64_t>(steps);
            }
            for (size_t i = 0; i < n; ++i)
                pop.genomes().at(keys[i]).fitness = evaluated.fitness[i];
            trace.validate();
            modeled.add(e3_phase::createNet, host.createNetSeconds(trace));
            modeled.add(e3_phase::env, host.envSeconds(trace));
        }
        {
            SpanRecorder::Scope span(&rec, "e3.replay");
            const double evalSeconds = backend->evaluateSeconds(trace);
            modeled.add(e3_phase::evaluate, evalSeconds);
            backend->attributeEnergy(evalSeconds, energy);
        }
        {
            SpanRecorder::Scope span(&rec, "neat.stats");
            const GenerationStats stats = pop.stats();
            GenerationPoint point;
            point.generation = gen;
            point.bestFitness = stats.bestFitness;
            point.meanFitness = stats.meanFitness;
            point.normalizedBest = env.normalizeFitness(stats.bestFitness);
            point.cumulativeSeconds = modeled.totalSeconds();
            point.meanNodes = stats.nodeCounts.mean();
            point.meanConnections = stats.connCounts.mean();
            point.meanDensity = stats.densities.mean();
            point.numSpecies = stats.numSpecies;
            points.push_back(point);
            if (pop.best().fitness >= bestFitness ||
                (points.size() == 1 && !bestGenome)) {
                bestFitness = pop.best().fitness;
                (void)computeNetStats(pop.best().toNetworkDef(neatCfg));
                bestGenome = pop.best();
            }
        }
        {
            SpanRecorder::Scope span(&rec, "neat.advance");
            modeled.add(e3_phase::evolve,
                        host.evolveSeconds(neatCfg.populationSize));
            pop.advance();
        }
        if (checkpointing) {
            SpanRecorder::Scope span(&rec, "persist.write");
            writeSnapshot(tracedDir, 3, snapshot(gen + 1, pop));
        }
    }
    const double loopSeconds = secondsSince(loopStart);

    Gate traced;
    traced.trace = traceDigest(points);
    traced.rng = runtime.auditDeterminism();
    traced.modeled = modeledDigest(modeled);
    traced.inaxCycles = inaxCyclesOf(*backend);
    if (!(traced == reference.gate))
        outcome.gateFail("traced re-drive diverged from E3Platform::run: " +
                         traced.str() + " vs " + reference.gate.str());
    if (checkpointing && !sameFiles(untracedDir, tracedDir))
        outcome.gateFail("traced checkpoints differ from E3Platform's");

    {
        // The champion the serve tail loads; always one persist write.
        SpanRecorder::Scope span(&rec, "persist.write");
        fs::remove_all(championDir);
        writeSnapshot(championDir, 1, snapshot(spec.generations, pop));
    }

    const double gens = static_cast<double>(spec.generations);
    const double genomes = gens * static_cast<double>(spec.population);
    const double threads = static_cast<double>(rtCfg.threads);
    const double rollout = rec.totalSeconds("runtime.evaluate");
    metrics.set("nn.decode_us_per_genome",
                rec.totalSeconds("nn.decode") / genomes * 1e6, "us");
    metrics.set("nn.compile_us_per_genome",
                rec.totalSeconds("nn.compile") / genomes * 1e6, "us");
    metrics.set("nn.infer_ns_per_call",
                inferCalls ? inferNs / static_cast<double>(inferCalls)
                           : 0.0,
                "ns");
    metrics.set("env.step_ns",
                steps ? stepNs / static_cast<double>(steps) : 0.0, "ns");
    metrics.set("env.steps_per_gen", static_cast<double>(envSteps) / gens,
                "count");
    metrics.set("runtime.rollout_ms_per_gen", rollout / gens * 1e3, "ms");
    // Worker time outside any lane's episode. The pool's own idle
    // counter books a wait only when the worker wakes, i.e. in the next
    // generation, so it cannot be cut at evaluate()'s boundaries.
    metrics.set("runtime.idle_share",
                rollout > 0 ? 1.0 - laneSeconds / (threads * rollout) : 0.0,
                "ratio");
    metrics.set("neat.advance_ms_per_gen",
                rec.totalSeconds("neat.advance") / gens * 1e3, "ms");
    metrics.set("neat.stats_ms_per_gen",
                rec.totalSeconds("neat.stats") / gens * 1e3, "ms");
    metrics.set("e3.replay_ms_per_gen",
                rec.totalSeconds("e3.replay") / gens * 1e3, "ms");
    metrics.set("inax.cycles_per_gen",
                static_cast<double>(traced.inaxCycles) / gens, "count");
    metrics.set("persist.write_ms",
                persistWrites ? persistSeconds /
                                    static_cast<double>(persistWrites) *
                                    1e3
                              : 0.0,
                "ms");
    metrics.set("persist.bytes",
                persistWrites
                    ? persistBytes / static_cast<double>(persistWrites)
                    : 0.0,
                "bytes");
    const double uncovered = rec.uncoveredShare("generation");
    metrics.set("generation.unattributed_share", uncovered, "ratio");
    metrics.set("trace.overhead_share",
                loopSeconds / reference.runSeconds - 1.0, "ratio");
    const double worst = rec.maxUncoveredShare("generation");
    if (worst > 0.05) {
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "layer spans cover only %.1f%% of a generation",
                      100.0 * (1.0 - worst));
        outcome.gateFail(msg);
    }
    if (!rec.writeJsonl(workDir + "/spans-evolve.jsonl"))
        outcome.gateFail("cannot write " + workDir + "/spans-evolve.jsonl");
}

void
runEvolveWorkload(const Args &args, const EvolveSpec &spec,
                  Metrics &metrics, Outcome &outcome)
{
    const std::string ckDir = args.workDir + "/ck";

    // Gates first, outside the timed window: pinned values for this
    // seed, the same run at another thread count, and (below) every
    // timed repetition against the first.
    const size_t otherThreads = spec.threads == 1 ? 4 : 1;
    const PlatformRun first =
        runPlatform(spec, args.seed, spec.threads, ckDir);
    const PlatformRun other =
        runPlatform(spec, args.seed, otherThreads, ckDir);
    outcome.attempted += 2;
    std::fprintf(stderr, "gate %s %" PRIu64 " %s\n", args.workload.c_str(),
                 args.seed, first.gate.str().c_str());
    if (!(other.gate == first.gate)) {
        ++outcome.failed;
        outcome.gateFail("threads " + std::to_string(otherThreads) +
                         " gave " + other.gate.str() + ", threads " +
                         std::to_string(spec.threads) + " gave " +
                         first.gate.str());
    }
    // Pins hold for the full-size workloads; smoke sizes have none.
    const std::optional<std::string> pinned =
        args.smoke ? std::nullopt
                   : pinnedGate(args.goldenPath, args.workload, args.seed);
    if (pinned) {
        if (*pinned != first.gate.str())
            outcome.gateFail("pinned gate " + *pinned + ", got " +
                             first.gate.str());
    } else if (!args.smoke) {
        std::fprintf(stderr, "note: no pinned gate for %s seed %" PRIu64
                             "; cross-checks only\n",
                     args.workload.c_str(), args.seed);
    }

    if (args.trace) {
        traceEvolveLayers(spec, args.seed, args.workDir,
                          args.workDir + "/champion", metrics, outcome);
        ServeTail tail;
        tail.championDir = args.workDir + "/champion";
        tail.envName = spec.env;
        traceServeTail(args, tail, metrics, outcome);
        return;
    }

    // One cycle evolves kSubSeeds independent populations (sub-seed 0
    // is the workload seed), so a run measures the workload averaged
    // over several evolutionary histories rather than one. Cycles
    // repeat until the time is up; each is identical work.
    std::vector<Gate> cycleGates;
    std::vector<double> setupSeconds;
    std::vector<double> cycleGenPerS;
    std::vector<double> cycleP50Ms;
    std::vector<double> cycleTailMs;
    size_t generations = 0;
    const auto start = Clock::now();
    do {
        double cycleSeconds = 0.0;
        std::vector<double> genMs;
        for (size_t k = 0; k < kSubSeeds; ++k) {
            const PlatformRun rep = runPlatform(
                spec, subSeed(args.seed, k), spec.threads, ckDir);
            ++outcome.attempted;
            if (cycleGates.size() < kSubSeeds) {
                cycleGates.push_back(rep.gate);
            } else if (!(rep.gate == cycleGates[k])) {
                ++outcome.failed;
                outcome.gateFail("repetition diverged: " + rep.gate.str());
            }
            setupSeconds.push_back(rep.setupSeconds);
            cycleSeconds += rep.runSeconds;
            for (double s : rep.generationSeconds)
                genMs.push_back(s * 1e3);
        }
        cycleGenPerS.push_back(
            static_cast<double>(kSubSeeds * spec.generations) /
            cycleSeconds);
        cycleP50Ms.push_back(median(genMs));
        cycleTailMs.push_back(quantile(genMs, kTailQ));
        generations += genMs.size();
    } while (secondsSince(start) < args.seconds);
    if (!(cycleGates[0] == first.gate))
        outcome.gateFail("timed run diverged from the gate run: " +
                         cycleGates[0].str());

    metrics.set("throughput_per_s", median(cycleGenPerS), "1/s");
    metrics.set("p50_ms", median(cycleP50Ms), "ms");
    metrics.set("tail_ms", median(cycleTailMs), "ms");
    metrics.set("setup_s", median(setupSeconds), "s");
    metrics.set("peak_rss_mb", peakRssMb(), "MB");
    std::fprintf(stderr,
                 "%s: %zu cycles of %zu x %d generations, %zu generation "
                 "samples; per cycle generations/s, p50 ms, p%.0f ms:\n",
                 args.workload.c_str(), cycleGenPerS.size(), kSubSeeds,
                 spec.generations, generations, 100.0 * kTailQ);
    for (size_t c = 0; c < cycleGenPerS.size(); ++c)
        std::fprintf(stderr, "  %7.2f %9.3f %9.3f\n", cycleGenPerS[c],
                     cycleP50Ms[c], cycleTailMs[c]);
}

} // namespace perfbench
