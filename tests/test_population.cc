#include "neat/population.hh"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "e3/experiment.hh"
#include "e3/platform.hh"
#include "env/env_registry.hh"
#include "nn/batch_eval.hh"
#include "nn/layering.hh"
#include "nn/net_stats.hh"

namespace e3 {
namespace {

uint64_t
bits(double x)
{
    return std::bit_cast<uint64_t>(x);
}

void
expectSameDistribution(const Distribution &got, const Distribution &want)
{
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(bits(got.mean()), bits(want.mean()));
    EXPECT_EQ(bits(got.min()), bits(want.min()));
    EXPECT_EQ(bits(got.max()), bits(want.max()));
    EXPECT_EQ(bits(got.variance()), bits(want.variance()));
}

/** Every field of a def, doubles by their bits. */
std::vector<uint64_t>
flatten(const NetworkDef &def)
{
    std::vector<uint64_t> v = {def.inputIds.size(), def.outputIds.size(),
                               def.nodes.size(), def.conns.size()};
    for (int id : def.inputIds)
        v.push_back(static_cast<uint64_t>(id));
    for (int id : def.outputIds)
        v.push_back(static_cast<uint64_t>(id));
    for (const NetworkDef::Node &node : def.nodes) {
        v.insert(v.end(), {static_cast<uint64_t>(node.id), bits(node.bias),
                           static_cast<uint64_t>(node.act),
                           static_cast<uint64_t>(node.agg)});
    }
    for (const NetworkDef::Conn &conn : def.conns) {
        v.insert(v.end(), {static_cast<uint64_t>(conn.from),
                           static_cast<uint64_t>(conn.to),
                           bits(conn.weight)});
    }
    return v;
}

NeatConfig
smallConfig()
{
    auto cfg = NeatConfig::forTask(2, 1, 3.9);
    cfg.populationSize = 30;
    return cfg;
}

TEST(Population, StartsSpeciatedAtGenerationZero)
{
    Population pop(smallConfig(), 1);
    EXPECT_EQ(pop.generation(), 0);
    EXPECT_EQ(pop.genomes().size(), 30u);
    EXPECT_GE(pop.speciesSet().count(), 1u);
}

TEST(Population, EvaluateAllAssignsFitness)
{
    Population pop(smallConfig(), 2);
    pop.evaluateAll([](const Genome &g) {
        return static_cast<double>(g.conns.size());
    });
    for (const auto &[key, genome] : pop.genomes())
        EXPECT_TRUE(genome.evaluated());
}

TEST(Population, BestReturnsMaximum)
{
    Population pop(smallConfig(), 3);
    pop.evaluateAll([](const Genome &g) {
        return static_cast<double>(g.key());
    });
    int maxKey = 0;
    for (const auto &[key, genome] : pop.genomes())
        maxKey = std::max(maxKey, key);
    EXPECT_EQ(pop.best().key(), maxKey);
}

TEST(Population, SolvedTracksThreshold)
{
    Population pop(smallConfig(), 4); // threshold 3.9
    pop.evaluateAll([](const Genome &) { return 1.0; });
    EXPECT_FALSE(pop.solved());
    pop.evaluateAll([](const Genome &) { return 4.0; });
    EXPECT_TRUE(pop.solved());
}

TEST(Population, AdvanceProducesNewGeneration)
{
    Population pop(smallConfig(), 5);
    pop.evaluateAll([](const Genome &g) {
        return static_cast<double>(g.key() % 5);
    });
    pop.advance();
    EXPECT_EQ(pop.generation(), 1);
    EXPECT_EQ(pop.genomes().size(), 30u);
    for (const auto &[key, genome] : pop.genomes()) {
        // Elites carry their old fitness; children are unevaluated.
        (void)genome;
    }
}

TEST(PopulationDeath, AdvanceBeforeEvaluationPanics)
{
    Population pop(smallConfig(), 6);
    EXPECT_DEATH(pop.advance(), "evaluat");
}

TEST(Population, DeterministicAcrossRuns)
{
    auto run = [](uint64_t seed) {
        Population pop(smallConfig(), seed);
        double trace = 0.0;
        for (int gen = 0; gen < 3; ++gen) {
            pop.evaluateAll([](const Genome &g) {
                double w = 0.0;
                for (const auto &[key, gene] : g.conns)
                    w += gene.enabled ? gene.weight : 0.0;
                return w;
            });
            trace += pop.best().fitness;
            pop.advance();
        }
        return trace;
    };
    EXPECT_DOUBLE_EQ(run(42), run(42));
    EXPECT_NE(run(42), run(43));
}

TEST(Population, StatsSummarizeStructure)
{
    Population pop(smallConfig(), 7);
    pop.evaluateAll([](const Genome &) { return 1.0; });
    const auto stats = pop.stats();
    EXPECT_EQ(stats.generation, 0);
    EXPECT_EQ(stats.nodeCounts.count(), 30u);
    EXPECT_DOUBLE_EQ(stats.bestFitness, 1.0);
    EXPECT_DOUBLE_EQ(stats.meanFitness, 1.0);
    // Gen-0 genomes: 1 node (the output), 2 conns, density 1.0.
    EXPECT_NEAR(stats.densities.mean(), 1.0, 1e-9);
}

TEST(Population, StatsFromIndividualsMatchDecodingStats)
{
    // Every generation of the LunarLander evolution behind
    // evolvedPopulation("lunar_lander", 8, 60, 11): the summary over
    // the platform's per-genome NetStats (one analysis per def) must
    // equal the decoding summary bit for bit.
    constexpr int kGenerations = 8;
    constexpr uint64_t kSeed = 11;
    const EnvSpec &spec = envSpec("lunar_lander");
    NeatConfig cfg = NeatConfig::forTask(spec.numInputs, spec.numOutputs,
                                         spec.requiredFitness);
    cfg.populationSize = 60;
    Population pop(cfg, kSeed);
    runtime::ParallelEval rollout(runtime::RuntimeConfig{});
    std::vector<NetworkDef> defs;
    for (int gen = 0;; ++gen) {
        SCOPED_TRACE("generation " + std::to_string(gen));
        std::vector<int> keys;
        std::vector<NetStats> individuals;
        defs.clear();
        for (const auto &[key, genome] : pop.genomes()) {
            keys.push_back(key);
            defs.push_back(genome.toNetworkDef(cfg));
            individuals.push_back(
                computeNetStats(defs.back(), analyzeNetwork(defs.back())));
        }
        const std::unique_ptr<BatchNetwork> batch =
            compilePopulation(defs).value();
        runtime::EvalPlan plan;
        plan.spec = &spec;
        plan.lanes = keys.size();
        plan.episodeSeeds = {
            kSeed ^ (0x51ED270BULL * (static_cast<uint64_t>(gen) + 1))};
        plan.act = batchPolicy(*batch, spec);
        const runtime::EvalOutcome outcome = rollout.evaluate(plan);
        for (size_t i = 0; i < keys.size(); ++i)
            pop.genomes().at(keys[i]).fitness = outcome.fitness[i];

        const GenerationStats want = pop.stats();
        const GenerationStats got = pop.stats(individuals);
        EXPECT_EQ(got.generation, want.generation);
        EXPECT_EQ(got.numSpecies, want.numSpecies);
        EXPECT_EQ(bits(got.bestFitness), bits(want.bestFitness));
        EXPECT_EQ(bits(got.meanFitness), bits(want.meanFitness));
        expectSameDistribution(got.nodeCounts, want.nodeCounts);
        expectSameDistribution(got.connCounts, want.connCounts);
        expectSameDistribution(got.densities, want.densities);
        if (gen == kGenerations - 1)
            break;
        pop.advance();
    }

    // The loop above is the helper's evolution, def for def.
    const std::vector<NetworkDef> helper =
        evolvedPopulation("lunar_lander", kGenerations, 60, kSeed);
    ASSERT_EQ(defs.size(), helper.size());
    for (size_t i = 0; i < defs.size(); ++i)
        EXPECT_EQ(flatten(defs[i]), flatten(helper[i])) << "def " << i;
}

TEST(PopulationDeath, StatsOfTheWrongCountPanics)
{
    Population pop(smallConfig(), 9);
    pop.evaluateAll([](const Genome &) { return 1.0; });
    EXPECT_DEATH((void)pop.stats(std::vector<NetStats>(3)), "NetStats");
}

TEST(Population, EvolutionGrowsStructureOverTime)
{
    auto cfg = smallConfig();
    cfg.fitnessThreshold = 1e9; // never stop
    Population pop(cfg, 8);
    // Reward structural size: evolution should oblige.
    auto sizeFitness = [](const Genome &g) {
        return static_cast<double>(g.size().first * 3 + g.size().second);
    };
    pop.evaluateAll(sizeFitness);
    const double startNodes = pop.stats().nodeCounts.mean();
    for (int gen = 0; gen < 10; ++gen) {
        pop.advance();
        pop.evaluateAll(sizeFitness);
    }
    EXPECT_GT(pop.stats().nodeCounts.mean(), startNodes);
}

} // namespace
} // namespace e3
