/**
 * @file
 * The single-pass network analysis (nn/layering) and everything built
 * on it, checked against the fixed-point reference in
 * fixed_point_reference.hh on two def sets:
 *  - thousands of seeded random defs with cycles, self-loops, orphan
 *    outputs, pruned hidden nodes, skip links, duplicate connections,
 *    undeclared-id references and malformed declarations;
 *  - every def decoded during short LunarLander and BipedalWalker
 *    evolutions.
 * Compared: required sets, layers, acyclicity, NetStats (density bit
 * for bit), invariant-check verdicts and messages, compiled slots and
 * links, bitwise outputs, the population and replicated BatchPlans
 * (the population plan both analysing and over shared analyses), and
 * INAX costs. The evolved workloads themselves are pinned by
 * digest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "e3/experiment.hh"
#include "e3/platform.hh"
#include "fixed_point_reference.hh"
#include "inax/dma.hh"
#include "inax/pu.hh"
#include "neat/serialize.hh"
#include "nn/batch_eval.hh"
#include "nn/compile.hh"
#include "nn/layering.hh"
#include "nn/net_stats.hh"
#include "nn/recurrent.hh"
#include "persist/checkpoint.hh"

namespace e3 {
namespace {

uint64_t
bits(double x)
{
    return std::bit_cast<uint64_t>(x);
}

/**
 * One random def. Hidden ids are sparse and declared out of order;
 * connections either respect a random topological order (acyclic,
 * with skip links) or are free (cycles, self-loops, duplicates).
 * Occasionally an id is referenced without being declared, or a
 * declaration is malformed.
 */
NetworkDef
randomDef(Rng &rng)
{
    const auto numInputs = static_cast<size_t>(rng.uniformInt(1, 6));
    const auto numOutputs = static_cast<size_t>(rng.uniformInt(1, 4));
    NetworkDef def = NetworkDef::empty(numInputs, numOutputs);
    for (auto &node : def.nodes) {
        node.bias = rng.normal();
        node.act = static_cast<Activation>(
            rng.uniformInt(static_cast<uint64_t>(kActivationCount)));
    }

    std::vector<int> hidden;
    const auto numHidden = static_cast<size_t>(rng.uniformInt(0, 12));
    while (hidden.size() < numHidden) {
        const int id = static_cast<int>(
            rng.uniformInt(static_cast<int64_t>(numOutputs), 60));
        if (std::find(hidden.begin(), hidden.end(), id) == hidden.end())
            hidden.push_back(id);
    }
    for (int id : hidden) {
        def.nodes.push_back(
            {id, rng.normal(),
             static_cast<Activation>(rng.uniformInt(
                 static_cast<uint64_t>(kActivationCount))),
             rng.chance(0.1) ? Aggregation::Max : Aggregation::Sum});
    }

    // Random topological rank over computed nodes; acyclic defs only
    // connect lower rank to higher rank (inputs rank first).
    std::vector<int> computed(def.outputIds.begin(), def.outputIds.end());
    computed.insert(computed.end(), hidden.begin(), hidden.end());
    const std::vector<size_t> perm = rng.permutation(computed.size());
    std::vector<int> ranked;
    for (size_t i : perm)
        ranked.push_back(computed[i]);

    const bool acyclic = rng.chance(0.6);
    const int undeclared = 100 + static_cast<int>(rng.uniformInt(5));
    const auto numConns = static_cast<size_t>(rng.uniformInt(0, 40));
    for (size_t c = 0; c < numConns; ++c) {
        int from = 0;
        int to = 0;
        if (acyclic) {
            const size_t dst =
                static_cast<size_t>(rng.uniformInt(ranked.size()));
            to = ranked[dst];
            const size_t src = static_cast<size_t>(
                rng.uniformInt(numInputs + dst));
            from = src < numInputs ? def.inputIds[src]
                                   : ranked[src - numInputs];
        } else {
            to = ranked[static_cast<size_t>(
                rng.uniformInt(ranked.size()))];
            const size_t src = static_cast<size_t>(
                rng.uniformInt(numInputs + ranked.size()));
            from = src < numInputs ? def.inputIds[src]
                                   : ranked[src - numInputs];
        }
        if (rng.chance(0.03))
            from = undeclared;
        if (rng.chance(0.02))
            to = undeclared;
        def.conns.push_back({from, to, rng.normal()});
    }
    if (!def.conns.empty() && rng.chance(0.05))
        def.conns.push_back(def.conns[static_cast<size_t>(
            rng.uniformInt(def.conns.size()))]);

    // Rare malformed declarations for the invariant check.
    if (rng.chance(0.02))
        def.inputIds.push_back(def.inputIds.front());
    if (rng.chance(0.02) && !hidden.empty())
        def.nodes.push_back({hidden.front(), 0.0, Activation::Sigmoid,
                             Aggregation::Sum});
    if (rng.chance(0.02))
        def.nodes.push_back({def.inputIds.back(), 0.0,
                             Activation::Sigmoid, Aggregation::Sum});
    if (rng.chance(0.02))
        def.outputIds.push_back(99);
    if (rng.chance(0.03)) {
        // An input listed as an output too: required, yet available
        // from the start.
        def.outputIds.push_back(def.inputIds.front());
        if (rng.chance(0.5))
            def.nodes.push_back({def.inputIds.front(), rng.normal(),
                                 Activation::Tanh, Aggregation::Sum});
    }
    if (rng.chance(0.02) && !def.conns.empty())
        def.conns.back().to = def.inputIds.front();
    return def;
}

/** Would the reference FeedForward compile succeed on this def? */
bool
referenceCompiles(const NetworkDef &def, bool recurrent)
{
    std::set<int> declared;
    for (const auto &n : def.nodes) {
        if (!declared.insert(n.id).second)
            return false;
    }
    for (int id : def.outputIds) {
        if (!declared.count(id))
            return false;
    }
    if (!recurrent && !reference::isAcyclic(def))
        return false;
    const std::set<int> inputs(def.inputIds.begin(), def.inputIds.end());
    for (int id : reference::requiredNodes(def)) {
        if (!declared.count(id) && (recurrent || !inputs.count(id)))
            return false;
    }
    return true;
}

void
expectSameNode(const EvalNode &got, const EvalNode &want)
{
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.slot, want.slot);
    EXPECT_EQ(bits(got.bias), bits(want.bias));
    EXPECT_EQ(got.act, want.act);
    EXPECT_EQ(got.agg, want.agg);
    ASSERT_EQ(got.links.size(), want.links.size());
    for (size_t l = 0; l < got.links.size(); ++l) {
        EXPECT_EQ(got.links[l].srcSlot, want.links[l].srcSlot);
        EXPECT_EQ(bits(got.links[l].weight), bits(want.links[l].weight));
    }
}

void
expectSameStats(const NetStats &got, const NetStats &want)
{
    EXPECT_EQ(got.activeNodes, want.activeNodes);
    EXPECT_EQ(got.activeConnections, want.activeConnections);
    EXPECT_EQ(got.layerSizes, want.layerSizes);
    EXPECT_EQ(got.inDegrees, want.inDegrees);
    EXPECT_EQ(bits(got.density), bits(want.density));
}

/** One activation on random inputs, compared bit for bit. */
template <typename Reference>
void
expectSameOutputs(Network &got, Reference &want, size_t numInputs,
                  Rng &rng)
{
    std::vector<double> in(numInputs);
    for (double &x : in)
        x = rng.uniform(-2.0, 2.0);
    const std::vector<double> a = got.activate(in);
    const std::vector<double> b = want.activate(in);
    ASSERT_EQ(a.size(), b.size());
    for (size_t o = 0; o < a.size(); ++o)
        EXPECT_EQ(bits(a[o]), bits(b[o]));
}

/** The INAX cost as puIndividualCost computed it from a compiled net. */
IndividualCost
referenceCost(const NetworkDef &def, const InaxConfig &cfg)
{
    const reference::FeedForwardNet net =
        reference::createFeedForward(def);
    std::vector<std::vector<size_t>> degrees;
    size_t nodes = 0;
    size_t conns = 0;
    for (const auto &layer : net.layers) {
        degrees.emplace_back();
        for (const auto &node : layer) {
            degrees.back().push_back(node.links.size());
            ++nodes;
            conns += node.links.size();
        }
    }
    const InferenceCost inference = scheduleInference(degrees, cfg);
    IndividualCost cost;
    cost.inferenceCycles = inference.cycles;
    cost.peActiveCycles = inference.peActiveCycles;
    cost.setupCycles = setupCycles(nodes, conns, cfg);
    cost.numInputs = net.numInputs;
    cost.numOutputs = net.outputSlots.size();
    cost.weightBufferWords = configWords(nodes, conns);
    cost.valueBufferWords = net.slotCount;
    return cost;
}

void
expectSameCost(const IndividualCost &got, const IndividualCost &want)
{
    EXPECT_EQ(got.inferenceCycles, want.inferenceCycles);
    EXPECT_EQ(got.peActiveCycles, want.peActiveCycles);
    EXPECT_EQ(got.setupCycles, want.setupCycles);
    EXPECT_EQ(got.numInputs, want.numInputs);
    EXPECT_EQ(got.numOutputs, want.numOutputs);
    EXPECT_EQ(got.weightBufferWords, want.weightBufferWords);
    EXPECT_EQ(got.valueBufferWords, want.valueBufferWords);
}

std::vector<InaxConfig>
costConfigs()
{
    InaxConfig wide;
    wide.numPEs = 4;
    InaxConfig skip;
    skip.numPEs = 2;
    skip.activationDensity = 0.6;
    return {InaxConfig{}, wide, skip};
}

/** Every per-def comparison; returns true when the def is compilable. */
bool
checkDef(const NetworkDef &def, Rng &rng)
{
    const std::set<int> wantRequired = reference::requiredNodes(def);
    EXPECT_EQ(requiredNodes(def),
              std::vector<int>(wantRequired.begin(), wantRequired.end()));
    const bool acyclic = reference::isAcyclic(def);
    EXPECT_EQ(isAcyclic(def), acyclic);
    expectSameStats(computeNetStats(def), reference::computeNetStats(def));
    for (bool recurrent : {false, true}) {
        const Status got = checkDefInvariants(def, recurrent);
        const Status want = reference::checkDefInvariants(def, recurrent);
        EXPECT_EQ(got.ok(), want.ok());
        EXPECT_EQ(got.message(), want.message());
    }

    if (referenceCompiles(def, true)) {
        reference::RecurrentNet want = reference::createRecurrent(def);
        RecurrentNetwork got = RecurrentNetwork::create(def);
        EXPECT_EQ(got.nodeCount(), want.nodes.size());
        std::vector<size_t> wantDegrees;
        for (const auto &node : want.nodes)
            wantDegrees.push_back(node.links.size());
        EXPECT_EQ(got.inDegreeProfile(), wantDegrees);
        for (int tick = 0; tick < 4; ++tick)
            expectSameOutputs(got, want, def.inputIds.size(), rng);
    }

    if (!acyclic || !referenceCompiles(def, false))
        return false;
    EXPECT_EQ(feedForwardLayers(def), reference::feedForwardLayers(def));

    const reference::FeedForwardNet want =
        reference::createFeedForward(def);
    FeedForwardNetwork got = FeedForwardNetwork::create(def);
    EXPECT_EQ(got.valueSlots(), want.slotCount);
    EXPECT_EQ(got.outputSlots(), want.outputSlots);
    EXPECT_EQ(got.layers().size(), want.layers.size());
    for (size_t l = 0;
         l < std::min(got.layers().size(), want.layers.size()); ++l) {
        EXPECT_EQ(got.layers()[l].size(), want.layers[l].size());
        for (size_t i = 0; i < std::min(got.layers()[l].size(),
                                        want.layers[l].size());
             ++i)
            expectSameNode(got.layers()[l][i], want.layers[l][i]);
    }
    for (int trial = 0; trial < 3; ++trial)
        expectSameOutputs(got, want, def.inputIds.size(), rng);

    for (const InaxConfig &cfg : costConfigs()) {
        const IndividualCost wantCost = referenceCost(def, cfg);
        expectSameCost(puIndividualCost(def, cfg), wantCost);
        expectSameCost(puIndividualCost(reference::computeNetStats(def),
                                        def.inputIds.size(),
                                        def.outputIds.size(), cfg),
                       wantCost);
    }
    return true;
}

void
expectSamePlan(const BatchPlan &got, const BatchPlan &want)
{
    EXPECT_EQ(got.numInputs, want.numInputs);
    EXPECT_EQ(got.numOutputs, want.numOutputs);
    EXPECT_EQ(got.arenaSize, want.arenaSize);
    EXPECT_EQ(got.outputSlots, want.outputSlots);
    ASSERT_EQ(got.ops.size(), want.ops.size());
    for (size_t i = 0; i < got.ops.size(); ++i) {
        EXPECT_EQ(got.ops[i].srcSlot, want.ops[i].srcSlot);
        EXPECT_EQ(bits(got.ops[i].weight), bits(want.ops[i].weight));
    }
    ASSERT_EQ(got.nodes.size(), want.nodes.size());
    for (size_t i = 0; i < got.nodes.size(); ++i) {
        EXPECT_EQ(got.nodes[i].dstSlot, want.nodes[i].dstSlot);
        EXPECT_EQ(got.nodes[i].opBegin, want.nodes[i].opBegin);
        EXPECT_EQ(got.nodes[i].opEnd, want.nodes[i].opEnd);
        EXPECT_EQ(bits(got.nodes[i].bias), bits(want.nodes[i].bias));
    }
    ASSERT_EQ(got.segments.size(), want.segments.size());
    for (size_t i = 0; i < got.segments.size(); ++i) {
        EXPECT_EQ(got.segments[i].nodeBegin, want.segments[i].nodeBegin);
        EXPECT_EQ(got.segments[i].nodeEnd, want.segments[i].nodeEnd);
        EXPECT_EQ(got.segments[i].act, want.segments[i].act);
        EXPECT_EQ(got.segments[i].agg, want.segments[i].agg);
    }
    ASSERT_EQ(got.lanes.size(), want.lanes.size());
    for (size_t i = 0; i < got.lanes.size(); ++i) {
        EXPECT_EQ(got.lanes[i].segBegin, want.lanes[i].segBegin);
        EXPECT_EQ(got.lanes[i].segEnd, want.lanes[i].segEnd);
        EXPECT_EQ(got.lanes[i].valueBase, want.lanes[i].valueBase);
        EXPECT_EQ(got.lanes[i].slotCount, want.lanes[i].slotCount);
        EXPECT_EQ(got.lanes[i].outBase, want.lanes[i].outBase);
    }
}

/**
 * One def replicated over three lanes: lane 0 is the def's reference
 * plan, and each further lane repeats it in its own arena region.
 */
void
checkReplicatedPlan(const NetworkDef &def)
{
    constexpr uint32_t kLanes = 3;
    auto compiled = BatchEvaluator::compileReplicated(def, kLanes);
    ASSERT_TRUE(compiled.ok()) << compiled.message();
    BatchPlan plan = *(*compiled)->plan();
    EXPECT_TRUE(checkPlanInvariants(plan).ok());
    ASSERT_EQ(plan.lanes.size(), kLanes);
    const BatchPlan::LaneProgram &lane0 = plan.lanes[0];
    EXPECT_EQ(plan.arenaSize, kLanes * lane0.slotCount);
    for (uint32_t i = 1; i < kLanes; ++i) {
        const BatchPlan::LaneProgram &lane = plan.lanes[i];
        EXPECT_EQ(lane.segBegin, lane0.segBegin);
        EXPECT_EQ(lane.segEnd, lane0.segEnd);
        EXPECT_EQ(lane.slotCount, lane0.slotCount);
        EXPECT_EQ(lane.outBase, lane0.outBase);
    }
    plan.lanes.resize(1);
    plan.arenaSize = lane0.slotCount;
    expectSamePlan(plan, reference::compilePlan({def}));
}

/**
 * Population plan of the compilable defs with the first's arity, and
 * each def's replicated plan. The plan compiled over the caller's
 * analyses (the platform's shape) must equal the analysing form's.
 */
void
checkPlan(const std::vector<NetworkDef> &defs)
{
    ASSERT_FALSE(defs.empty());
    auto compiled = BatchEvaluator::compile(defs);
    ASSERT_TRUE(compiled.ok()) << compiled.message();
    const BatchPlan *plan = (*compiled)->plan();
    ASSERT_NE(plan, nullptr);
    expectSamePlan(*plan, reference::compilePlan(defs));

    std::vector<NetAnalysis> analyses;
    for (const NetworkDef &def : defs)
        analyses.push_back(analyzeNetwork(def));
    auto shared = compilePopulation(defs, analyses);
    ASSERT_TRUE(shared.ok()) << shared.message();
    ASSERT_NE((*shared)->plan(), nullptr);
    expectSamePlan(*(*shared)->plan(), *plan);
    for (const NetworkDef &def : defs) {
        checkReplicatedPlan(def);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(AnalysisOracle, RandomDefsMatchTheFixedPointReference)
{
    Rng rng(20211);
    size_t compilable = 0;
    size_t cyclic = 0;
    size_t invalid = 0;
    // Well-formed defs by (inputs, outputs): one population plan each.
    std::map<std::pair<size_t, size_t>, std::vector<NetworkDef>> byArity;
    for (int i = 0; i < 4000; ++i) {
        const NetworkDef def = randomDef(rng);
        SCOPED_TRACE("random def " + std::to_string(i));
        cyclic += reference::isAcyclic(def) ? 0 : 1;
        invalid += checkDefInvariants(def, true).ok() ? 0 : 1;
        if (checkDef(def, rng)) {
            ++compilable;
            if (checkDefInvariants(def).ok())
                byArity[{def.inputIds.size(), def.outputIds.size()}]
                    .push_back(def);
        }
        if (HasFailure())
            return;
    }
    // The generator must exercise every regime.
    EXPECT_GT(compilable, 1000u);
    EXPECT_GT(cyclic, 500u);
    EXPECT_GT(invalid, 200u);
    size_t planned = 0;
    for (const auto &[arity, defs] : byArity) {
        checkPlan(defs);
        planned += defs.size();
    }
    EXPECT_GT(planned, 500u);
}

/** Backend that keeps every decoded def of a run. */
class CapturingBackend : public EvalBackend
{
  public:
    explicit CapturingBackend(std::vector<NetworkDef> *defs,
                              std::vector<NetStats> *stats)
        : defs_(defs), stats_(stats)
    {
    }

    std::string name() const override { return "capture"; }

    double evaluateSeconds(const GenerationTrace &trace) override
    {
        defs_->insert(defs_->end(), trace.defs.begin(), trace.defs.end());
        stats_->insert(stats_->end(), trace.individuals.begin(),
                       trace.individuals.end());
        return 1e-3;
    }

    void attributeEnergy(double, EnergyBreakdownInput &) const override {}

  private:
    std::vector<NetworkDef> *defs_;
    std::vector<NetStats> *stats_;
};

void
checkEvolvedDefs(const std::string &env)
{
    PlatformConfig cfg;
    cfg.envName = env;
    cfg.seed = 3;
    cfg.populationSize = 60;
    cfg.maxGenerations = 8;
    std::vector<NetworkDef> defs;
    std::vector<NetStats> stats;
    E3Platform platform(cfg,
                        std::make_unique<CapturingBackend>(&defs, &stats));
    (void)platform.run();
    ASSERT_GE(defs.size(), 120u);
    ASSERT_EQ(defs.size(), stats.size());

    Rng rng(7);
    bool grew = false;
    for (size_t i = 0; i < defs.size(); ++i) {
        SCOPED_TRACE(env + " def " + std::to_string(i));
        EXPECT_TRUE(checkDef(defs[i], rng));
        expectSameStats(stats[i], reference::computeNetStats(defs[i]));
        grew = grew || defs[i].nodes.size() > defs[i].outputIds.size();
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_TRUE(grew) << "no evolved def gained a hidden node";
    checkPlan(defs);
}

/** FNV-1a fold of every field of every def, doubles by their bits. */
uint64_t
defsDigest(const std::vector<NetworkDef> &defs)
{
    RngAudit digest;
    auto mixId = [&](int id) {
        digest.mix(static_cast<uint64_t>(static_cast<int64_t>(id)));
    };
    for (const NetworkDef &def : defs) {
        digest.mix(def.inputIds.size());
        for (int id : def.inputIds)
            mixId(id);
        digest.mix(def.outputIds.size());
        for (int id : def.outputIds)
            mixId(id);
        digest.mix(def.nodes.size());
        for (const NetworkDef::Node &node : def.nodes) {
            mixId(node.id);
            digest.mix(bits(node.bias));
            mixId(static_cast<int>(node.act));
            mixId(static_cast<int>(node.agg));
        }
        digest.mix(def.conns.size());
        for (const NetworkDef::Conn &conn : def.conns) {
            mixId(conn.from);
            mixId(conn.to);
            digest.mix(bits(conn.weight));
        }
    }
    return digest.hash;
}

// The workload helpers' evolution must not drift by a bit: these are
// the digests of the lockstep, one-FeedForwardNetwork-per-genome
// rollout the helpers used before they ran on ParallelEval and the
// batch engine.
TEST(AnalysisOracle, EvolvedWorkloadsArePinned)
{
    EXPECT_EQ(defsDigest(evolvedPopulation("lunar_lander", 8, 60, 11)),
              0xe278d387542caec0ULL);
    const Genome champion = evolvedChampion("lunar_lander", 10, 60, 7);
    EXPECT_EQ(persist::fingerprint(genomeToString(champion)),
              0xc07de75b47c9bfd7ULL);
}

TEST(AnalysisOracle, LunarLanderEvolutionDefsMatch)
{
    checkEvolvedDefs("lunar_lander");
}

TEST(AnalysisOracle, BipedalWalkerEvolutionDefsMatch)
{
    checkEvolvedDefs("bipedal_walker");
}

} // namespace
} // namespace e3
