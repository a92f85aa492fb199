/**
 * @file
 * Equivalence suite for the batched SoA inference engine.
 *
 * The contract under test is exact: BatchEvaluator (and both
 * compilePopulation entry points) must be bit-identical to per-genome
 * FeedForwardNetwork::activate() — same doubles, not merely close —
 * across every (activation x aggregation) pair, randomized irregular
 * topologies, degenerate shapes, and any batch size or thread count.
 * EXPECT_EQ on doubles below is therefore deliberate.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "e3/synthetic.hh"
#include "nn/batch_eval.hh"
#include "nn/compile.hh"
#include "nn/network.hh"
#include "nn/quantize.hh"

namespace e3 {
namespace {

/** Random inputs in a range that exercises every activation's bends. */
std::vector<double>
randomInputs(size_t n, Rng &rng)
{
    std::vector<double> in(n);
    for (double &v : in)
        v = rng.uniform(-2.0, 2.0);
    return in;
}

/** A population of synthetic irregular nets with randomized per-node
 *  (activation, aggregation) so segment grouping is exercised. */
std::vector<NetworkDef>
randomizedPopulation(size_t count, uint64_t seed, size_t numInputs = 5,
                     size_t numOutputs = 3)
{
    SyntheticParams params;
    params.numIndividuals = count;
    params.numInputs = numInputs;
    params.numOutputs = numOutputs;
    params.numHidden = 12;
    params.sparsity = 0.35;
    params.hiddenLayers = 3;
    std::vector<NetworkDef> defs = syntheticPopulation(params, seed);
    Rng rng(seed ^ 0xBADC0FFEEULL);
    for (NetworkDef &def : defs) {
        for (NetworkDef::Node &node : def.nodes) {
            node.act = activationFromIndex(
                static_cast<int>(rng.uniformInt(numActivations)));
            node.agg = aggregationFromIndex(
                static_cast<int>(rng.uniformInt(numAggregations)));
            node.bias = rng.uniform(-1.0, 1.0);
        }
    }
    return defs;
}

/** Reference outputs: one FeedForwardNetwork per def, plain activate. */
std::vector<std::vector<double>>
referenceOutputs(const std::vector<NetworkDef> &defs,
                 const std::vector<std::vector<double>> &inputs)
{
    std::vector<std::vector<double>> out;
    out.reserve(defs.size());
    for (size_t i = 0; i < defs.size(); ++i) {
        FeedForwardNetwork net = FeedForwardNetwork::create(defs[i]);
        out.push_back(net.activate(inputs[i]));
    }
    return out;
}

void
expectBitIdentical(const std::vector<double> &expect, const double *got,
                   size_t n, const std::string &what)
{
    ASSERT_EQ(expect.size(), n) << what;
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(expect[i], got[i]) << what << " output " << i;
}

// --- exhaustive (activation x aggregation) sweep ---------------------

TEST(BatchEval, EveryActivationAggregationPairBitIdentical)
{
    // One small irregular net per (act, agg) pair: 3 inputs feeding two
    // hidden nodes feeding 2 outputs, plus a direct input->output edge
    // so outputs mix single-link and multi-link folds.
    Rng rng(101);
    for (int a = 0; a < numActivations; ++a) {
        for (int g = 0; g < numAggregations; ++g) {
            const Activation act = activationFromIndex(a);
            const Aggregation agg = aggregationFromIndex(g);
            NetworkDef def = NetworkDef::empty(3, 2);
            def.nodes.push_back({2, 0.1, act, agg});
            def.nodes.push_back({3, -0.2, act, agg});
            for (NetworkDef::Node &node : def.nodes) {
                node.act = act;
                node.agg = agg;
            }
            def.conns = {
                {-1, 2, 0.5},  {-2, 2, -1.5}, {-3, 3, 2.0},
                {-1, 3, 0.25}, {2, 0, 1.1},   {3, 0, -0.7},
                {3, 1, 0.9},   {-2, 1, 0.3},
            };

            Result<std::unique_ptr<BatchEvaluator>> batch =
                BatchEvaluator::compileReplicated(def, 4);
            ASSERT_TRUE(batch.ok()) << batch.message();
            FeedForwardNetwork ref = FeedForwardNetwork::create(def);

            for (int trial = 0; trial < 8; ++trial) {
                const std::vector<double> in = randomInputs(3, rng);
                const std::vector<double> expect = ref.activate(in);
                std::vector<double> got(2);
                (*batch)->activateLane(trial % 4, in.data(), got.data());
                expectBitIdentical(expect, got.data(), 2,
                                   "act=" + activationName(act) +
                                       " agg=" + aggregationName(agg));
            }
        }
    }
}

// --- randomized irregular populations, all batch sizes ---------------

TEST(BatchEval, RandomIrregularPopulationsBitIdentical)
{
    for (const size_t popSize : {size_t{1}, size_t{7}, size_t{64}}) {
        const std::vector<NetworkDef> defs =
            randomizedPopulation(popSize, 40 + popSize);
        Result<std::unique_ptr<BatchEvaluator>> batch =
            BatchEvaluator::compile(defs);
        ASSERT_TRUE(batch.ok()) << batch.message();
        ASSERT_EQ((*batch)->lanes(), popSize);

        Rng rng(7 * popSize + 1);
        std::vector<std::vector<double>> inputs;
        for (size_t i = 0; i < popSize; ++i)
            inputs.push_back(randomInputs(5, rng));
        const std::vector<std::vector<double>> expect =
            referenceOutputs(defs, inputs);

        for (size_t i = 0; i < popSize; ++i) {
            std::vector<double> got(3);
            (*batch)->activateLane(i, inputs[i].data(), got.data());
            expectBitIdentical(expect[i], got.data(), 3,
                               "pop=" + std::to_string(popSize) +
                                   " lane=" + std::to_string(i));
        }
    }
}

TEST(BatchEval, ActivateBatchStridedRowsBitIdentical)
{
    const size_t pop = 64;
    const std::vector<NetworkDef> defs = randomizedPopulation(pop, 99);
    Result<std::unique_ptr<BatchEvaluator>> batch =
        BatchEvaluator::compile(defs);
    ASSERT_TRUE(batch.ok()) << batch.message();

    // Strides wider than the arity: unused columns must stay untouched.
    const size_t inStride = 9, outStride = 6;
    Rng rng(4242);
    std::vector<double> in(pop * inStride, -123.0);
    std::vector<std::vector<double>> perLane;
    for (size_t i = 0; i < pop; ++i) {
        perLane.push_back(randomInputs(5, rng));
        std::copy(perLane[i].begin(), perLane[i].end(),
                  in.begin() + i * inStride);
    }
    const std::vector<std::vector<double>> expect =
        referenceOutputs(defs, perLane);

    // Partial batches too: count < lanes() must only touch [0, count).
    for (const size_t count : {size_t{1}, size_t{7}, pop}) {
        std::vector<double> out(pop * outStride, -77.0);
        (*batch)->activateBatch(count, in.data(), inStride, out.data(),
                                outStride);
        for (size_t i = 0; i < count; ++i)
            expectBitIdentical(expect[i], out.data() + i * outStride, 3,
                               "count=" + std::to_string(count) +
                                   " lane=" + std::to_string(i));
        for (size_t i = count; i < pop; ++i)
            EXPECT_EQ(out[i * outStride], -77.0)
                << "lane " << i << " written beyond count";
        for (size_t i = 0; i < count; ++i)
            for (size_t j = 3; j < outStride; ++j)
                EXPECT_EQ(out[i * outStride + j], -77.0)
                    << "stride padding clobbered";
    }
}

TEST(BatchEval, LargeReplicatedBatchBitIdentical)
{
    // 1024 lanes of one champion: the serve-side shape at scale.
    const std::vector<NetworkDef> defs = randomizedPopulation(1, 77);
    Result<std::unique_ptr<BatchEvaluator>> batch =
        BatchEvaluator::compileReplicated(defs[0], 1024);
    ASSERT_TRUE(batch.ok()) << batch.message();
    ASSERT_EQ((*batch)->lanes(), 1024u);

    FeedForwardNetwork ref = FeedForwardNetwork::create(defs[0]);
    Rng rng(55);
    std::vector<double> in(1024 * 5), out(1024 * 3);
    std::vector<std::vector<double>> perLane;
    for (size_t i = 0; i < 1024; ++i) {
        perLane.push_back(randomInputs(5, rng));
        std::copy(perLane[i].begin(), perLane[i].end(),
                  in.begin() + i * 5);
    }
    (*batch)->activateBatch(1024, in.data(), 5, out.data(), 3);
    for (size_t i = 0; i < 1024; ++i)
        expectBitIdentical(ref.activate(perLane[i]), out.data() + i * 3,
                           3, "lane " + std::to_string(i));
}

// --- concurrency: distinct lanes from distinct threads ---------------

TEST(BatchEval, ConcurrentDistinctLanesBitIdentical)
{
    const size_t pop = 32;
    const std::vector<NetworkDef> defs = randomizedPopulation(pop, 123);
    Result<std::unique_ptr<BatchEvaluator>> batch =
        BatchEvaluator::compile(defs);
    ASSERT_TRUE(batch.ok()) << batch.message();

    Rng rng(321);
    std::vector<std::vector<double>> inputs;
    for (size_t i = 0; i < pop; ++i)
        inputs.push_back(randomInputs(5, rng));
    const std::vector<std::vector<double>> expect =
        referenceOutputs(defs, inputs);

    std::vector<std::vector<double>> got(pop, std::vector<double>(3));
    // The test drives raw threads on purpose to provoke races in
    // activateLane.
    // e3-lint: raw-thread-ok
    std::vector<std::thread> threads;
    const size_t numThreads = 4;
    for (size_t t = 0; t < numThreads; ++t) {
        threads.emplace_back([&, t] {
            // Interleaved assignment: adjacent lanes on different
            // threads, so false sharing / races would surface.
            for (size_t i = t; i < pop; i += numThreads)
                for (int rep = 0; rep < 50; ++rep)
                    (*batch)->activateLane(i, inputs[i].data(),
                                           got[i].data());
        });
    }
    for (std::thread &th : threads) // e3-lint: raw-thread-ok
        th.join();
    for (size_t i = 0; i < pop; ++i)
        expectBitIdentical(expect[i], got[i].data(), 3,
                           "lane " + std::to_string(i));
}

// --- the population-compile entry points -----------------------------

TEST(BatchEval, CompilePopulationEnginesAgree)
{
    const std::vector<NetworkDef> defs = randomizedPopulation(7, 2026);
    Rng rng(11);
    std::vector<std::vector<double>> inputs;
    for (size_t i = 0; i < 7; ++i)
        inputs.push_back(randomInputs(5, rng));
    const std::vector<std::vector<double>> expect =
        referenceOutputs(defs, inputs);

    for (const BatchEngine engine :
         {BatchEngine::Auto, BatchEngine::PerGenome}) {
        Result<std::unique_ptr<BatchNetwork>> batch =
            compilePopulation(defs, {}, engine);
        ASSERT_TRUE(batch.ok()) << batch.message();
        for (size_t i = 0; i < 7; ++i) {
            std::vector<double> got(3);
            (*batch)->activateLane(i, inputs[i].data(), got.data());
            expectBitIdentical(expect[i], got.data(), 3,
                               "engine=" +
                                   std::to_string(static_cast<int>(engine)) +
                                   " lane=" + std::to_string(i));
        }
    }
}

TEST(BatchEval, AutoFallsBackToAdapterForQuantization)
{
    // Quantized options are outside the SoA engine's domain; Auto must
    // route them through the adapter and still satisfy the contract
    // (identical to per-genome compileNetwork with the same options).
    const std::vector<NetworkDef> defs = randomizedPopulation(3, 8);
    NetworkCompileOptions options;
    FixedPointFormat quant;
    quant.totalBits = 8;
    quant.fracBits = 4;
    options.quantization = quant;

    Result<std::unique_ptr<BatchNetwork>> batch =
        compilePopulation(defs, options, BatchEngine::Auto);
    ASSERT_TRUE(batch.ok()) << batch.message();

    // The SoA engine itself must reject the same options cleanly.
    EXPECT_FALSE(BatchEvaluator::compile(defs, options).ok());

    Rng rng(5);
    for (size_t i = 0; i < 3; ++i) {
        const std::vector<double> in = randomInputs(5, rng);
        Result<std::unique_ptr<Network>> ref =
            compileNetwork(defs[i], options);
        ASSERT_TRUE(ref.ok()) << ref.message();
        const std::vector<double> expect = (*ref)->activate(in);
        std::vector<double> got(3);
        (*batch)->activateLane(i, in.data(), got.data());
        expectBitIdentical(expect, got.data(), 3,
                           "quantized lane " + std::to_string(i));
    }
}

// --- degenerate shapes and error paths -------------------------------

TEST(BatchEval, UnconnectedOutputsAndEmptyDef)
{
    // A def with no connections at all: outputs emit their activated
    // bias, exactly as FeedForwardNetwork does.
    NetworkDef def = NetworkDef::empty(2, 2);
    def.nodes[0].bias = 0.75;
    def.nodes[1].bias = -2.0;
    Result<std::unique_ptr<BatchEvaluator>> batch =
        BatchEvaluator::compileReplicated(def, 3);
    ASSERT_TRUE(batch.ok()) << batch.message();

    FeedForwardNetwork ref = FeedForwardNetwork::create(def);
    const std::vector<double> in = {0.5, -0.5};
    const std::vector<double> expect = ref.activate(in);
    std::vector<double> got(2);
    (*batch)->activateLane(2, in.data(), got.data());
    expectBitIdentical(expect, got.data(), 2, "biases only");
}

TEST(BatchEval, CompileErrors)
{
    // Empty population.
    EXPECT_FALSE(BatchEvaluator::compile({}).ok());

    // Mismatched arity across the population.
    std::vector<NetworkDef> mixed = {NetworkDef::empty(2, 1),
                                     NetworkDef::empty(3, 1)};
    Result<std::unique_ptr<BatchEvaluator>> arity =
        BatchEvaluator::compile(mixed);
    EXPECT_FALSE(arity.ok());

    // Malformed def (connection from an undeclared node id) is an
    // error, not a crash, and names the offending genome.
    std::vector<NetworkDef> bad = {NetworkDef::empty(2, 1),
                                   NetworkDef::empty(2, 1)};
    bad[1].conns.push_back({-1, 999, 1.0});
    Result<std::unique_ptr<BatchNetwork>> malformed =
        compilePopulation(bad);
    ASSERT_FALSE(malformed.ok());
    EXPECT_NE(malformed.message().find("genome 1"), std::string::npos)
        << malformed.message();

    // Recurrent options are outside the SoA domain.
    NetworkCompileOptions recur;
    recur.recurrent = true;
    EXPECT_FALSE(
        BatchEvaluator::compileReplicated(NetworkDef::empty(2, 1), 2, recur)
            .ok());
    // ...but Auto routes them through the adapter.
    EXPECT_TRUE(
        compileReplicated(NetworkDef::empty(2, 1), 2, recur).ok());
}

TEST(BatchEval, OversizedBatchIsAnErrorNotAnAllocation)
{
    // Three value slots per lane: 2^32/3 + 1 lanes need one slot more
    // than a 32-bit arena offset addresses. The compile must refuse
    // before allocating anything lane-sized; SIZE_MAX is what a
    // negative count cast to size_t arrives as.
    const NetworkDef def = NetworkDef::empty(2, 1);
    const size_t lanes = (size_t{1} << 32) / 3 + 1;
    Result<std::unique_ptr<BatchEvaluator>> direct =
        BatchEvaluator::compileReplicated(def, lanes);
    ASSERT_FALSE(direct.ok());
    EXPECT_NE(direct.message().find("slot"), std::string::npos)
        << direct.message();
    EXPECT_FALSE(compileReplicated(def, lanes).ok());
    EXPECT_FALSE(compileReplicated(def, SIZE_MAX).ok());
}

TEST(BatchEval, ResetIsIdempotentForFeedForward)
{
    const std::vector<NetworkDef> defs = randomizedPopulation(4, 31);
    Result<std::unique_ptr<BatchEvaluator>> batch =
        BatchEvaluator::compile(defs);
    ASSERT_TRUE(batch.ok()) << batch.message();

    Rng rng(13);
    const std::vector<double> in = randomInputs(5, rng);
    std::vector<double> first(3), second(3);
    (*batch)->activateLane(1, in.data(), first.data());
    (*batch)->reset();
    (*batch)->activateLane(1, in.data(), second.data());
    expectBitIdentical(first, second.data(), 3, "post-reset");
}

TEST(BatchEval, TotalOpsCountsEveryLink)
{
    NetworkDef def = NetworkDef::empty(2, 1);
    def.conns = {{-1, 0, 1.0}, {-2, 0, 1.0}};

    // Replicated lanes share one program: 2 ops, not 2 x 8.
    Result<std::unique_ptr<BatchEvaluator>> replicated =
        BatchEvaluator::compileReplicated(def, 8);
    ASSERT_TRUE(replicated.ok()) << replicated.message();
    EXPECT_EQ((*replicated)->totalOps(), 2u);

    // A population compile owns one program per genome.
    Result<std::unique_ptr<BatchEvaluator>> population =
        BatchEvaluator::compile({def, def, def});
    ASSERT_TRUE(population.ok()) << population.message();
    EXPECT_EQ((*population)->totalOps(), 6u);
}

// --- the vector activate() wrapper over activateInto() ---------------

TEST(BatchEval, ActivateWrapperMatchesActivateInto)
{
    const std::vector<NetworkDef> defs = randomizedPopulation(1, 63);
    FeedForwardNetwork net = FeedForwardNetwork::create(defs[0]);
    Rng rng(9);
    const std::vector<double> in = randomInputs(5, rng);
    const std::vector<double> viaWrapper = net.activate(in);
    std::vector<double> viaInto(3);
    net.activateInto(in.data(), viaInto.data());
    expectBitIdentical(viaWrapper, viaInto.data(), 3, "wrapper");
}

} // namespace
} // namespace e3
