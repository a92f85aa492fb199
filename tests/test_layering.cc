#include "nn/layering.hh"

#include <gtest/gtest.h>

namespace e3 {
namespace {

/** Two inputs (-1, -2), one output (0), optional hidden nodes. */
NetworkDef
makeDef(std::vector<NetworkDef::Node> hidden,
        std::vector<NetworkDef::Conn> conns, size_t outputs = 1)
{
    NetworkDef def = NetworkDef::empty(2, outputs);
    for (auto &n : hidden)
        def.nodes.push_back(n);
    def.conns = std::move(conns);
    return def;
}

TEST(Layering, DirectInputOutputIsSingleLayer)
{
    const auto def = makeDef({}, {{-1, 0, 1.0}, {-2, 0, 1.0}});
    const auto layers = feedForwardLayers(def);
    ASSERT_EQ(layers.size(), 1u);
    EXPECT_EQ(layers[0], std::vector<int>{0});
}

TEST(Layering, ChainProducesOneNodePerLayer)
{
    const auto def = makeDef(
        {{1, 0, Activation::Sigmoid, Aggregation::Sum},
         {2, 0, Activation::Sigmoid, Aggregation::Sum}},
        {{-1, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}});
    const auto layers = feedForwardLayers(def);
    ASSERT_EQ(layers.size(), 3u);
    EXPECT_EQ(layers[0], std::vector<int>{1});
    EXPECT_EQ(layers[1], std::vector<int>{2});
    EXPECT_EQ(layers[2], std::vector<int>{0});
}

TEST(Layering, SkipConnectionDoesNotDelayProducer)
{
    // -1 -> h1 -> 0 plus a direct skip -1 -> 0: the output waits for h1.
    const auto def = makeDef(
        {{1, 0, Activation::Sigmoid, Aggregation::Sum}},
        {{-1, 1, 1.0}, {1, 0, 1.0}, {-1, 0, 1.0}});
    const auto layers = feedForwardLayers(def);
    ASSERT_EQ(layers.size(), 2u);
    EXPECT_EQ(layers[0], std::vector<int>{1});
    EXPECT_EQ(layers[1], std::vector<int>{0});
}

TEST(Layering, UnrequiredHiddenNodeIsPruned)
{
    // h1 feeds nothing: it must not appear in any layer.
    const auto def = makeDef(
        {{1, 0, Activation::Sigmoid, Aggregation::Sum}},
        {{-1, 0, 1.0}, {-2, 1, 1.0}});
    EXPECT_EQ(requiredNodes(def), std::vector<int>{0});
    const auto layers = feedForwardLayers(def);
    ASSERT_EQ(layers.size(), 1u);
    EXPECT_EQ(layers[0], std::vector<int>{0});
}

TEST(Layering, RequiredFollowsTransitiveChains)
{
    // -1 -> 2 -> 1 -> 0: both hidden nodes required.
    const auto def = makeDef(
        {{1, 0, Activation::Sigmoid, Aggregation::Sum},
         {2, 0, Activation::Sigmoid, Aggregation::Sum}},
        {{-1, 2, 1.0}, {2, 1, 1.0}, {1, 0, 1.0}});
    EXPECT_EQ(requiredNodes(def), (std::vector<int>{0, 1, 2}));
}

TEST(Layering, DisconnectedOutputStillLayered)
{
    const auto def = makeDef({}, {});
    const auto layers = feedForwardLayers(def);
    ASSERT_EQ(layers.size(), 1u);
    EXPECT_EQ(layers[0], std::vector<int>{0});
}

TEST(Layering, MultipleOutputsShareLayers)
{
    auto def = NetworkDef::empty(1, 2);
    def.conns = {{-1, 0, 1.0}, {-1, 1, 1.0}};
    const auto layers = feedForwardLayers(def);
    ASSERT_EQ(layers.size(), 1u);
    EXPECT_EQ(layers[0].size(), 2u);
}

TEST(Layering, DiamondTopology)
{
    //        h1
    //  -1 <       > 0
    //        h2
    const auto def = makeDef(
        {{1, 0, Activation::Sigmoid, Aggregation::Sum},
         {2, 0, Activation::Sigmoid, Aggregation::Sum}},
        {{-1, 1, 1.0}, {-1, 2, 1.0}, {1, 0, 1.0}, {2, 0, 1.0}});
    const auto layers = feedForwardLayers(def);
    ASSERT_EQ(layers.size(), 2u);
    EXPECT_EQ(layers[0].size(), 2u);
    EXPECT_EQ(layers[1], std::vector<int>{0});
}

TEST(Layering, AcyclicDetection)
{
    const auto good = makeDef(
        {{1, 0, Activation::Sigmoid, Aggregation::Sum}},
        {{-1, 1, 1.0}, {1, 0, 1.0}});
    EXPECT_TRUE(isAcyclic(good));

    const auto bad = makeDef(
        {{1, 0, Activation::Sigmoid, Aggregation::Sum},
         {2, 0, Activation::Sigmoid, Aggregation::Sum}},
        {{-1, 1, 1.0}, {1, 2, 1.0}, {2, 1, 1.0}, {2, 0, 1.0},
         {1, 0, 1.0}});
    EXPECT_FALSE(isAcyclic(bad));
}

TEST(Layering, EveryNodeDependsOnEarlierLayersOnly)
{
    // Property over a moderately tangled hand-built net.
    const auto def = makeDef(
        {{1, 0, Activation::Sigmoid, Aggregation::Sum},
         {2, 0, Activation::Sigmoid, Aggregation::Sum},
         {3, 0, Activation::Sigmoid, Aggregation::Sum}},
        {{-1, 1, 1.0}, {-2, 2, 1.0}, {1, 3, 1.0}, {2, 3, 1.0},
         {-1, 3, 1.0}, {3, 0, 1.0}, {1, 0, 1.0}});
    const auto layers = feedForwardLayers(def);
    std::map<int, size_t> layerOf;
    for (size_t l = 0; l < layers.size(); ++l) {
        for (int id : layers[l])
            layerOf[id] = l + 1;
    }
    layerOf[-1] = 0;
    layerOf[-2] = 0;
    for (const auto &c : def.conns) {
        if (layerOf.count(c.from) && layerOf.count(c.to)) {
            EXPECT_LT(layerOf[c.from], layerOf[c.to]);
        }
    }
}

} // namespace
} // namespace e3
