/**
 * @file
 * Naive reference for the network analysis: the repeat-until-no-change
 * std::set/std::map passes the repository used before the single-pass
 * NetAnalysis (requiredNodes, feedForwardLayers, isAcyclic,
 * computeNetStats, checkDefInvariants, FeedForwardNetwork::create,
 * RecurrentNetwork::create and the SoA lane flattening), kept verbatim
 * apart from returning test-local structs. Only tests include this;
 * it is the independent oracle test_analysis_oracle.cc checks the
 * production analysis against.
 */

#ifndef E3_TESTS_FIXED_POINT_REFERENCE_HH
#define E3_TESTS_FIXED_POINT_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/result.hh"
#include "nn/batch_eval.hh"
#include "nn/net_stats.hh"
#include "nn/network.hh"

namespace e3::reference {

inline std::set<int>
requiredNodes(const NetworkDef &def)
{
    std::set<int> inputs(def.inputIds.begin(), def.inputIds.end());
    std::set<int> required(def.outputIds.begin(), def.outputIds.end());

    bool grew = true;
    while (grew) {
        grew = false;
        for (const auto &c : def.conns) {
            if (required.count(c.to) && !required.count(c.from) &&
                !inputs.count(c.from)) {
                required.insert(c.from);
                grew = true;
            }
        }
    }
    return required;
}

inline std::vector<std::vector<int>>
feedForwardLayers(const NetworkDef &def)
{
    const std::set<int> required = requiredNodes(def);

    std::map<int, std::vector<int>> ingress;
    for (int id : required)
        ingress[id];
    std::set<int> inputs(def.inputIds.begin(), def.inputIds.end());
    for (const auto &c : def.conns) {
        if (!required.count(c.to))
            continue;
        if (inputs.count(c.from) || required.count(c.from))
            ingress[c.to].push_back(c.from);
    }

    std::set<int> placed(inputs);
    std::vector<std::vector<int>> layers;

    while (true) {
        std::vector<int> layer;
        for (const auto &[id, sources] : ingress) {
            if (placed.count(id))
                continue;
            const bool ready = std::all_of(
                sources.begin(), sources.end(),
                [&](int src) { return placed.count(src) > 0; });
            if (ready)
                layer.push_back(id);
        }
        if (layer.empty())
            break;
        for (int id : layer)
            placed.insert(id);
        layers.push_back(std::move(layer));
    }

    for (const auto &[id, sources] : ingress) {
        e3_assert(placed.count(id),
                  "unplaceable node ", id, " implies a cycle");
    }
    return layers;
}

inline bool
isAcyclic(const NetworkDef &def)
{
    const std::set<int> required = requiredNodes(def);
    std::set<int> inputs(def.inputIds.begin(), def.inputIds.end());

    std::map<int, std::vector<int>> ingress;
    for (int id : required)
        ingress[id];
    for (const auto &c : def.conns) {
        if (!required.count(c.to))
            continue;
        if (inputs.count(c.from) || required.count(c.from))
            ingress[c.to].push_back(c.from);
    }

    std::set<int> placed(inputs);
    bool grew = true;
    while (grew) {
        grew = false;
        for (const auto &[id, sources] : ingress) {
            if (placed.count(id))
                continue;
            const bool ready = std::all_of(
                sources.begin(), sources.end(),
                [&](int src) { return placed.count(src) > 0; });
            if (ready) {
                placed.insert(id);
                grew = true;
            }
        }
    }
    return std::all_of(ingress.begin(), ingress.end(),
                       [&](const auto &kv) {
                           return placed.count(kv.first) > 0;
                       });
}

inline NetStats
computeNetStats(const NetworkDef &def)
{
    NetStats stats;

    const std::set<int> required = requiredNodes(def);
    const std::set<int> inputs(def.inputIds.begin(), def.inputIds.end());

    const bool acyclic = isAcyclic(def);
    std::vector<std::vector<int>> layers;
    if (acyclic) {
        layers = feedForwardLayers(def);
    } else {
        layers.emplace_back(required.begin(), required.end());
    }

    stats.activeNodes = 0;
    for (const auto &layer : layers) {
        stats.layerSizes.push_back(layer.size());
        stats.activeNodes += layer.size();
    }

    std::vector<size_t> degreeOf;
    for (const auto &layer : layers) {
        for (int id : layer) {
            size_t deg = 0;
            for (const auto &c : def.conns) {
                if (c.to != id)
                    continue;
                if (inputs.count(c.from) || required.count(c.from))
                    ++deg;
            }
            degreeOf.push_back(deg);
            stats.activeConnections += deg;
        }
    }
    stats.inDegrees = std::move(degreeOf);

    uint64_t dense = 0;
    if (acyclic) {
        std::vector<size_t> denseLayers;
        denseLayers.push_back(def.inputIds.size());
        for (size_t s : stats.layerSizes)
            denseLayers.push_back(s);
        dense = denseConnectionCount(denseLayers);
    } else {
        dense = static_cast<uint64_t>(stats.activeNodes) *
                (def.inputIds.size() + stats.activeNodes);
    }
    stats.density = dense > 0
                        ? static_cast<double>(stats.activeConnections) /
                              static_cast<double>(dense)
                        : 0.0;
    return stats;
}

inline Status
checkDefInvariants(const NetworkDef &def, bool recurrent)
{
    std::set<int> inputs;
    for (int id : def.inputIds) {
        if (!inputs.insert(id).second)
            return Status::error("duplicate input id ", id);
    }
    std::set<int> nodes;
    for (const auto &node : def.nodes) {
        if (!nodes.insert(node.id).second)
            return Status::error("duplicate node id ", node.id);
        if (inputs.count(node.id))
            return Status::error("input id ", node.id,
                                 " declared as a computed node");
        if (!std::isfinite(node.bias))
            return Status::error("non-finite bias on node ", node.id);
    }
    for (int id : def.outputIds) {
        if (!nodes.count(id))
            return Status::error("output node ", id, " is not defined");
    }
    std::set<std::pair<int, int>> conns;
    for (const auto &conn : def.conns) {
        if (!conns.insert({conn.from, conn.to}).second)
            return Status::error("duplicate connection ", conn.from,
                                 "->", conn.to);
        if (inputs.count(conn.to) || conn.to < 0)
            return Status::error("connection ", conn.from, "->",
                                 conn.to, " targets an input id");
        if (!nodes.count(conn.to))
            return Status::error("connection ", conn.from, "->",
                                 conn.to, " targets undefined node ",
                                 conn.to);
        if (!inputs.count(conn.from) && !nodes.count(conn.from))
            return Status::error("connection ", conn.from, "->",
                                 conn.to, " reads undefined node ",
                                 conn.from);
        if (!std::isfinite(conn.weight))
            return Status::error("non-finite weight on connection ",
                                 conn.from, "->", conn.to);
    }
    if (!recurrent && !isAcyclic(def))
        return Status::error(
            "connections form a cycle in a feed-forward definition");
    return Status();
}

/** FeedForwardNetwork's compiled state, built the old way. */
struct FeedForwardNet
{
    size_t numInputs = 0;
    size_t slotCount = 0;
    std::vector<std::vector<EvalNode>> layers;
    std::vector<uint32_t> outputSlots;

    std::vector<double>
    activate(const std::vector<double> &inputs) const
    {
        std::vector<double> values(slotCount, 0.0);
        for (size_t i = 0; i < numInputs; ++i)
            values[i] = inputs[i];
        for (const auto &layer : layers) {
            for (const auto &node : layer) {
                Aggregator agg(node.agg);
                for (const auto &link : node.links)
                    agg.add(values[link.srcSlot] * link.weight);
                values[node.slot] =
                    applyActivation(node.act, agg.result() + node.bias);
            }
        }
        std::vector<double> out(outputSlots.size());
        for (size_t o = 0; o < outputSlots.size(); ++o)
            out[o] = values[outputSlots[o]];
        return out;
    }
};

inline FeedForwardNet
createFeedForward(const NetworkDef &def)
{
    e3_assert(!def.inputIds.empty(), "network needs at least one input");
    e3_assert(!def.outputIds.empty(),
              "network needs at least one output");

    FeedForwardNet net;
    net.numInputs = def.inputIds.size();

    std::map<int, uint32_t> slotOf;
    for (size_t i = 0; i < def.inputIds.size(); ++i)
        slotOf[def.inputIds[i]] = static_cast<uint32_t>(i);

    std::map<int, const NetworkDef::Node *> nodeOf;
    for (const auto &n : def.nodes) {
        e3_assert(!nodeOf.count(n.id), "duplicate node id ", n.id);
        nodeOf[n.id] = &n;
    }
    for (int id : def.outputIds)
        e3_assert(nodeOf.count(id), "output node ", id, " missing");

    const auto layerIds = feedForwardLayers(def);

    uint32_t nextSlot = static_cast<uint32_t>(def.inputIds.size());
    for (const auto &layer : layerIds) {
        for (int id : layer)
            slotOf[id] = nextSlot++;
    }
    for (int id : def.outputIds)
        e3_assert(slotOf.count(id), "output ", id, " was not layered");

    net.slotCount = nextSlot;

    const std::set<int> required = requiredNodes(def);
    std::map<int, std::vector<EvalLink>> linksOf;
    std::set<int> inputSet(def.inputIds.begin(), def.inputIds.end());
    for (const auto &c : def.conns) {
        if (!required.count(c.to))
            continue;
        if (!inputSet.count(c.from) && !required.count(c.from))
            continue;
        linksOf[c.to].push_back({slotOf.at(c.from), c.weight});
    }

    for (const auto &layer : layerIds) {
        std::vector<EvalNode> compiled;
        compiled.reserve(layer.size());
        for (int id : layer) {
            const auto *src = nodeOf.count(id) ? nodeOf.at(id) : nullptr;
            e3_assert(src, "connection references unknown node ", id);
            EvalNode en;
            en.id = id;
            en.slot = slotOf.at(id);
            en.bias = src->bias;
            en.act = src->act;
            en.agg = src->agg;
            en.links = linksOf.count(id) ? linksOf.at(id)
                                         : std::vector<EvalLink>{};
            compiled.push_back(std::move(en));
        }
        net.layers.push_back(std::move(compiled));
    }

    for (int id : def.outputIds)
        net.outputSlots.push_back(slotOf.at(id));
    return net;
}

/** RecurrentNetwork's compiled state, built the old way. */
struct RecurrentNet
{
    size_t numInputs = 0;
    std::vector<EvalNode> nodes;
    std::vector<uint32_t> outputSlots;
    std::vector<double> prev;
    std::vector<double> next;

    /** One synchronous tick. */
    std::vector<double>
    activate(const std::vector<double> &inputs)
    {
        for (size_t i = 0; i < numInputs; ++i) {
            prev[i] = inputs[i];
            next[i] = inputs[i];
        }
        for (const auto &node : nodes) {
            Aggregator agg(node.agg);
            for (const auto &link : node.links)
                agg.add(prev[link.srcSlot] * link.weight);
            next[node.slot] =
                applyActivation(node.act, agg.result() + node.bias);
        }
        std::swap(prev, next);
        std::vector<double> out(outputSlots.size());
        for (size_t o = 0; o < outputSlots.size(); ++o)
            out[o] = prev[outputSlots[o]];
        return out;
    }
};

inline RecurrentNet
createRecurrent(const NetworkDef &def)
{
    e3_assert(!def.inputIds.empty(), "network needs at least one input");
    e3_assert(!def.outputIds.empty(),
              "network needs at least one output");

    RecurrentNet net;
    net.numInputs = def.inputIds.size();

    const std::set<int> required = requiredNodes(def);
    const std::set<int> inputs(def.inputIds.begin(),
                               def.inputIds.end());

    std::map<int, uint32_t> slotOf;
    for (size_t i = 0; i < def.inputIds.size(); ++i)
        slotOf[def.inputIds[i]] = static_cast<uint32_t>(i);
    uint32_t nextSlot = static_cast<uint32_t>(def.inputIds.size());

    std::map<int, const NetworkDef::Node *> nodeOf;
    for (const auto &n : def.nodes) {
        e3_assert(!nodeOf.count(n.id), "duplicate node id ", n.id);
        nodeOf[n.id] = &n;
    }
    for (int id : def.outputIds)
        e3_assert(nodeOf.count(id), "output node ", id, " missing");

    for (int id : required) {
        e3_assert(nodeOf.count(id),
                  "connection references unknown node ", id);
        slotOf[id] = nextSlot++;
    }

    std::map<int, std::vector<EvalLink>> linksOf;
    for (const auto &c : def.conns) {
        if (!required.count(c.to))
            continue;
        if (!inputs.count(c.from) && !required.count(c.from))
            continue;
        linksOf[c.to].push_back({slotOf.at(c.from), c.weight});
    }

    for (int id : required) {
        const auto *src = nodeOf.at(id);
        EvalNode en;
        en.id = id;
        en.slot = slotOf.at(id);
        en.bias = src->bias;
        en.act = src->act;
        en.agg = src->agg;
        en.links = linksOf.count(id) ? linksOf.at(id)
                                     : std::vector<EvalLink>{};
        net.nodes.push_back(std::move(en));
    }

    for (int id : def.outputIds)
        net.outputSlots.push_back(slotOf.at(id));
    net.prev.assign(nextSlot, 0.0);
    net.next.assign(nextSlot, 0.0);
    return net;
}

/** BatchEvaluator's lane flattening over the reference network. */
inline void
appendLane(BatchPlan &plan, const FeedForwardNet &net)
{
    BatchPlan::LaneProgram p;
    p.segBegin = static_cast<uint32_t>(plan.segments.size());
    p.valueBase = plan.lanes.empty() ? 0
                                     : plan.lanes.back().valueBase +
                                           plan.lanes.back().slotCount;
    p.slotCount = static_cast<uint32_t>(net.slotCount);
    p.outBase = static_cast<uint32_t>(plan.outputSlots.size());

    for (const auto &layer : net.layers) {
        for (const auto &node : layer) {
            const bool openNewSegment =
                plan.segments.size() == p.segBegin ||
                plan.segments.back().act != node.act ||
                plan.segments.back().agg != node.agg;
            if (openNewSegment) {
                plan.segments.push_back(
                    {static_cast<uint32_t>(plan.nodes.size()),
                     static_cast<uint32_t>(plan.nodes.size()),
                     node.act, node.agg});
            }
            BatchPlan::NodeRun run;
            run.dstSlot = node.slot;
            run.opBegin = static_cast<uint32_t>(plan.ops.size());
            for (const auto &link : node.links)
                plan.ops.push_back({link.srcSlot, link.weight});
            run.opEnd = static_cast<uint32_t>(plan.ops.size());
            run.bias = node.bias;
            plan.nodes.push_back(run);
            plan.segments.back().nodeEnd =
                static_cast<uint32_t>(plan.nodes.size());
        }
    }
    p.segEnd = static_cast<uint32_t>(plan.segments.size());

    for (uint32_t slot : net.outputSlots)
        plan.outputSlots.push_back(slot);

    plan.lanes.push_back(p);
}

/** The population plan BatchEvaluator::compile built the old way. */
inline BatchPlan
compilePlan(const std::vector<NetworkDef> &defs)
{
    BatchPlan plan;
    plan.numInputs = defs.front().inputIds.size();
    plan.numOutputs = defs.front().outputIds.size();
    for (const NetworkDef &def : defs)
        appendLane(plan, createFeedForward(def));
    plan.arenaSize =
        plan.lanes.back().valueBase + plan.lanes.back().slotCount;
    return plan;
}

} // namespace e3::reference

#endif // E3_TESTS_FIXED_POINT_REFERENCE_HH
