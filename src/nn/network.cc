#include "nn/network.hh"

#include "common/hot.hh"
#include "common/logging.hh"
#include "nn/layering.hh"

namespace e3 {

NetworkDef
NetworkDef::empty(size_t numInputs, size_t numOutputs)
{
    NetworkDef def;
    for (size_t i = 0; i < numInputs; ++i)
        def.inputIds.push_back(-1 - static_cast<int>(i));
    for (size_t o = 0; o < numOutputs; ++o) {
        def.outputIds.push_back(static_cast<int>(o));
        def.nodes.push_back({static_cast<int>(o), 0.0,
                             Activation::Sigmoid, Aggregation::Sum});
    }
    return def;
}

FeedForwardNetwork
FeedForwardNetwork::create(const NetworkDef &def)
{
    return create(def, analyzeNetwork(def));
}

CompiledNodes
compileNodes(const NetworkDef &def, const NetAnalysis &a,
             const std::vector<uint32_t> &order)
{
    e3_assert(!def.inputIds.empty(), "network needs at least one input");
    e3_assert(!def.outputIds.empty(),
              "network needs at least one output");
    std::vector<const NetworkDef::Node *> nodeOf(a.ids.size(), nullptr);
    for (const auto &n : def.nodes) {
        const NetworkDef::Node *&decl = nodeOf[a.indexOf(n.id)];
        e3_assert(!decl, "duplicate node id ", n.id);
        decl = &n;
    }
    for (int id : def.outputIds)
        e3_assert(nodeOf[a.indexOf(id)], "output node ", id, " missing");

    // Slots: inputs first (a repeated input id keeps its last slot).
    std::vector<uint32_t> slotOf(a.ids.size(), 0);
    for (size_t i = 0; i < def.inputIds.size(); ++i)
        slotOf[a.indexOf(def.inputIds[i])] = static_cast<uint32_t>(i);
    CompiledNodes out;
    out.slotCount = static_cast<uint32_t>(def.inputIds.size());
    for (uint32_t d : order)
        slotOf[d] = out.slotCount++;

    out.nodes.reserve(order.size());
    for (uint32_t d : order) {
        const NetworkDef::Node *src = nodeOf[d];
        e3_assert(src, "connection references unknown node ", a.ids[d]);
        EvalNode &node = out.nodes.emplace_back(EvalNode{
            a.ids[d], slotOf[d], src->bias, src->act, src->agg, {}});
        node.links.reserve(a.inDegree(d));
        for (uint32_t i = a.ingressBegin[d]; i < a.ingressBegin[d + 1];
             ++i) {
            const uint32_t k = a.ingress[i];
            node.links.push_back(
                {slotOf[a.connSrc[k]], def.conns[k].weight});
        }
    }
    for (int id : def.outputIds)
        out.outputSlots.push_back(slotOf[a.indexOf(id)]);
    return out;
}

FeedForwardNetwork
FeedForwardNetwork::create(const NetworkDef &def, const NetAnalysis &a)
{
    a.assertAcyclic();
    CompiledNodes compiled = compileNodes(def, a, a.order);
    FeedForwardNetwork net;
    net.numInputs_ = def.inputIds.size();
    net.slotCount_ = compiled.slotCount;
    net.outputSlots_ = std::move(compiled.outputSlots);
    net.layers_.resize(a.layerEnd.size());
    for (uint32_t l = 0, i = 0; l < a.layerEnd.size(); ++l) {
        net.layers_[l].reserve(a.layerEnd[l] - i);
        for (; i < a.layerEnd[l]; ++i)
            net.layers_[l].push_back(std::move(compiled.nodes[i]));
    }
    net.values_.assign(net.slotCount_, 0.0);
    return net;
}

std::vector<double>
Network::activate(const std::vector<double> &inputs)
{
    e3_assert(inputs.size() == numInputs(),
              "expected ", numInputs(), " inputs, got ", inputs.size());
    std::vector<double> out(numOutputs());
    activateInto(inputs.data(), out.data());
    return out;
}

E3_HOT void
FeedForwardNetwork::activateInto(const double *inputs, double *outputs)
{
    for (size_t i = 0; i < numInputs_; ++i)
        values_[i] = inputs[i];

    for (const auto &layer : layers_) {
        for (const auto &node : layer) {
            Aggregator agg(node.agg);
            for (const auto &link : node.links)
                agg.add(values_[link.srcSlot] * link.weight);
            values_[node.slot] =
                applyActivation(node.act, agg.result() + node.bias);
        }
    }

    for (size_t o = 0; o < outputSlots_.size(); ++o)
        outputs[o] = values_[outputSlots_[o]];
}

size_t
FeedForwardNetwork::nodeCount() const
{
    size_t n = 0;
    for (const auto &layer : layers_)
        n += layer.size();
    return n;
}

uint64_t
FeedForwardNetwork::connectionCount() const
{
    uint64_t n = 0;
    for (const auto &layer : layers_) {
        for (const auto &node : layer)
            n += node.links.size();
    }
    return n;
}

} // namespace e3
