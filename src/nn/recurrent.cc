#include "nn/recurrent.hh"

#include "common/logging.hh"
#include "nn/layering.hh"

namespace e3 {

RecurrentNetwork
RecurrentNetwork::create(const NetworkDef &def)
{
    return create(def, analyzeNetwork(def));
}

RecurrentNetwork
RecurrentNetwork::create(const NetworkDef &def, const NetAnalysis &a)
{
    // Every required node, in id order (no topological constraint
    // exists for recurrent evaluation).
    std::vector<uint32_t> order;
    for (uint32_t d = 0; d < a.ids.size(); ++d) {
        if (a.required[d])
            order.push_back(d);
    }
    CompiledNodes compiled = compileNodes(def, a, order);
    RecurrentNetwork net;
    net.numInputs_ = def.inputIds.size();
    net.nodes_ = std::move(compiled.nodes);
    net.outputSlots_ = std::move(compiled.outputSlots);
    net.prev_.assign(compiled.slotCount, 0.0);
    net.next_.assign(compiled.slotCount, 0.0);
    return net;
}

void
RecurrentNetwork::activateInto(const double *inputs, double *outputs)
{
    // Inputs are visible within the tick; node reads see the previous
    // tick's activations (neat-python RecurrentNetwork semantics).
    for (size_t i = 0; i < numInputs_; ++i) {
        prev_[i] = inputs[i];
        next_[i] = inputs[i];
    }

    for (const auto &node : nodes_) {
        Aggregator agg(node.agg);
        for (const auto &link : node.links)
            agg.add(prev_[link.srcSlot] * link.weight);
        next_[node.slot] =
            applyActivation(node.act, agg.result() + node.bias);
    }
    std::swap(prev_, next_);

    for (size_t o = 0; o < outputSlots_.size(); ++o)
        outputs[o] = prev_[outputSlots_[o]];
}

void
RecurrentNetwork::reset()
{
    std::fill(prev_.begin(), prev_.end(), 0.0);
    std::fill(next_.begin(), next_.end(), 0.0);
}

uint64_t
RecurrentNetwork::connectionCount() const
{
    uint64_t n = 0;
    for (const auto &node : nodes_)
        n += node.links.size();
    return n;
}

std::vector<size_t>
RecurrentNetwork::inDegreeProfile() const
{
    std::vector<size_t> profile;
    profile.reserve(nodes_.size());
    for (const auto &node : nodes_)
        profile.push_back(node.links.size());
    return profile;
}

} // namespace e3
