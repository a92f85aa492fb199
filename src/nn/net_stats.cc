#include "nn/net_stats.hh"

#include "common/logging.hh"
#include "nn/layering.hh"

namespace e3 {

NetStats
computeNetStats(const NetworkDef &def)
{
    return computeNetStats(def, analyzeNetwork(def));
}

NetStats
computeNetStats(const NetworkDef &def, const NetAnalysis &a)
{
    NetStats stats;

    // Active nodes in execution order. Cyclic (recurrent) definitions
    // have no dependency layering; all required nodes form one
    // synchronous wave set per tick, in id order.
    std::vector<uint32_t> active;
    if (a.acyclic) {
        active = a.order;
        uint32_t begin = 0;
        for (uint32_t end : a.layerEnd) {
            stats.layerSizes.push_back(end - begin);
            begin = end;
        }
    } else {
        for (uint32_t d = 0; d < a.ids.size(); ++d) {
            if (a.required[d])
                active.push_back(d);
        }
        stats.layerSizes.push_back(active.size());
    }
    stats.activeNodes = active.size();

    // In-degree of each active node: its live ingress list.
    stats.inDegrees.reserve(active.size());
    for (uint32_t d : active) {
        stats.inDegrees.push_back(a.inDegree(d));
        stats.activeConnections += a.inDegree(d);
    }

    uint64_t dense = 0;
    if (a.acyclic) {
        std::vector<size_t> denseLayers;
        denseLayers.push_back(def.inputIds.size());
        for (size_t s : stats.layerSizes)
            denseLayers.push_back(s);
        dense = denseConnectionCount(denseLayers);
    } else {
        // Recurrent counterpart: every node may read every input and
        // every node's previous-tick value.
        dense = static_cast<uint64_t>(stats.activeNodes) *
                (def.inputIds.size() + stats.activeNodes);
    }
    stats.density = dense > 0
                        ? static_cast<double>(stats.activeConnections) /
                              static_cast<double>(dense)
                        : 0.0;
    return stats;
}

double
measureActivationDensity(FeedForwardNetwork &net, size_t samples,
                         Rng &rng)
{
    e3_assert(samples > 0, "need at least one sample");

    uint64_t totalMacs = 0;
    uint64_t liveMacs = 0;
    std::vector<double> inputs(net.numInputs());
    std::vector<double> outputs(net.numOutputs());
    for (size_t s = 0; s < samples; ++s) {
        for (auto &x : inputs)
            x = rng.uniform(-1.0, 1.0);
        // Each slot is written once per inference, so afterwards the
        // value array holds every link's operand.
        net.activateInto(inputs.data(), outputs.data());
        for (const auto &layer : net.layers()) {
            for (const auto &node : layer) {
                for (const auto &link : node.links) {
                    ++totalMacs;
                    // e3-lint: float-eq-ok -- exact zero-skip check, not a tolerance bug
                    liveMacs += net.values()[link.srcSlot] != 0.0 ? 1 : 0;
                }
            }
        }
    }
    if (totalMacs == 0)
        return 1.0;
    return static_cast<double>(liveMacs) /
           static_cast<double>(totalMacs);
}

uint64_t
denseConnectionCount(const std::vector<size_t> &layerSizes)
{
    uint64_t total = 0;
    for (size_t i = 0; i + 1 < layerSizes.size(); ++i) {
        total += static_cast<uint64_t>(layerSizes[i]) *
                 static_cast<uint64_t>(layerSizes[i + 1]);
    }
    return total;
}

} // namespace e3
