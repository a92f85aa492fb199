#include "nn/dense_equivalent.hh"

#include <algorithm>

#include "common/logging.hh"
#include "nn/layering.hh"
#include "nn/net_stats.hh"

namespace e3 {

uint64_t
DenseEquivalent::denseConnections() const
{
    return denseConnectionCount(layerSizes);
}

DenseEquivalent
denseEquivalent(const NetworkDef &def)
{
    const NetAnalysis a = analyzeNetwork(def);
    a.assertAcyclic();

    // Layers: inputs at 0, dependency layers at 1..k (NetAnalysis
    // levels, which put inputs at 0 as well).
    DenseEquivalent eq;
    eq.layerSizes.assign(a.layerEnd.size() + 1, 0);
    eq.layerSizes[0] = def.inputIds.size();
    uint32_t begin = 0;
    for (size_t l = 0; l < a.layerEnd.size(); ++l) {
        eq.layerSizes[l + 1] = a.layerEnd[l] - begin;
        eq.realNodes += a.layerEnd[l] - begin;
        begin = a.layerEnd[l];
    }

    // A value produced in layer L(u) and consumed in layer L(v) > L(u)+1
    // must be relayed by a dummy node in every intermediate layer. Each
    // producer needs at most one relay per layer, up to its furthest
    // consumer (-1: the producer feeds nothing).
    std::vector<int64_t> furthestConsumer(a.ids.size(), -1);
    for (uint32_t v = 0; v < a.ids.size(); ++v) {
        if (!a.required[v])
            continue;
        for (uint32_t i = a.ingressBegin[v]; i < a.ingressBegin[v + 1];
             ++i) {
            int64_t &far = furthestConsumer[a.connSrc[a.ingress[i]]];
            far = std::max<int64_t>(far, a.level[v]);
        }
    }

    for (uint32_t u = 0; u < a.ids.size(); ++u) {
        if (furthestConsumer[u] < 0)
            continue;
        const auto far = static_cast<size_t>(furthestConsumer[u]);
        const size_t lu = a.level[u];
        e3_assert(far > lu, "connection does not point forward");
        for (size_t l = lu + 1; l < far; ++l) {
            ++eq.layerSizes[l];
            ++eq.dummyNodes;
        }
    }
    return eq;
}

} // namespace e3
