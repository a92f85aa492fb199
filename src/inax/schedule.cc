#include "inax/schedule.hh"

#include <algorithm>

#include "common/logging.hh"
#include "inax/pe.hh"

namespace e3 {

InferenceCost
scheduleInference(const FeedForwardNetwork &net, const InaxConfig &cfg)
{
    std::vector<std::vector<size_t>> layerInDegrees;
    for (const auto &layer : net.layers()) {
        layerInDegrees.emplace_back();
        for (const auto &node : layer)
            layerInDegrees.back().push_back(node.links.size());
    }
    return scheduleInference(layerInDegrees, cfg);
}

InferenceCost
scheduleInference(
    const std::vector<std::vector<size_t>> &layerInDegrees,
    const InaxConfig &cfg)
{
    assertOk(cfg.validate());
    InferenceCost cost;
    for (const auto &layer : layerInDegrees) {
        // Waves of numPEs nodes, each as long as its slowest node.
        for (size_t start = 0; start < layer.size(); start += cfg.numPEs) {
            const size_t end = std::min(start + cfg.numPEs, layer.size());
            uint64_t waveCycles = 0;
            for (size_t i = start; i < end; ++i) {
                const uint64_t nodeCycles = peNodeCycles(layer[i], cfg);
                waveCycles = std::max(waveCycles, nodeCycles);
                cost.peActiveCycles += nodeCycles;
            }
            cost.cycles += waveCycles;
            ++cost.waves;
        }
        cost.cycles += cfg.layerSyncCycles;
    }
    return cost;
}

} // namespace e3
