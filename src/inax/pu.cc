#include "inax/pu.hh"

#include "inax/dma.hh"

namespace e3 {

IndividualCost
puIndividualCost(const NetStats &stats, size_t numInputs,
                 size_t numOutputs, const InaxConfig &cfg)
{
    std::vector<std::vector<size_t>> layerInDegrees;
    layerInDegrees.reserve(stats.layerSizes.size());
    auto degree = stats.inDegrees.begin();
    for (size_t size : stats.layerSizes) {
        layerInDegrees.emplace_back(degree, degree + size);
        degree += size;
    }
    const InferenceCost inference = scheduleInference(layerInDegrees, cfg);

    IndividualCost cost;
    cost.inferenceCycles = inference.cycles;
    cost.peActiveCycles = inference.peActiveCycles;
    cost.setupCycles =
        setupCycles(stats.activeNodes, stats.activeConnections, cfg);
    cost.numInputs = numInputs;
    cost.numOutputs = numOutputs;
    cost.weightBufferWords =
        configWords(stats.activeNodes, stats.activeConnections);
    cost.valueBufferWords = numInputs + stats.activeNodes;
    return cost;
}

IndividualCost
puIndividualCost(const NetworkDef &def, const InaxConfig &cfg)
{
    return puIndividualCost(computeNetStats(def), def.inputIds.size(),
                            def.outputIds.size(), cfg);
}

} // namespace e3
