#include "inax/dataflow.hh"

#include <algorithm>

#include "inax/schedule.hh"
#include "nn/layering.hh"

namespace e3 {

namespace {

/** Egress fan-out per producer (inputs and required nodes). */
std::vector<size_t>
egressCounts(const NetAnalysis &a)
{
    std::vector<size_t> egress(a.ids.size(), 0);
    for (uint32_t d = 0; d < a.ids.size(); ++d) {
        if (!a.required[d])
            continue;
        for (uint32_t i = a.ingressBegin[d]; i < a.ingressBegin[d + 1];
             ++i)
            ++egress[a.connSrc[a.ingress[i]]];
    }
    return egress;
}

/**
 * Peak count of simultaneously-live partial sums when values are
 * consumed producer-by-producer: a destination's partial sum is live
 * from its first contribution until its last. Upper-bounded here by
 * the widest "destinations fed by producers processed so far but not
 * yet complete" cut, computed with a simple forward sweep in layer
 * order.
 */
uint64_t
peakLivePartialSums(const NetworkDef &def, const NetAnalysis &a)
{
    // Producer processing order: inputs, then layer by layer.
    std::vector<size_t> position(a.ids.size(), 0);
    size_t steps = 0;
    for (int id : def.inputIds)
        position[a.indexOf(id)] = steps++;
    for (uint32_t d : a.order)
        position[d] = steps++;

    // A destination's partial sum is live over [first producer pos,
    // last producer pos]; delta marks where each window opens and
    // closes.
    std::vector<int64_t> delta(steps + 1, 0);
    for (uint32_t v = 0; v < a.ids.size(); ++v) {
        if (!a.required[v] || a.inDegree(v) == 0)
            continue;
        size_t first = steps;
        size_t last = 0;
        for (uint32_t i = a.ingressBegin[v]; i < a.ingressBegin[v + 1];
             ++i) {
            const size_t pos = position[a.connSrc[a.ingress[i]]];
            first = std::min(first, pos);
            last = std::max(last, pos);
        }
        ++delta[first];
        --delta[last + 1];
    }

    int64_t live = 0;
    int64_t peak = 0;
    for (size_t t = 0; t < steps; ++t) {
        live += delta[t];
        peak = std::max(peak, live);
    }
    return static_cast<uint64_t>(peak);
}

} // namespace

DataflowRequirements
analyzeOutputStationary(const NetworkDef &def, const InaxConfig &cfg)
{
    assertOk(cfg.validate());
    const auto net = FeedForwardNetwork::create(def);
    DataflowRequirements req;
    req.name = "output-stationary";
    // One accumulator per PE, full stop.
    req.accumulators = cfg.numPEs;
    req.peakLiveAccumulators = std::min<uint64_t>(
        cfg.numPEs, std::max<size_t>(net.nodeCount(), 1));
    // Value buffer holds every activation (irregular nets may read any
    // earlier value).
    req.bufferWords = net.valueSlots();
    req.inferenceCycles = scheduleInference(net, cfg).cycles;
    return req;
}

DataflowRequirements
analyzeInputStationary(const NetworkDef &def, const InaxConfig &cfg)
{
    assertOk(cfg.validate());
    const NetAnalysis analysis = analyzeNetwork(def);
    const auto net = FeedForwardNetwork::create(def, analysis);

    DataflowRequirements req;
    req.name = "input-stationary";
    // Provisioning is decided at design time for the worst case: any
    // supported node could be an egress destination of the value being
    // held, so a partial-sum slot must exist for every node the PU can
    // host — not just the ones this network uses.
    req.accumulators = cfg.maxSupportedNodes;
    req.peakLiveAccumulators = peakLivePartialSums(def, analysis);
    // Buffer: partial sums for the full capacity plus the held values.
    req.bufferWords = cfg.maxSupportedNodes + net.valueSlots();

    // Cycles: each producer broadcasts to its egress destinations,
    // numPEs partial-sum updates per cycle; activation pipeline per
    // node at the end of its window.
    uint64_t cycles = 0;
    for (size_t count : egressCounts(analysis))
        cycles += (count + cfg.numPEs - 1) / cfg.numPEs;
    cycles += net.nodeCount() * cfg.pePipelineLatency / cfg.numPEs;
    cycles += net.layers().size() * cfg.layerSyncCycles;
    req.inferenceCycles = std::max<uint64_t>(cycles, 1);
    return req;
}

DataflowRequirements
analyzeWeightStationary(const NetworkDef &def, const InaxConfig &cfg)
{
    assertOk(cfg.validate());
    const NetAnalysis analysis = analyzeNetwork(def);
    const auto net = FeedForwardNetwork::create(def, analysis);

    DataflowRequirements req;
    req.name = "weight-stationary";
    // Same design-time worst-case destination partial sums as IS, plus
    // the weights pinned in PEs buy nothing: every weight is used
    // exactly once per inference, so the array reloads weights
    // ceil(conns / numPEs) times.
    req.accumulators = cfg.maxSupportedNodes;
    req.peakLiveAccumulators = peakLivePartialSums(def, analysis);
    req.bufferWords = cfg.maxSupportedNodes + net.valueSlots();

    const uint64_t conns = net.connectionCount();
    const uint64_t reloadRounds =
        (conns + cfg.numPEs - 1) / cfg.numPEs;
    // Each round: load numPEs weights over the weight channel, then
    // one MAC cycle.
    req.inferenceCycles =
        reloadRounds *
            (1 + cfg.numPEs / cfg.weightChannelWidth) +
        net.nodeCount() * cfg.pePipelineLatency / cfg.numPEs +
        net.layers().size() * cfg.layerSyncCycles;
    return req;
}

} // namespace e3
