#include "nn/batch_eval.hh"

#include <algorithm>

#include "common/hot.hh"
#include "common/logging.hh"
#include "nn/layering.hh"

namespace e3 {

namespace {

/** Arity check shared by both engines' compile paths. */
Status
checkLaneArity(size_t lane, size_t numInputs, size_t numOutputs,
               size_t expectedInputs, size_t expectedOutputs)
{
    if (numInputs != expectedInputs || numOutputs != expectedOutputs) {
        return Status::error(
            "batch lane ", lane, " has arity ", numInputs, "x",
            numOutputs, " but the batch is ", expectedInputs, "x",
            expectedOutputs,
            " (all lanes must share input/output arity)");
    }
    return Status();
}

/** One analysis per def, or an error naming both counts. */
Status
checkAnalysisCount(size_t numDefs, size_t numAnalyses)
{
    if (numDefs != numAnalyses)
        return Status::error("batch compile got ", numAnalyses,
                             " analyses for ", numDefs, " defs");
    return Status();
}

/** Every def's analysis, in def order. */
std::vector<NetAnalysis>
analyzeAll(const std::vector<NetworkDef> &defs)
{
    std::vector<NetAnalysis> analyses;
    analyses.reserve(defs.size());
    for (const NetworkDef &def : defs)
        analyses.push_back(analyzeNetwork(def));
    return analyses;
}

} // namespace

namespace detail {

/**
 * Sum-segment kernel with the activation hoisted to a template
 * parameter: each node's fold is a seeded multiply-add chain — the
 * exact operation sequence Aggregator performs (seed from the first
 * element, add the rest, 0.0 when empty) — with the activation inlined
 * via applyActivationT, so a node costs no out-of-line call.
 *
 * The kernel is noinline and aligned to a fixed boundary: the op-fold
 * loop's branches are hot enough that their placement relative to
 * fetch/predictor boundaries measurably changes throughput, and
 * keeping the kernel at a fixed alignment makes that placement (and
 * so the measured speedup) independent of whatever else is linked
 * into the binary.
 *
 * The node/op types stay template parameters (deduced at the call
 * site), which keeps the kernel's instantiation independent of the
 * plan type's header.
 */
template <Activation A, typename NodeRunT, typename OpT>
__attribute__((noinline, aligned(256))) void
runSumSegment(const NodeRunT *nodes, uint32_t nodeBegin,
              uint32_t nodeEnd, const OpT *ops, double *v)
{
    for (uint32_t n = nodeBegin; n != nodeEnd; ++n) {
        const NodeRunT &node = nodes[n];
        const OpT *op = ops + node.opBegin;
        const OpT *const end = ops + node.opEnd;
        double acc = 0.0;
        if (op != end) {
            acc = v[op->srcSlot] * op->weight;
            for (++op; op != end; ++op)
                acc += v[op->srcSlot] * op->weight;
        }
        v[node.dstSlot] = applyActivationT<A>(acc + node.bias);
    }
}

} // namespace detail

Status
checkPlanInvariants(const BatchPlan &plan)
{
    if (plan.lanes.empty())
        return Status::error("plan has no lanes");
    for (size_t li = 0; li < plan.lanes.size(); ++li) {
        const BatchPlan::LaneProgram &lane = plan.lanes[li];
        if (lane.segBegin > lane.segEnd ||
            lane.segEnd > plan.segments.size())
            return Status::error("lane ", li, ": segment range [",
                                 lane.segBegin, ", ", lane.segEnd,
                                 ") outside ", plan.segments.size(),
                                 " segments");
        if (static_cast<uint64_t>(lane.valueBase) + lane.slotCount >
            plan.arenaSize)
            return Status::error("lane ", li, ": arena region [",
                                 lane.valueBase, ", ",
                                 lane.valueBase + lane.slotCount,
                                 ") outside arena of ", plan.arenaSize,
                                 " slots");
        if (plan.numInputs > lane.slotCount)
            return Status::error("lane ", li, ": ", plan.numInputs,
                                 " inputs but only ", lane.slotCount,
                                 " slots");
        if (static_cast<uint64_t>(lane.outBase) + plan.numOutputs >
            plan.outputSlots.size())
            return Status::error("lane ", li,
                                 ": output map outside the ",
                                 plan.outputSlots.size(),
                                 "-entry slot table");

        // Segments must tile the lane's node list back to back.
        uint32_t expectNode = lane.segBegin < lane.segEnd
                                  ? plan.segments[lane.segBegin].nodeBegin
                                  : 0;
        for (uint32_t s = lane.segBegin; s != lane.segEnd; ++s) {
            const BatchPlan::Segment &seg = plan.segments[s];
            if (seg.nodeBegin >= seg.nodeEnd ||
                seg.nodeEnd > plan.nodes.size())
                return Status::error("lane ", li, " segment ", s,
                                     ": node range [", seg.nodeBegin,
                                     ", ", seg.nodeEnd, ") invalid");
            if (seg.nodeBegin != expectNode)
                return Status::error(
                    "lane ", li, " segment ", s, ": starts at node ",
                    seg.nodeBegin, ", expected ", expectNode,
                    " (segments must partition the node list)");
            expectNode = seg.nodeEnd;
            if (static_cast<int>(seg.act) < 0 ||
                static_cast<int>(seg.act) >= kActivationCount)
                return Status::error("lane ", li, " segment ", s,
                                     ": unknown activation ",
                                     static_cast<int>(seg.act));
            if (static_cast<int>(seg.agg) < 0 ||
                static_cast<int>(seg.agg) >= kAggregationCount)
                return Status::error("lane ", li, " segment ", s,
                                     ": unknown aggregation ",
                                     static_cast<int>(seg.agg));
            for (uint32_t n = seg.nodeBegin; n != seg.nodeEnd; ++n) {
                const BatchPlan::NodeRun &node = plan.nodes[n];
                if (node.opBegin > node.opEnd ||
                    node.opEnd > plan.ops.size())
                    return Status::error("node ", n, ": op range [",
                                         node.opBegin, ", ",
                                         node.opEnd, ") outside ",
                                         plan.ops.size(), " ops");
                if (node.dstSlot >= lane.slotCount)
                    return Status::error("node ", n, ": dstSlot ",
                                         node.dstSlot, " outside ",
                                         lane.slotCount,
                                         " lane slots");
                for (uint32_t o = node.opBegin; o != node.opEnd; ++o) {
                    if (plan.ops[o].srcSlot >= lane.slotCount)
                        return Status::error(
                            "node ", n, " op ", o, ": srcSlot ",
                            plan.ops[o].srcSlot, " outside ",
                            lane.slotCount, " lane slots");
                }
            }
        }

        // Output map: distinct, in-range slots.
        for (size_t a = 0; a < plan.numOutputs; ++a) {
            const uint32_t slot = plan.outputSlots[lane.outBase + a];
            if (slot >= lane.slotCount)
                return Status::error("lane ", li, " output ", a,
                                     ": slot ", slot, " outside ",
                                     lane.slotCount, " lane slots");
            for (size_t b = a + 1; b < plan.numOutputs; ++b) {
                if (plan.outputSlots[lane.outBase + b] == slot)
                    return Status::error(
                        "lane ", li, ": outputs ", a, " and ", b,
                        " both read slot ", slot,
                        " (output map must be injective)");
            }
        }
    }

    // Arena regions must be pairwise disjoint across lanes.
    std::vector<std::pair<uint64_t, uint64_t>> regions;
    regions.reserve(plan.lanes.size());
    for (const BatchPlan::LaneProgram &lane : plan.lanes)
        regions.emplace_back(lane.valueBase,
                             static_cast<uint64_t>(lane.valueBase) +
                                 lane.slotCount);
    std::sort(regions.begin(), regions.end());
    for (size_t i = 1; i < regions.size(); ++i) {
        if (regions[i].first < regions[i - 1].second)
            return Status::error("lane arena regions [",
                                 regions[i - 1].first, ", ",
                                 regions[i - 1].second, ") and [",
                                 regions[i].first, ", ",
                                 regions[i].second, ") overlap");
    }
    return Status();
}

Result<std::unique_ptr<BatchEvaluator>>
BatchEvaluator::compile(const std::vector<NetworkDef> &defs,
                        const NetworkCompileOptions &options)
{
    return compile(defs, analyzeAll(defs), options);
}

Result<std::unique_ptr<BatchEvaluator>>
BatchEvaluator::compile(const std::vector<NetworkDef> &defs,
                        const std::vector<NetAnalysis> &analyses,
                        const NetworkCompileOptions &options)
{
    if (Status count = checkAnalysisCount(defs.size(), analyses.size());
        !count.ok())
        return count;
    return build(defs.data(), analyses.data(), defs.size(), defs.size(),
                 options);
}

Result<std::unique_ptr<BatchEvaluator>>
BatchEvaluator::compileReplicated(const NetworkDef &def, size_t lanes,
                                  const NetworkCompileOptions &options)
{
    const NetAnalysis analysis = analyzeNetwork(def);
    return build(&def, &analysis, 1, lanes, options);
}

Result<std::unique_ptr<BatchEvaluator>>
BatchEvaluator::build(const NetworkDef *defs, const NetAnalysis *analyses,
                      size_t numDefs, size_t lanes,
                      const NetworkCompileOptions &options)
{
    if (numDefs == 0 || lanes == 0)
        return Status::error("batch compile needs at least one lane");
    if (options.recurrent || options.quantization) {
        return Status::error(
            "the SoA batch evaluator supports plain feed-forward "
            "networks; use the loop adapter for recurrent or "
            "quantized evaluation");
    }

    auto eval = std::unique_ptr<BatchEvaluator>(new BatchEvaluator());
    BatchPlan &plan = eval->plan_;
    plan.numInputs = defs[0].inputIds.size();
    plan.numOutputs = defs[0].outputIds.size();
    for (size_t i = 0; i < numDefs; ++i) {
        if (Status invariants = checkDefInvariants(defs[i], analyses[i]);
            !invariants.ok()) {
            return Status::error("genome ", i, ": malformed NetworkDef: ",
                                 invariants.message());
        }
        if (Status arity = checkLaneArity(
                i, defs[i].inputIds.size(), defs[i].outputIds.size(),
                plan.numInputs, plan.numOutputs);
            !arity.ok())
            return arity;
        if (Status fits = eval->appendLane(defs[i], analyses[i]);
            !fits.ok())
            return fits;
    }

    // Replicas share lane 0's program; each is just a fresh region of
    // the value arena (the output-slot table is lane-local, so it is
    // shared too). Bound the arena before allocating the lane table.
    BatchPlan::LaneProgram replica = plan.lanes.front();
    if (lanes > numDefs && lanes > UINT32_MAX / replica.slotCount)
        return Status::error("a batch of ", lanes, " lanes needs more "
                             "than ", UINT32_MAX, " value slots");
    plan.lanes.reserve(lanes);
    for (size_t lane = numDefs; lane < lanes; ++lane) {
        replica.valueBase = static_cast<uint32_t>(plan.arenaSize);
        plan.arenaSize += replica.slotCount;
        plan.lanes.push_back(replica);
    }
    eval->values_.assign(plan.arenaSize, 0.0);
#ifndef NDEBUG
    if (Status sound = checkPlanInvariants(plan); !sound.ok())
        e3_panic("batch plan failed its invariant check: ",
                 sound.message());
#endif
    return eval;
}

Status
BatchEvaluator::appendLane(const NetworkDef &def, const NetAnalysis &a)
{
    const SlotMap slots = mapSlots(def, a, a.order);
    if (plan_.arenaSize + slots.slotCount > UINT32_MAX)
        return Status::error("lane ", plan_.lanes.size(), " needs more "
                             "than ", UINT32_MAX, " value slots");
    BatchPlan::LaneProgram p;
    p.segBegin = static_cast<uint32_t>(plan_.segments.size());
    p.valueBase = static_cast<uint32_t>(plan_.arenaSize);
    p.slotCount = slots.slotCount;
    plan_.arenaSize += slots.slotCount;
    p.outBase = static_cast<uint32_t>(plan_.outputSlots.size());

    // Segments merge across layer boundaries when (act, agg) carries
    // over: the kernels execute in-segment nodes strictly in order, so
    // a later-layer node reading an earlier node's destination slot is
    // fine, and a uniform-activation lane collapses to one dispatch.
    for (uint32_t d : a.order) {
        const NetworkDef::Node &decl = *slots.nodeOf[d];
        if (plan_.segments.size() == p.segBegin ||
            plan_.segments.back().act != decl.act ||
            plan_.segments.back().agg != decl.agg) {
            plan_.segments.push_back(
                {static_cast<uint32_t>(plan_.nodes.size()),
                 static_cast<uint32_t>(plan_.nodes.size()), decl.act,
                 decl.agg});
        }
        BatchPlan::NodeRun run;
        run.dstSlot = slots.slotOf[d];
        run.opBegin = static_cast<uint32_t>(plan_.ops.size());
        for (uint32_t i = a.ingressBegin[d]; i < a.ingressBegin[d + 1];
             ++i) {
            const uint32_t k = a.ingress[i];
            plan_.ops.push_back(
                {slots.slotOf[a.connSrc[k]], def.conns[k].weight});
        }
        run.opEnd = static_cast<uint32_t>(plan_.ops.size());
        run.bias = decl.bias;
        plan_.nodes.push_back(run);
        plan_.segments.back().nodeEnd =
            static_cast<uint32_t>(plan_.nodes.size());
    }
    p.segEnd = static_cast<uint32_t>(plan_.segments.size());
    plan_.outputSlots.insert(plan_.outputSlots.end(),
                             slots.outputSlots.begin(),
                             slots.outputSlots.end());
    plan_.lanes.push_back(p);
    return Status();
}

E3_HOT void
BatchEvaluator::activateBatch(size_t count, const double *inputs,
                              size_t inputStride, double *outputs,
                              size_t outputStride)
{
    e3_assert(count <= plan_.lanes.size(), "batch count ", count,
              " exceeds ", plan_.lanes.size(), " lanes");
    // Qualified call: no per-lane virtual dispatch on the hot path.
    for (size_t lane = 0; lane < count; ++lane) {
        BatchEvaluator::activateLane(lane, inputs + lane * inputStride,
                                     outputs + lane * outputStride);
    }
}

E3_HOT void
BatchEvaluator::activateLane(size_t lane, const double *inputs,
                             double *outputs)
{
    const BatchPlan::LaneProgram &p = plan_.lanes[lane];
    double *v = values_.data() + p.valueBase;
    for (size_t i = 0; i < plan_.numInputs; ++i)
        v[i] = inputs[i];

    const BatchPlan::NodeRun *const nodes = plan_.nodes.data();
    const BatchPlan::Op *const ops = plan_.ops.data();
    for (uint32_t s = p.segBegin; s != p.segEnd; ++s) {
        const BatchPlan::Segment seg = plan_.segments[s];
        if (seg.agg == Aggregation::Sum) {
            // Fast path for the dominant aggregation: one activation
            // dispatch per *segment*, then a call-free inner loop
            // (see detail::runSumSegment).
            switch (seg.act) {
              case Activation::Sigmoid:
                detail::runSumSegment<Activation::Sigmoid>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::Tanh:
                detail::runSumSegment<Activation::Tanh>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::ReLU:
                detail::runSumSegment<Activation::ReLU>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::Identity:
                detail::runSumSegment<Activation::Identity>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::Sin:
                detail::runSumSegment<Activation::Sin>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::Gauss:
                detail::runSumSegment<Activation::Gauss>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::Abs:
                detail::runSumSegment<Activation::Abs>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::Clamped:
                detail::runSumSegment<Activation::Clamped>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
            }
        } else {
            for (uint32_t n = seg.nodeBegin; n != seg.nodeEnd; ++n) {
                const BatchPlan::NodeRun &node = nodes[n];
                Aggregator agg(seg.agg);
                for (const BatchPlan::Op *op = ops + node.opBegin;
                     op != ops + node.opEnd; ++op)
                    agg.add(v[op->srcSlot] * op->weight);
                v[node.dstSlot] =
                    applyActivation(seg.act, agg.result() + node.bias);
            }
        }
    }

    const uint32_t *const outSlots =
        plan_.outputSlots.data() + p.outBase;
    for (size_t o = 0; o < plan_.numOutputs; ++o)
        outputs[o] = v[outSlots[o]];
}

void
BatchEvaluator::reset()
{
    std::fill(values_.begin(), values_.end(), 0.0);
}

Result<std::unique_ptr<NetworkBatchAdapter>>
NetworkBatchAdapter::create(std::vector<std::unique_ptr<Network>> nets)
{
    if (nets.empty())
        return Status::error("batch adapter needs at least one network");
    for (size_t i = 0; i < nets.size(); ++i) {
        if (!nets[i])
            return Status::error("batch adapter lane ", i, " is null");
        if (Status arity = checkLaneArity(
                i, nets[i]->numInputs(), nets[i]->numOutputs(),
                nets.front()->numInputs(), nets.front()->numOutputs());
            !arity.ok())
            return arity;
    }
    return std::unique_ptr<NetworkBatchAdapter>(
        new NetworkBatchAdapter(std::move(nets)));
}

NetworkBatchAdapter::NetworkBatchAdapter(
    std::vector<std::unique_ptr<Network>> nets)
    : numInputs_(nets.front()->numInputs()),
      numOutputs_(nets.front()->numOutputs()), nets_(std::move(nets))
{
}

E3_HOT void
NetworkBatchAdapter::activateBatch(size_t count, const double *inputs,
                                   size_t inputStride, double *outputs,
                                   size_t outputStride)
{
    e3_assert(count <= nets_.size(), "batch count ", count,
              " exceeds ", nets_.size(), " lanes");
    for (size_t lane = 0; lane < count; ++lane) {
        nets_[lane]->activateInto(inputs + lane * inputStride,
                                  outputs + lane * outputStride);
    }
}

E3_HOT void
NetworkBatchAdapter::activateLane(size_t lane, const double *inputs,
                                  double *outputs)
{
    nets_[lane]->activateInto(inputs, outputs);
}

void
NetworkBatchAdapter::reset()
{
    for (auto &net : nets_)
        net->reset();
}

namespace {

/** The one engine choice: Auto runs plain feed-forward on the SoA engine. */
bool
usesFlatEngine(const NetworkCompileOptions &options, BatchEngine engine)
{
    return engine == BatchEngine::Auto && !options.recurrent &&
           !options.quantization;
}

/** Upcast a compiled engine, or pass its error through. */
template <typename Engine>
Result<std::unique_ptr<BatchNetwork>>
asBatchNetwork(Result<std::unique_ptr<Engine>> engine)
{
    if (!engine.ok())
        return engine.status();
    return std::unique_ptr<BatchNetwork>(std::move(engine).value());
}

/**
 * The adapter over one compileNetwork() per lane; lane i runs
 * defs[i % numDefs], as in BatchEvaluator::build().
 */
Result<std::unique_ptr<BatchNetwork>>
adaptLanes(const NetworkDef *defs, const NetAnalysis *analyses,
           size_t numDefs, size_t lanes,
           const NetworkCompileOptions &options)
{
    std::vector<std::unique_ptr<Network>> nets;
    nets.reserve(lanes);
    for (size_t lane = 0; lane < lanes; ++lane) {
        auto net = compileNetwork(defs[lane % numDefs],
                                  analyses[lane % numDefs], options);
        if (!net.ok())
            return Status::error("genome ", lane % numDefs, ": ",
                                 net.message());
        nets.push_back(std::move(net.value()));
    }
    return asBatchNetwork(NetworkBatchAdapter::create(std::move(nets)));
}

} // namespace

Result<std::unique_ptr<BatchNetwork>>
compilePopulation(const std::vector<NetworkDef> &defs,
                  const NetworkCompileOptions &options,
                  BatchEngine engine)
{
    return compilePopulation(defs, analyzeAll(defs), options, engine);
}

Result<std::unique_ptr<BatchNetwork>>
compilePopulation(const std::vector<NetworkDef> &defs,
                  const std::vector<NetAnalysis> &analyses,
                  const NetworkCompileOptions &options,
                  BatchEngine engine)
{
    if (Status count = checkAnalysisCount(defs.size(), analyses.size());
        !count.ok())
        return count;
    if (usesFlatEngine(options, engine))
        return asBatchNetwork(
            BatchEvaluator::compile(defs, analyses, options));
    return adaptLanes(defs.data(), analyses.data(), defs.size(),
                      defs.size(), options);
}

Result<std::unique_ptr<BatchNetwork>>
compileReplicated(const NetworkDef &def, size_t lanes,
                  const NetworkCompileOptions &options,
                  BatchEngine engine)
{
    if (usesFlatEngine(options, engine))
        return asBatchNetwork(
            BatchEvaluator::compileReplicated(def, lanes, options));
    const NetAnalysis analysis = analyzeNetwork(def);
    return adaptLanes(&def, &analysis, 1, lanes, options);
}

} // namespace e3
