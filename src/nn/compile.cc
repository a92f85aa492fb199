#include "nn/compile.hh"

#include <cmath>
#include <cstdint>

#include "common/logging.hh"
#include "nn/layering.hh"

namespace e3 {

Status
checkDefInvariants(const NetworkDef &def, bool recurrent)
{
    return checkDefInvariants(def, analyzeNetwork(def), recurrent);
}

Status
checkDefInvariants(const NetworkDef &def, const NetAnalysis &a,
                   bool recurrent)
{
    std::vector<uint8_t> seen(a.ids.size(), 0);
    for (int id : def.inputIds) {
        if (seen[a.indexOf(id)]++)
            return Status::error("duplicate input id ", id);
    }
    std::vector<uint8_t> declared(a.ids.size(), 0);
    for (const auto &node : def.nodes) {
        const uint32_t d = a.indexOf(node.id);
        if (declared[d])
            return Status::error("duplicate node id ", node.id);
        declared[d] = 1;
        if (a.isInput[d])
            return Status::error("input id ", node.id,
                                 " declared as a computed node");
        if (!std::isfinite(node.bias))
            return Status::error("non-finite bias on node ", node.id);
    }
    for (int id : def.outputIds) {
        if (!declared[a.indexOf(id)])
            return Status::error("output node ", id, " is not defined");
    }

    // A connection repeats an earlier one when the same source shows
    // up twice in its target's ingress list (kept in def.conns order).
    std::vector<uint8_t> repeat(def.conns.size(), 0);
    std::vector<uint32_t> lastTarget(a.ids.size(), UINT32_MAX);
    for (uint32_t d = 0; d < a.ids.size(); ++d) {
        for (uint32_t i = a.ingressBegin[d]; i < a.ingressBegin[d + 1];
             ++i) {
            const uint32_t k = a.ingress[i];
            repeat[k] = lastTarget[a.connSrc[k]] == d;
            lastTarget[a.connSrc[k]] = d;
        }
    }

    for (uint32_t k = 0; k < def.conns.size(); ++k) {
        const NetworkDef::Conn &conn = def.conns[k];
        if (repeat[k])
            return Status::error("duplicate connection ", conn.from,
                                 "->", conn.to);
        if (a.isInput[a.connDst[k]] || conn.to < 0)
            return Status::error("connection ", conn.from, "->",
                                 conn.to, " targets an input id");
        if (!declared[a.connDst[k]])
            return Status::error("connection ", conn.from, "->",
                                 conn.to, " targets undefined node ",
                                 conn.to);
        if (!a.isInput[a.connSrc[k]] && !declared[a.connSrc[k]])
            return Status::error("connection ", conn.from, "->",
                                 conn.to, " reads undefined node ",
                                 conn.from);
        if (!std::isfinite(conn.weight))
            return Status::error("non-finite weight on connection ",
                                 conn.from, "->", conn.to);
    }
    if (!recurrent && !a.acyclic)
        return Status::error(
            "connections form a cycle in a feed-forward definition");
    return Status();
}

Result<std::unique_ptr<Network>>
compileNetwork(const NetworkDef &def,
               const NetworkCompileOptions &options)
{
    return compileNetwork(def, analyzeNetwork(def), options);
}

Result<std::unique_ptr<Network>>
compileNetwork(const NetworkDef &def, const NetAnalysis &analysis,
               const NetworkCompileOptions &options)
{
    if (options.recurrent && options.quantization)
        return Status::error(
            "quantized recurrent evaluation is not supported");
    if (Status invariants =
            checkDefInvariants(def, analysis, options.recurrent);
        !invariants.ok()) {
        return Status::error("malformed NetworkDef: ",
                             invariants.message());
    }
    if (options.quantization) {
        if (Status format = options.quantization->validate();
            !format.ok())
            return format;
        return std::unique_ptr<Network>(std::make_unique<QuantizedNetwork>(
            QuantizedNetwork::create(def, *options.quantization)));
    }
    if (options.recurrent) {
        return std::unique_ptr<Network>(std::make_unique<RecurrentNetwork>(
            RecurrentNetwork::create(def, analysis)));
    }
    return std::unique_ptr<Network>(std::make_unique<FeedForwardNetwork>(
        FeedForwardNetwork::create(def, analysis)));
}

} // namespace e3
