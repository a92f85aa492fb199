#include "nn/layering.hh"

#include <algorithm>
#include <tuple>

#include "common/logging.hh"

namespace e3 {

namespace {

/** CSR of connection indices grouped by key[k] < n, in k order. */
void
groupConns(const std::vector<uint32_t> &key, size_t n,
           std::vector<uint32_t> &begin, std::vector<uint32_t> &conns)
{
    begin.assign(n + 1, 0);
    for (uint32_t d : key)
        ++begin[d + 1];
    for (size_t d = 0; d < n; ++d)
        begin[d + 1] += begin[d];
    // begin[d] is d's fill cursor; once filled it holds d's end, which
    // is d + 1's begin, so one shift right restores the offsets.
    conns.resize(key.size());
    for (uint32_t k = 0; k < key.size(); ++k)
        conns[begin[key[k]]++] = k;
    for (size_t d = n; d > 0; --d)
        begin[d] = begin[d - 1];
    begin[0] = 0;
}

} // namespace

uint32_t
NetAnalysis::indexOf(int id) const
{
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    e3_assert(it != ids.end() && *it == id, "id ", id,
              " is not mentioned by the def");
    return static_cast<uint32_t>(it - ids.begin());
}

void
NetAnalysis::assertAcyclic() const
{
    for (uint32_t d = 0; !acyclic && d < ids.size(); ++d) {
        e3_assert(!required[d] || isInput[d] || level[d] > 0,
                  "unplaceable node ", ids[d], " implies a cycle");
    }
}

NetAnalysis
analyzeNetwork(const NetworkDef &def)
{
    NetAnalysis a;
    // The id table comes from the declared ids. Connection endpoints
    // resolve against it; one naming an undeclared id (never in a
    // well-formed def) joins the table, and every endpoint is then
    // resolved again against the re-sorted table.
    a.ids.reserve(def.inputIds.size() + def.outputIds.size() +
                  def.nodes.size());
    a.ids.assign(def.inputIds.begin(), def.inputIds.end());
    a.ids.insert(a.ids.end(), def.outputIds.begin(), def.outputIds.end());
    for (const auto &node : def.nodes)
        a.ids.push_back(node.id);
    std::sort(a.ids.begin(), a.ids.end());
    a.ids.erase(std::unique(a.ids.begin(), a.ids.end()), a.ids.end());
    const size_t declared = a.ids.size();
    auto declaredIndex = [&](int id) {
        const auto end = a.ids.begin() + static_cast<long>(declared);
        const auto it = std::lower_bound(a.ids.begin(), end, id);
        if (it != end && *it == id)
            return static_cast<uint32_t>(it - a.ids.begin());
        a.ids.push_back(id);
        return UINT32_MAX;
    };
    a.connSrc.reserve(def.conns.size());
    a.connDst.reserve(def.conns.size());
    for (const auto &c : def.conns) {
        a.connSrc.push_back(declaredIndex(c.from));
        a.connDst.push_back(declaredIndex(c.to));
    }
    if (a.ids.size() > declared) {
        std::sort(a.ids.begin(), a.ids.end());
        a.ids.erase(std::unique(a.ids.begin(), a.ids.end()),
                    a.ids.end());
        for (size_t k = 0; k < def.conns.size(); ++k) {
            a.connSrc[k] = a.indexOf(def.conns[k].from);
            a.connDst[k] = a.indexOf(def.conns[k].to);
        }
    }
    const size_t n = a.ids.size();

    a.isInput.assign(n, 0);
    for (int id : def.inputIds)
        a.isInput[a.indexOf(id)] = 1;
    groupConns(a.connDst, n, a.ingressBegin, a.ingress);
    std::vector<uint32_t> egressBegin;
    std::vector<uint32_t> egress;
    groupConns(a.connSrc, n, egressBegin, egress);

    // Required: reverse DFS from the outputs, as in neat-python's
    // required_for_output(); inputs are sources, never walked through.
    a.required.assign(n, 0);
    std::vector<uint32_t> stack;
    auto require = [&](uint32_t d) {
        if (!a.required[d]) {
            a.required[d] = 1;
            stack.push_back(d);
        }
    };
    for (int id : def.outputIds)
        require(a.indexOf(id));
    while (!stack.empty()) {
        const uint32_t d = stack.back();
        stack.pop_back();
        for (uint32_t i = a.ingressBegin[d]; i < a.ingressBegin[d + 1];
             ++i) {
            if (!a.isInput[a.connSrc[a.ingress[i]]])
                require(a.connSrc[a.ingress[i]]);
        }
    }

    // Kahn levelization of the required non-input nodes: inputs are
    // available from the start, and a node lands one layer past its
    // deepest source. pending[d] counts unplaced sources.
    auto placeable = [&](uint32_t d) {
        return a.required[d] && !a.isInput[d];
    };
    std::vector<uint32_t> pending(n, 0);
    a.level.assign(n, 0);
    size_t toPlace = 0;
    for (uint32_t d = 0; d < n; ++d) {
        if (!placeable(d))
            continue;
        ++toPlace;
        for (uint32_t i = a.ingressBegin[d]; i < a.ingressBegin[d + 1];
             ++i)
            pending[d] += a.isInput[a.connSrc[a.ingress[i]]] ? 0 : 1;
        if (pending[d] == 0) {
            a.level[d] = 1;
            stack.push_back(d);
        }
    }
    a.order.reserve(toPlace);
    while (!stack.empty()) {
        const uint32_t s = stack.back();
        stack.pop_back();
        a.order.push_back(s);
        for (uint32_t i = egressBegin[s]; i < egressBegin[s + 1]; ++i) {
            const uint32_t d = a.connDst[egress[i]];
            if (!placeable(d))
                continue;
            a.level[d] = std::max(a.level[d], a.level[s] + 1);
            if (--pending[d] == 0)
                stack.push_back(d);
        }
    }
    a.acyclic = a.order.size() == toPlace;
    for (uint32_t d = 0; d < n; ++d) {
        if (pending[d] > 0)
            a.level[d] = 0; // on or behind a cycle: never placed
    }

    std::sort(a.order.begin(), a.order.end(), [&](uint32_t x, uint32_t y) {
        return std::tie(a.level[x], x) < std::tie(a.level[y], y);
    });
    for (uint32_t i = 1; i <= a.order.size(); ++i) {
        if (i == a.order.size() ||
            a.level[a.order[i]] != a.level[a.order[i - 1]])
            a.layerEnd.push_back(i);
    }
    return a;
}

std::vector<int>
requiredNodes(const NetworkDef &def)
{
    const NetAnalysis a = analyzeNetwork(def);
    std::vector<int> required;
    for (uint32_t d = 0; d < a.ids.size(); ++d) {
        if (a.required[d])
            required.push_back(a.ids[d]);
    }
    return required;
}

std::vector<std::vector<int>>
feedForwardLayers(const NetworkDef &def)
{
    const NetAnalysis a = analyzeNetwork(def);
    a.assertAcyclic();
    std::vector<std::vector<int>> layers(a.layerEnd.size());
    for (uint32_t l = 0, i = 0; l < layers.size(); ++l) {
        for (; i < a.layerEnd[l]; ++i)
            layers[l].push_back(a.ids[a.order[i]]);
    }
    return layers;
}

bool
isAcyclic(const NetworkDef &def)
{
    return analyzeNetwork(def).acyclic;
}

} // namespace e3
