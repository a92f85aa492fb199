/**
 * @file
 * Required-node analysis and dependency layering for irregular networks,
 * following neat-python's feed_forward_layers algorithm, in one pass
 * per def that every consumer reads (stats, invariant check, compilers,
 * dense/dataflow analyses). INAX, GPU and CPU costing read the NetStats
 * distilled from it, so the generation replay never re-analyses a def.
 *
 * Cost, for N mentioned ids and E connections: sorting the declared
 * ids into a dense table is O(N log N) and resolving the connection
 * endpoints against it O(E log N); CSR ingress/egress lists, the
 * reverse DFS for required nodes and Kahn levelization are O(N + E).
 * Ordering: layers are neat-python's feed_forward_layers levels, ids
 * ascend within a layer, links follow def.conns order.
 */

#ifndef E3_NN_LAYERING_HH
#define E3_NN_LAYERING_HH

#include <cstdint>
#include <vector>

#include "nn/network.hh"

namespace e3 {

/**
 * The analysis of one NetworkDef: node d is ids[d] (d ascends with the
 * id), connection k is def.conns[k]. Malformed defs are analysed, not
 * rejected; checkDefInvariants() judges them.
 */
struct NetAnalysis
{
    std::vector<int> ids;          ///< every mentioned id, ascending
    std::vector<uint8_t> isInput;  ///< per d: listed in inputIds
    std::vector<uint8_t> required; ///< per d: needed for an output
    std::vector<uint32_t> connSrc; ///< per k: dense source
    std::vector<uint32_t> connDst; ///< per k: dense target

    /**
     * Connections into node d, in def.conns order, are
     * ingress[ingressBegin[d] .. ingressBegin[d + 1]); a required
     * node's sources are all inputs or required.
     */
    std::vector<uint32_t> ingressBegin;
    std::vector<uint32_t> ingress;

    /** Per d: 1-based layer; 0 for inputs and unplaced nodes. */
    std::vector<uint32_t> level;
    /** Placed nodes, layer by layer, ids ascending within a layer. */
    std::vector<uint32_t> order;
    /** End offset in order of each layer. */
    std::vector<uint32_t> layerEnd;
    /** Every required non-input node was placed (no cycle). */
    bool acyclic = true;

    /** Dense index of a mentioned id (panics on an unknown id). */
    uint32_t indexOf(int id) const;

    size_t inDegree(uint32_t d) const
    {
        return ingressBegin[d + 1] - ingressBegin[d];
    }

    /** Panics, naming the lowest unplaced id, unless acyclic. */
    void assertAcyclic() const;
};

NetAnalysis analyzeNetwork(const NetworkDef &def);

/**
 * Nodes required to compute the outputs, ids ascending: every
 * non-input node from which an output is reachable. Output nodes are
 * always required.
 */
std::vector<int> requiredNodes(const NetworkDef &def);

/**
 * Partition required non-input nodes into dependency layers.
 *
 * Layer k contains every not-yet-placed required node all of whose
 * ingress connections originate from inputs or layers < k; outputs
 * with no ingress at all land in the first layer. Panics on a cycle.
 *
 * @return layers of node ids, in execution order
 */
std::vector<std::vector<int>> feedForwardLayers(const NetworkDef &def);

/**
 * True if the connection set is acyclic over the required nodes (a
 * precondition for feed-forward execution).
 */
bool isAcyclic(const NetworkDef &def);

} // namespace e3

#endif // E3_NN_LAYERING_HH
