/**
 * @file
 * Irregular feed-forward network: definition and executable form.
 *
 * A NetworkDef is the hardware-agnostic description produced by decoding
 * a NEAT genome ("CreateNet" in the paper's Table III): node ids with
 * bias/activation/aggregation, plus weighted directed connections.
 * Following neat-python's convention, input nodes have negative ids
 * (-1..-n), output nodes are 0..o-1, and hidden nodes are >= o. Inputs
 * are pure value sources and carry no bias/activation.
 *
 * FeedForwardNetwork is the compiled form: connections are pruned to the
 * nodes actually required for the outputs, nodes are partitioned into
 * dependency layers (every node's sources live in strictly earlier
 * layers), and activate() runs inference over a flat value array. The
 * layer structure is exactly what the INAX model schedules onto PEs.
 */

#ifndef E3_NN_NETWORK_HH
#define E3_NN_NETWORK_HH

#include <cstdint>
#include <vector>

#include "nn/activations.hh"
#include "nn/aggregations.hh"

namespace e3 {

struct NetAnalysis;

/** Hardware-agnostic network description (decoded genome). */
struct NetworkDef
{
    /** Non-input node: carries bias, activation and aggregation. */
    struct Node
    {
        int id;
        double bias = 0.0;
        Activation act = Activation::Sigmoid;
        Aggregation agg = Aggregation::Sum;
    };

    /** Directed weighted connection (enabled genes only). */
    struct Conn
    {
        int from;
        int to;
        double weight;
    };

    std::vector<int> inputIds;  ///< by convention -1..-n
    std::vector<int> outputIds; ///< by convention 0..o-1
    std::vector<Node> nodes;    ///< output + hidden nodes
    std::vector<Conn> conns;    ///< enabled connections

    /** Convenience: a def with standard ids and no hidden nodes. */
    static NetworkDef empty(size_t numInputs, size_t numOutputs);
};

/** One weighted ingress edge of a compiled node. */
struct EvalLink
{
    uint32_t srcSlot; ///< index into the value array
    double weight;
};

/** One compiled (non-input, required) node. */
struct EvalNode
{
    int id;           ///< original node id
    uint32_t slot;    ///< value-array slot this node writes
    double bias;
    Activation act;
    Aggregation agg;
    std::vector<EvalLink> links; ///< ingress connections
};

/** A def's nodes in one execution order (slots: inputs, then nodes). */
struct CompiledNodes
{
    std::vector<EvalNode> nodes;
    std::vector<uint32_t> outputSlots; ///< in outputIds order
    uint32_t slotCount = 0;
};

/**
 * Compile the nodes @p order lists (dense indices of @p analysis) with
 * links in def.conns order, as both evaluators do. Panics on an empty
 * interface or a repeated or undeclared node id.
 */
CompiledNodes compileNodes(const NetworkDef &def,
                           const NetAnalysis &analysis,
                           const std::vector<uint32_t> &order);

/**
 * Common interface of every executable network form (feed-forward,
 * recurrent, quantized). Evaluators, benches and the replay path
 * program against this contract instead of switching on concrete
 * types; compileNetwork() (nn/compile.hh) picks the implementation.
 *
 * Contract: the span-style activateInto() core reads one value per
 * input in inputIds order and writes one value per output in outputIds
 * order; the std::vector activate() overload is a thin allocating
 * wrapper over it. reset() clears any cross-step state (a no-op for
 * stateless networks) and must be called between episodes.
 */
class Network
{
  public:
    virtual ~Network() = default;

    /**
     * Run one inference (one synchronous tick for stateful nets).
     * Reads exactly numInputs() doubles from @p inputs and writes
     * exactly numOutputs() doubles to @p outputs; implementations do
     * not allocate. This is the core every batch evaluator drives.
     */
    virtual void activateInto(const double *inputs,
                              double *outputs) = 0;

    /** Convenience wrapper over activateInto(). */
    std::vector<double> activate(const std::vector<double> &inputs);

    /** Clear cross-step state; default is stateless. */
    virtual void reset() {}

    virtual size_t numInputs() const = 0;
    virtual size_t numOutputs() const = 0;
};

/**
 * Compiled irregular feed-forward network.
 *
 * Invariants: layer k nodes only read slots written by inputs or layers
 * < k; every output id has a slot (an output never reached by any
 * connection still exists and emits its activated bias).
 */
class FeedForwardNetwork : public Network
{
  public:
    /** Compile a definition (prunes nodes not required for outputs). */
    static FeedForwardNetwork create(const NetworkDef &def);

    /** Compile from the def's analysis (nn/layering.hh). */
    static FeedForwardNetwork create(const NetworkDef &def,
                                     const NetAnalysis &analysis);

    /**
     * Run one inference.
     * @param inputs one value per input id, in inputIds order
     * @param outputs one value per output id, in outputIds order
     */
    void activateInto(const double *inputs, double *outputs) override;

    size_t numInputs() const override { return numInputs_; }
    size_t numOutputs() const override { return outputSlots_.size(); }

    /** Dependency layers, in execution order. */
    const std::vector<std::vector<EvalNode>> &layers() const
    {
        return layers_;
    }

    /** Active (post-pruning) non-input node count. */
    size_t nodeCount() const;

    /** Active connection count == MAC operations per inference. */
    uint64_t connectionCount() const;

    /** Total value-array slots (inputs + compiled nodes). */
    size_t valueSlots() const { return slotCount_; }

    /** Value-array slot of each output, in outputIds order. */
    const std::vector<uint32_t> &outputSlots() const
    {
        return outputSlots_;
    }

    /**
     * The value array of the most recent activate() call: input slots
     * first, then one slot per compiled node. Indexed exactly like the
     * verifier's networkValueBounds(), which is what makes per-node
     * bound checks possible from the outside.
     */
    const std::vector<double> &values() const { return values_; }

  private:
    FeedForwardNetwork() = default;

    size_t numInputs_ = 0;
    size_t slotCount_ = 0;
    std::vector<std::vector<EvalNode>> layers_;
    std::vector<uint32_t> outputSlots_;
    std::vector<double> values_;
};

} // namespace e3

#endif // E3_NN_NETWORK_HH
