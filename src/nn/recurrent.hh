/**
 * @file
 * Recurrent evaluation of evolved networks.
 *
 * The original NEAT formulation (and neat-python's RecurrentNetwork)
 * also evolves networks whose connection graph may contain cycles;
 * evaluation then advances one synchronous tick per activate() call,
 * with every node reading the *previous* tick's values. The paper's
 * prototype restricts itself to feed-forward topologies, but the
 * library supports both: set NeatConfig::feedForward = false to let
 * mutation create cycles, and evaluate the result with this class.
 * (A recurrent individual maps naturally onto an INAX PU: the value
 * buffer already holds all activations, and with no intra-tick
 * dependencies every node is schedulable in one wave set.)
 */

#ifndef E3_NN_RECURRENT_HH
#define E3_NN_RECURRENT_HH

#include "nn/network.hh"

namespace e3 {

/**
 * Synchronous-tick recurrent network.
 *
 * Per activate(): every node computes from the previous tick's value
 * buffer (inputs are updated immediately), then the buffers swap.
 * reset() zeroes the state between episodes.
 */
class RecurrentNetwork : public Network
{
  public:
    /**
     * Compile a definition; cycles are allowed. Nodes not required for
     * the outputs are pruned as in the feed-forward case.
     */
    static RecurrentNetwork create(const NetworkDef &def);

    /** Compile from the def's analysis (nn/layering.hh). */
    static RecurrentNetwork create(const NetworkDef &def,
                                   const NetAnalysis &analysis);

    /** Advance one tick; writes output values after the tick. */
    void activateInto(const double *inputs, double *outputs) override;

    /** Clear all state (start of an episode). */
    void reset() override;

    size_t numInputs() const override { return numInputs_; }
    size_t numOutputs() const override { return outputSlots_.size(); }
    size_t nodeCount() const { return nodes_.size(); }
    uint64_t connectionCount() const;

    /**
     * Per-tick node in-degrees as a single schedulable wave set
     * (every node independent within a tick) — feed this to the INAX
     * in-degree scheduling overload.
     */
    std::vector<size_t> inDegreeProfile() const;

  private:
    RecurrentNetwork() = default;

    size_t numInputs_ = 0;
    std::vector<EvalNode> nodes_;
    std::vector<uint32_t> outputSlots_;
    std::vector<double> prev_;
    std::vector<double> next_;
};

} // namespace e3

#endif // E3_NN_RECURRENT_HH
