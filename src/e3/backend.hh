/**
 * @file
 * Evaluate-phase backend interface. The E3 platform runs NEAT's
 * functional simulation once, on the same host engine (nn/batch_eval)
 * whatever the backend; a backend only maps each generation's workload
 * trace onto a platform variant's execution-time model — software CPU
 * (E3-CPU), GPU (E3-GPU) or the INAX cycle model (E3-INAX) — and
 * attributes the time to a component for the energy model.
 */

#ifndef E3_E3_BACKEND_HH
#define E3_E3_BACKEND_HH

#include <string>

#include "e3/energy_model.hh"
#include "e3/timing_model.hh"

namespace e3 {

/** Maps generation workloads to evaluate-phase time. */
class EvalBackend
{
  public:
    virtual ~EvalBackend() = default;

    /** Variant name, e.g. "E3-CPU". */
    virtual std::string name() const = 0;

    /**
     * Modeled seconds to run one generation's evaluate on this
     * backend. May accumulate internal reports (e.g. INAX cycles).
     */
    virtual double evaluateSeconds(const GenerationTrace &trace) = 0;

    /** Attribute evaluate time to the right component. */
    virtual void attributeEnergy(double evalSeconds,
                                 EnergyBreakdownInput &energy) const = 0;

    /**
     * Always true: every backend's functional inference runs on the
     * flat batch engine, and the platform no longer asks. Kept only
     * because perfbench's StampingBackend forwards it and its traced
     * re-drive reads it to compile with the engine the platform runs.
     */
    virtual bool batchedFunctionalInference() const { return true; }
};

} // namespace e3

#endif // E3_E3_BACKEND_HH
