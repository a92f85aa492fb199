/**
 * @file
 * E3-CPU: the software-only baseline. All of evaluate runs on the CPU
 * with the interpreted-evaluator timing model.
 */

#ifndef E3_E3_CPU_BACKEND_HH
#define E3_E3_CPU_BACKEND_HH

#include "e3/backend.hh"

namespace e3 {

/** Software-only evaluate backend (the paper's baseline). */
class CpuBackend : public EvalBackend
{
  public:
    explicit CpuBackend(CpuTimingModel model = {}) : model_(model) {}

    std::string name() const override { return "E3-CPU"; }

    double evaluateSeconds(const GenerationTrace &trace) override
    {
        return model_.evaluateSeconds(trace);
    }

    void
    attributeEnergy(double evalSeconds,
                    EnergyBreakdownInput &energy) const override
    {
        energy.cpuSeconds += evalSeconds;
    }

    const CpuTimingModel &model() const { return model_; }

  private:
    CpuTimingModel model_;
};

} // namespace e3

#endif // E3_E3_CPU_BACKEND_HH
