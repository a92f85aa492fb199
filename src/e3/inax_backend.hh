/**
 * @file
 * E3-INAX: evaluate offloaded to the INAX accelerator model. The
 * backend costs every individual on a PU from its decoded NetStats,
 * replays the generation's episode liveness through the cycle-accurate
 * accelerator session (set-up once per PU batch, weights resident
 * across env steps), and reports time at the configured fabric clock.
 */

#ifndef E3_E3_INAX_BACKEND_HH
#define E3_E3_INAX_BACKEND_HH

#include "e3/backend.hh"
#include "inax/inax.hh"

namespace e3 {

/** INAX-accelerated evaluate backend. */
class InaxBackend : public EvalBackend
{
  public:
    explicit InaxBackend(InaxConfig cfg);

    std::string name() const override { return "E3-INAX"; }

    double evaluateSeconds(const GenerationTrace &trace) override;

    void
    attributeEnergy(double evalSeconds,
                    EnergyBreakdownInput &energy) const override
    {
        energy.fpgaSeconds += evalSeconds;
    }

    /** Accumulated cycle/utilization report across generations. */
    const InaxReport &report() const { return report_; }
    const InaxConfig &config() const { return cfg_; }

  private:
    InaxConfig cfg_;
    InaxReport report_;
};

} // namespace e3

#endif // E3_E3_INAX_BACKEND_HH
