/**
 * @file
 * The evolve-loop workloads: timed untraced E3Platform::run
 * repetitions, and the traced re-drive of the same loop from the
 * layers' public entry points.
 */

#ifndef PERFBENCH_EVOLVE_HH
#define PERFBENCH_EVOLVE_HH

#include <string>

#include "bench.hh"

namespace perfbench {

/** Configuration of one evolve workload (or fixture evolution). */
struct EvolveSpec
{
    std::string env;
    std::string backend;     ///< BackendRegistry CLI name
    size_t population = 150;
    size_t threads = 1;
    bool checkpointEachGeneration = false;
    int generations = 30;    ///< fixed horizon of one repetition
};

/** Spec of a named evolve workload; false if the name is not one. */
bool evolveSpecFor(const std::string &workload, bool smoke,
                   EvolveSpec &spec);

/**
 * The gate line pinned in golden.tsv for (@p spec, @p seed): trace
 * digest, RNG audit draws and hash, modeled-seconds digest, INAX cycles.
 */
std::string evolveGate(const EvolveSpec &spec, uint64_t seed,
                       const std::string &workDir);

/**
 * Run an evolve workload: correctness gates (pinned values, other
 * thread count), then untraced repetitions for args.seconds (trace
 * off) or the traced re-drive plus a serve tail of its champion
 * (trace on).
 */
void runEvolveWorkload(const Args &args, const EvolveSpec &spec,
                       Metrics &metrics, Outcome &outcome);

/**
 * Re-drive @p spec's loop with layer spans, gate it bit-for-bit
 * against an untraced E3Platform::run of the same configuration, and
 * report every evolve-side per-layer metric. The final champion is
 * written as a checkpoint into @p championDir (timed as a persist
 * write) so a serve tail can load it.
 */
void traceEvolveLayers(const EvolveSpec &spec, uint64_t seed,
                       const std::string &workDir,
                       const std::string &championDir, Metrics &metrics,
                       Outcome &outcome);

} // namespace perfbench

#endif // PERFBENCH_EVOLVE_HH
