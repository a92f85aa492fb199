/**
 * @file
 * The champion-server workloads: fixture champions evolved against
 * the real environments, an open-loop TCP load generator timed from
 * each request's due time, the capacity search, and the expected-action
 * table every Ok response is checked against.
 */

#ifndef PERFBENCH_SERVE_HH
#define PERFBENCH_SERVE_HH

#include <string>

#include "bench.hh"

namespace perfbench {

bool isServeWorkload(const std::string &workload);

/**
 * Evolve the workload's champions for args.seed and write each as a
 * checkpoint directory under args.workDir (the fixtures mode). Done
 * once per seed, in its own process, outside every timed window.
 */
void buildServeFixtures(const Args &args);

/** Run a serve workload against the fixtures in @p fixtureDir. */
void runServeWorkload(const Args &args, const std::string &fixtureDir,
                      Metrics &metrics, Outcome &outcome);

/** The single champion an evolve workload's traced run serves. */
struct ServeTail
{
    std::string championDir;
    std::string envName;
};

/**
 * Short traced serve session of one champion, so an evolve workload's
 * traced run reports every serve-side per-layer metric too.
 */
void traceServeTail(const Args &args, const ServeTail &tail,
                    Metrics &metrics, Outcome &outcome);

} // namespace perfbench

#endif // PERFBENCH_SERVE_HH
