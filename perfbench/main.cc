/**
 * @file
 * perfbench driver binary.
 *
 *   perfbench run --workload W --seed N --seconds S --trace 0|1
 *             --work DIR --fixtures DIR --golden FILE [--smoke]
 *   perfbench fixtures --workload W --seed N --work DIR
 *   perfbench gate --workload W --seed N --work DIR
 *
 * `run` prints a human-readable report on stderr and, as the last line
 * of stdout, one JSON object: correct, attempted, failed, metrics.
 * It exits non-zero when any correctness gate fails.
 */

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.hh"
#include "common/logging.hh"
#include "evolve.hh"
#include "serve.hh"

using namespace perfbench;

namespace {

Args
parseArgs(int argc, char **argv, std::string &fixtures)
{
    Args args;
    if (argc < 2)
        e3_fatal("usage: perfbench run|fixtures --workload W --seed N ...");
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            e3_fatal(key, " needs a value");
        const std::string value = argv[++i];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--work")
            args.workDir = value;
        else if (key == "--fixtures")
            fixtures = value;
        else if (key == "--golden")
            args.goldenPath = value;
        else
            e3_fatal("unknown option ", key);
    }
    if (args.workDir.empty())
        e3_fatal("--work is required");
    std::filesystem::create_directories(args.workDir);
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string fixtures;
    const Args args = parseArgs(argc, argv, fixtures);

    if (args.mode == "fixtures") {
        if (!isServeWorkload(args.workload))
            e3_fatal(args.workload, " has no fixtures");
        buildServeFixtures(args);
        return 0;
    }
    if (args.mode == "gate") {
        EvolveSpec spec;
        if (!evolveSpecFor(args.workload, false, spec))
            e3_fatal(args.workload, " has no pinned gate");
        std::printf("%s %" PRIu64 " %s\n", args.workload.c_str(), args.seed,
                    evolveGate(spec, args.seed, args.workDir).c_str());
        return 0;
    }
    if (args.mode != "run")
        e3_fatal("unknown mode ", args.mode);

    Metrics metrics;
    Outcome outcome;
    EvolveSpec spec;
    if (evolveSpecFor(args.workload, args.smoke, spec))
        runEvolveWorkload(args, spec, metrics, outcome);
    else if (isServeWorkload(args.workload))
        runServeWorkload(args, fixtures, metrics, outcome);
    else
        e3_fatal("unknown workload ", args.workload);

    std::fprintf(stderr, "%s seed %" PRIu64 " (%s):\n%s",
                 args.workload.c_str(), args.seed,
                 args.trace ? "traced" : "untraced",
                 metrics.text().c_str());
    for (const std::string &failure : outcome.gateFailures)
        std::fprintf(stderr, "GATE FAILED: %s\n", failure.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                outcome.correct() ? "true" : "false",
                outcome.attempted, outcome.failed,
                metrics.json().c_str());
    std::fflush(stdout);
    return outcome.correct() ? 0 : 1;
}
