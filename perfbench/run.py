#!/usr/bin/env python3
"""perfbench: the repository's benchmark, one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench driver (perfbench/CMakeLists.txt, which compiles
the e3 libraries from src/) into $CARGO_TARGET_DIR or .bench_build,
builds the serve workloads' champion fixtures once per seed, runs the
workload and prints, as the last line of stdout, one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Exits non-zero when a correctness gate fails.

Helper modes:

    --repeat K   run the workload K times (seeds N .. N+K-1) and print
                 each metric's median, quartiles and spread (IQR/median);
                 used to set the bounds in BENCHMARK.json.
    --smoke      tiny-size run of every workload, traced and untraced,
                 checking the output shape and the correctness gates.
    --pin A-B    print the pinned evolve gate lines (golden.tsv format)
                 for seeds A..B.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.tsv")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build_dir():
    """This checkout's build tree. Keyed by the checkout's path, so two
    checkouts sharing an absolute CARGO_TARGET_DIR never build or time
    each other's sources."""
    key = hashlib.sha1(ROOT.encode()).hexdigest()[:12]
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"),
                        "perfbench-" + key)


def build():
    """Configure and build the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the e3 sources (src/) are missing; nothing to build")
    bdir = os.path.join(build_dir(), "driver")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                shutil.rmtree(bdir, ignore_errors=True)
                fail_build(log_path)
        cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j4"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail_build(log_path)
    return os.path.join(bdir, "perfbench")


def fail_build(log_path):
    try:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    except OSError:
        pass
    die("build failed (log: %s)" % log_path)


def fixtures(binary, workload, seed):
    """Champion checkpoints of a serve workload, built once per seed and
    driver binary: a rebuilt driver (say, a changed NEAT or persist)
    evolves and serves its own champions, never another build's."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:16]
    root = os.path.join(build_dir(), "fixtures", build_id,
                        "%s-%d" % (workload, seed))
    if os.path.isfile(os.path.join(root, "complete")):
        return root
    tmp = root + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(root, ignore_errors=True)
    subprocess.run([binary, "fixtures", "--workload", workload,
                    "--seed", str(seed), "--work", tmp],
                   check=True, timeout=RUN_TIMEOUT_S)
    open(os.path.join(tmp, "complete"), "w").close()
    os.rename(tmp, root)
    return root


def run_once(binary, spec, workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (exit code, parsed result or None)."""
    work = os.path.join(build_dir(), "work",
                        "%s-%d-%d" % (workload, seed, trace))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", work, "--golden", GOLDEN]
    if workload.startswith("serve-"):
        cmd += ["--fixtures", fixtures(binary, workload, seed)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode or 1, None
    result = json.loads(lines[-1])
    problems = shape_problems(spec, result, trace)
    if problems:
        for p in problems:
            print("perfbench: " + p, file=sys.stderr)
        return proc.returncode or 1, result
    return proc.returncode, result


def shape_problems(spec, result, trace):
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer"] + spec["end_to_end"]}
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    got = result["metrics"]
    if sorted(got) != sorted(want):
        problems.append("metrics %s, expected %s"
                        % (sorted(got), sorted(want)))
    for name, m in got.items():
        if name in units and m.get("unit") != units[name]:
            problems.append("%s has unit %s, expected %s"
                            % (name, m.get("unit"), units[name]))
    return problems


def spread_report(spec, workload, values):
    print("%s: %d runs" % (workload, len(values[next(iter(values))])))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = bounds.get(name)
        note = ""
        if bound is not None:
            note = "  bound %.3f  %s" % (
                bound, "ok" if spread < bound / 3 else
                ("WITHIN BOUND" if spread < bound else "TOO WIDE"))
        print("  %-26s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s"
              % (name, q2, q1, q3, spread, note))
        print("    values: " + " ".join("%.6g" % v for v in vals))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--pin", default=None)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    binary = build()

    if args.smoke:
        ok = True
        for workload in names:
            for trace in (0, 1):
                code, result = run_once(binary, spec, workload, 1, 1,
                                        trace, smoke=True)
                good = code == 0 and result is not None \
                    and result["correct"]
                ok &= good
                print("smoke %-14s trace %d: %s" % (
                    workload, trace, "ok" if good else "FAILED"))
        sys.exit(0 if ok else 1)

    if args.pin:
        first, last = (int(x) for x in args.pin.split("-"))
        for workload in names:
            if not workload.startswith("evolve-"):
                continue
            for seed in range(first, last + 1):
                work = os.path.join(build_dir(), "work", "pin")
                out = subprocess.run(
                    [binary, "gate", "--workload", workload,
                     "--seed", str(seed), "--work", work],
                    stdout=subprocess.PIPE, text=True, check=True,
                    timeout=RUN_TIMEOUT_S).stdout
                print(out.strip(), flush=True)
        return

    if args.workload not in names:
        die("--workload must be one of %s" % ", ".join(names))

    if args.repeat:
        values = {}
        for k in range(args.repeat):
            code, result = run_once(binary, spec, args.workload,
                                    args.seed + k, seconds, args.trace)
            if code != 0 or result is None:
                die("run with seed %d failed" % (args.seed + k))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        spread_report(spec, args.workload, values)
        return

    code, result = run_once(binary, spec, args.workload, args.seed,
                            seconds, args.trace)
    if result is None:
        die("the driver printed no result (exit code %d)" % code)
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
