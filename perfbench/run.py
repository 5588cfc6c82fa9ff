#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds perfbench/ (the simulator
libraries from src/ plus the measurement core) into .bench_build/ with
the settings of the root `release` preset, and a second tree with
IDIO_TRACE=ON for the stage-latency slice. It then runs the workload:

  --trace 0  timed reps for --seconds; prints the end-to-end metrics.
  --trace 1  alternating traced/untraced reps, the layer probes and a
             packet-traced slice summarised by tools/trace_summary.py;
             prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Any failed output check makes
correct false, counts every offered packet as failed, and exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TREES = {
    "release": ["-DCMAKE_BUILD_TYPE=Release", "-DIDIO_TRACE=OFF",
                "-DIDIO_CHECK_INVARIANTS=OFF"],
    "trace": ["-DCMAKE_BUILD_TYPE=Release", "-DIDIO_TRACE=ON",
              "-DIDIO_CHECK_INVARIANTS=OFF"],
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build both trees; returns binary paths."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = os.path.join(BUILD, "build.log")
    binaries = {}
    with open(log_path, "w") as log:
        for tree, flags in TREES.items():
            bdir = os.path.join(BUILD, tree)
            steps = []
            if not os.path.exists(os.path.join(bdir, "Makefile")):
                steps.append(["cmake", "-S", HERE, "-B", bdir] + flags)
            steps.append(["cmake", "--build", bdir, "-j", jobs,
                          "--target", "perfbench"])
            for cmd in steps:
                log.write("$ " + " ".join(cmd) + "\n")
                log.flush()
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode
                if rc != 0:
                    log.close()
                    with open(log_path) as fh:
                        sys.stderr.write("".join(fh.readlines()[-30:]))
                    fail(f"build of the {tree} tree failed (see {log_path})")
            binaries[tree] = os.path.join(bdir, "perfbench")
    return binaries


def measure(binary, args, mode, out):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail(f"{mode} run of {args.workload} did not finish in 170 s")
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{mode} run of {args.workload} exited {proc.returncode}")
    if mode == "stage":
        return None
    with open(out) as fh:
        return json.load(fh)


def stage_slice(binary, args, errors):
    """Packet-traced slice -> stage-latency percentiles."""
    trace = os.path.join(BUILD, "runs", f"{args.workload}-stage.json")
    measure(binary, args, "stage", trace)
    cmd = [sys.executable, os.path.join(ROOT, "tools", "trace_summary.py"),
           trace]
    # tenant_ioca's slice leaves the antagonist warm-up untraced, so its
    # trace cannot match the totals sidecar (see perfbench.cc).
    if args.workload != "tenant_ioca":
        cmd += ["--check-totals", trace + ".totals.json"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=120)
    if proc.returncode != 0:
        errors.append("trace_summary.py cross-check failed:\n" +
                      proc.stdout[-2000:] + proc.stderr[-2000:])
    stages = benchlib.parse_stage_table(proc.stdout)
    if len(stages) != 2 * len(benchlib.STAGE_ROWS):
        errors.append("trace_summary.py printed no stage-latency table")
    return stages


def check(doc, workload):
    errors = []
    for rep in doc["reps"]:
        for system in rep["systems"]:
            errors += benchlib.conservation_errors(system)
    if workload == "fig09_sweep":
        errors += benchlib.fig09_shape_errors(doc["reps"][0]["systems"])
    errors += benchlib.digest_errors(doc["reps"], doc["ckpt"])
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binaries = build()
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    mode = "traced" if args.trace else "timed"
    out = os.path.join(BUILD, "runs", f"{args.workload}-{mode}.json")
    doc = measure(binaries["release"], args, mode, out)
    errors = check(doc, args.workload)

    manifest = dict(doc["manifest"])
    manifest["build_preset"] = "release"
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    print(f"simulated-stats digest: {benchlib.rep_digest(doc['reps'][0])}")
    n = len(doc["latency_ticks"])
    print(f"latency samples: {n} (beyond p99: "
          f"{benchlib.samples_beyond(n, 99)}, beyond p99.9: "
          f"{benchlib.samples_beyond(n, 99.9)})")
    timed = doc["reps"][1:]
    median_rate = statistics.median(benchlib.rep_rate(r, "packets")
                                    for r in timed)
    print(f"reps: {len(doc['reps'])} (first is warm-up); median rep "
          f"{median_rate:.0f} pkt/s, fastest run per system "
          f"{benchlib.best_rate(timed, 'packets'):.0f} pkt/s")

    try:
        if args.trace:
            stages = stage_slice(binaries["trace"], args, errors)
            values = benchlib.per_layer_metrics(doc, stages)
            print(f"run id: {doc['run_id']}; span self time "
                  "(count, total ms, self ms):")
            table = benchlib.self_times(doc["spans"])
            for name, (count, total, own) in sorted(table.items()):
                print(f"  {name:<22} {count:>7} {total / 1e3:>10.2f} "
                      f"{own / 1e3:>10.2f}")
            metrics = benchlib.assemble(values, benchlib.PER_LAYER)
        else:
            values = benchlib.end_to_end_metrics(doc)
            metrics = benchlib.assemble(values, benchlib.END_TO_END)
    except benchlib.MissingMetric as e:
        fail(str(e))

    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    attempted = sum(s["generated"] for r in doc["reps"]
                    for s in r["systems"])
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": attempted if errors else 0,
                      "metrics": metrics}))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
