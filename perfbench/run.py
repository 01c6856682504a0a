#!/usr/bin/env python3
"""The EveryWare benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload rpc_bulk|gossip_sim|sched_sim \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench/ (which builds the toolkit's libraries from src/) into the
directory named by CARGO_TARGET_DIR, or .bench_build by default.

With --trace 0 the last stdout line carries every end-to-end metric; with
--trace 1 it carries every per-layer metric, from one untraced and one traced
measurement. The line before it holds the run's details: determinism counts,
failed_frac, the run context and notes. A failed output check or a
determinism mismatch prints the result with "correct": false and exits 1; a
build or process failure exits 2 without a result.

    python3 perfbench/run.py --selftest    builds and runs the self-tests.
    python3 perfbench/run.py --record-determinism
        reruns the sims on seeds 1-10 and rewrites perfbench/determinism.json;
        a change that alters those counts must say so.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rpc_bulk", "gossip_sim", "sched_sim")
SIMS = ("gossip_sim", "sched_sim")
# Per-layer figures the sims take from the untraced episode of a traced run,
# so tracing overhead does not leak into them.
FROM_UNTRACED = ("reactor.user_us_per_call", "reactor.sys_us_per_call",
                 "reactor.wakeups_per_call", "sim.ns_per_event",
                 "pool.bytes_per_unit")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no toolkit sources at src/; run from the root of a source tree")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", bdir, "--target", target, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode:
        fail("build failed")
    return os.path.join(bdir, target)


def source_sha():
    """Git commit when the tree is a checkout, else a hash of the sources."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def run_process(binary, workload, seed, seconds, trace, trace_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if workload not in SIMS:  # a sim process runs one fixed episode
        cmd += ["--seconds", "%.3f" % seconds]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        fail("%s exited with %d" % (workload, r.returncode))
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def measure(binary, args):
    """Run the workload's processes; returns (untraced list, traced or None)."""
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s.spans.csv" % args.workload)
    if args.workload not in SIMS:
        p = run_process(binary, args.workload, args.seed, args.seconds,
                        args.trace, trace_out if args.trace else None)
        return [p], (p if args.trace else None)
    # Sims: one episode per process, so each reports its own peak RSS.
    if args.trace:
        return ([run_process(binary, args.workload, args.seed, args.seconds, False)],
                run_process(binary, args.workload, args.seed, args.seconds, True,
                            trace_out))
    runs, start, took = [], time.monotonic(), []
    while True:
        t0 = time.monotonic()
        runs.append(run_process(binary, args.workload, args.seed, args.seconds, False))
        took.append(time.monotonic() - t0)
        if time.monotonic() - start + max(took) > args.seconds:
            return runs, None


def compose(args, runs, traced, spec):
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    values, not_applicable = {}, []
    if not args.trace:
        for name in e2e_names:
            if name == "setup_s":
                values[name] = median([s for r in runs for s in r["setup_s"]])
            elif name == "peak_rss_mb":
                values[name] = median([r["peak_rss_mb"] for r in runs])
            else:
                values[name] = median([r["e2e"][name] for r in runs])
        names = e2e_names
    else:
        layers = dict(traced["layers"])
        if args.workload in SIMS:
            plain = runs[0]
            for name in FROM_UNTRACED:
                if name in plain["layers"]:
                    layers[name] = plain["layers"][name]
            layers["trace.overhead_frac"] = (
                traced["e2e"]["wall_s"] / plain["e2e"]["wall_s"] - 1.0)
        for name in layer_names:
            if name in layers:
                values[name] = layers[name]
            else:
                values[name] = 0
                not_applicable.append(name)
        names = layer_names
    bad = [n for n in names if not isinstance(values[n], (int, float))]
    if bad:
        fail("no value measured for " + ", ".join(bad))
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    return metrics, not_applicable


def check_determinism(args, procs):
    """Counts must agree across every process of the run and with the
    values recorded for this seed, when there are any."""
    counts = [p["counts"] for p in procs if "counts" in p]
    if not counts:
        return True, None, []
    problems = []
    if any(c != counts[0] for c in counts[1:]):
        problems.append("counts differ between episodes of one seed: %s" % counts)
    recorded = load_json("determinism.json").get(args.workload, {}).get(str(args.seed))
    if recorded is not None and recorded != counts[0]:
        problems.append("counts %s differ from the recorded %s" % (counts[0], recorded))
    return not problems, counts[0], problems


def selftest():
    rc = subprocess.run([build("perfbench_selftest")]).returncode
    rc |= subprocess.run([sys.executable, os.path.join(HERE, "tests", "test_spec.py")]).returncode
    sys.exit(1 if rc else 0)


def record_determinism():
    binary = build("perfbench")
    recorded = {}
    for workload in SIMS:
        recorded[workload] = {
            str(seed): run_process(binary, workload, seed, 60, False)["counts"]
            for seed in range(1, 11)}
    with open(os.path.join(HERE, "determinism.json"), "w") as f:
        json.dump(recorded, f, indent=2)
        f.write("\n")
    sys.exit(0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-determinism", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
    if args.record_determinism:
        record_determinism()
    if not args.workload:
        ap.error("--workload is required")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the root")
    with open(spec_path) as f:
        spec = json.load(f)
    binary = build("perfbench")

    runs, traced = measure(binary, args)
    procs = runs + ([traced] if traced and traced is not runs[0] else [])
    deterministic, counts, problems = check_determinism(args, procs)
    checks_ok = all(p["checks_passed"] for p in procs)
    metrics, not_applicable = compose(args, runs, traced, spec)
    correct = checks_ok and deterministic
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "processes": len(procs),
        "counts": counts,
        "latency_samples": sum(p["e2e"]["latency_samples"] for p in runs),
        "stalled_slices": sum(p["e2e"].get("stalled_slices", 0) for p in runs),
        "failed_frac": {"value": median([p["failed_frac"] for p in runs]),
                        "unit": "ratio"},
        "context": dict(procs[0]["context"], source=source_sha()),
        "not_applicable": not_applicable,
        "notes": {k: v for k, v in (traced or {}).get("layers", {}).items()
                  if isinstance(v, (str, dict))},
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in procs),
        "failed": sum(p["failed"] for p in procs),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
