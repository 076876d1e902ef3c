#!/usr/bin/env python3
"""Build and run the two-currency benchmark.

Single-run mode (one workload, one run; the last stdout line is the JSON result):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Report mode (every end-to-end metric with its unit, for every workload;
exits nonzero if any run reports a verdict error):

    python3 perfbench/run.py --report [--seed N] [--seconds S]

Steadiness mode (repeated runs per workload; prints each metric's median
and quartile spread against its bound, and checks that simulated-time
metrics and counts repeat exactly for a repeated seed):

    python3 perfbench/run.py --steadiness [--workloads a,b] [--runs N]
        [--seconds S] [--trace 0|1]

The benchmark is a cargo package of its own (perfbench/Cargo.toml) built
against the repository's crates by path, into $CARGO_TARGET_DIR
(default: .bench_build at the repository root).

BENCHMARK.json is the one list of metrics: every result is checked
against it (names and units), put in its order, and a per-layer metric
of a layer the workload does not run is reported as 0.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Measured (not seed-determined) metrics besides host times: memory, the
# per-byte probes, tracing figures, and the trap log, which grows with the
# run's length.
MEASURED = {"setup_s", "rss_peak_mb", "hypervisor.trap_log_entries"}
MEASURED_PREFIXES = ("model.", "trace.", "digest.")


def is_deterministic(name):
    """True for simulated-time metrics, counts and shares: a pure function
    of the seed, so a repeated seed must reproduce them exactly."""
    return not ("host" in name or name in MEASURED or name.startswith(MEASURED_PREFIXES))


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def conform(result, trace, spec):
    """Checks a result's metrics against BENCHMARK.json and returns it with
    the metrics in the spec's order; raises ValueError on a mismatch."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in units:
            raise ValueError(f"metric {name} is not listed in BENCHMARK.json")
        if m["unit"] != units[name]:
            raise ValueError(f"metric {name} has unit {m['unit']}, listed as {units[name]}")
    ordered = {}
    for name, unit in units.items():
        if name in metrics:
            ordered[name] = metrics[name]
        elif trace:
            ordered[name] = {"value": 0.0, "unit": unit}
        else:
            raise ValueError(f"end-to-end metric {name} missing")
    return dict(result, metrics=ordered)


def build():
    """Builds the benchmark binary; returns its path or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        proc = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=870,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isabs(binary):
        binary = os.path.join(ROOT, binary)
    return binary if os.path.exists(binary) else None


def pin_to_one_cpu():
    """Keeps the benchmark on one CPU. The workspace's rayon stand-in runs
    every parallel map on freshly spawned threads; on a small shared
    machine those threads waited on each other's core, and host times
    followed the load of other tenants. One CPU measures the work."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        pass


def run_binary(binary, args, trace):
    """Runs the benchmark binary; returns (exit code, other stdout lines,
    conformed result or None)."""
    proc = subprocess.run(
        [binary] + args + ["--out-dir", os.path.join(HERE, "out")],
        cwd=ROOT,
        preexec_fn=pin_to_one_cpu,
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = conform(json.loads(lines[-1]), trace, benchmark_spec())
        except (json.JSONDecodeError, KeyError, ValueError) as e:
            print(f"perfbench: bad result: {e}", file=sys.stderr)
            result = None
    code = proc.returncode if result is not None else (proc.returncode or 1)
    return code, lines[:-1], result


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, conformed result or None)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    code, _, result = run_binary(binary, args, trace)
    return code, result


def arg(argv, key, default):
    if key in argv:
        i = argv.index(key)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def report(binary, argv):
    spec = benchmark_spec()
    seed = int(arg(argv, "--seed", "1"))
    seconds = arg(argv, "--seconds", str(spec["run_seconds"]))
    failed = False
    for w in spec["workloads"]:
        code, result = run_once(binary, w["name"], seed, seconds, 0)
        print(f"== {w['name']} (seed {seed}, {seconds} s): exit {code}")
        if result is None:
            print("   no result")
            failed = True
            continue
        print(f"   correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"   {name:<24} {m['value']:>16.6g} {m['unit']}")
        failed |= code != 0 or not result["correct"]
    return 1 if failed else 0


def steadiness(binary, argv):
    spec = benchmark_spec()
    names = arg(argv, "--workloads", ",".join(w["name"] for w in spec["workloads"]))
    runs = int(arg(argv, "--runs", "10"))
    seconds = arg(argv, "--seconds", str(spec["run_seconds"]))
    trace = int(arg(argv, "--trace", "0"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in names.split(","):
        results = []
        for seed in range(1, runs + 1):
            code, result = run_once(binary, workload, seed, seconds, trace)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {code}, result {result is not None}")
                ok = False
                continue
            results.append(result)
            measured = " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                                if not is_deterministic(n))
            print(f"{workload} seed {seed}: {measured}", flush=True)
        # The first seed again: deterministic metrics must repeat exactly.
        code, again = run_once(binary, workload, 1, seconds, trace)
        if results and again is not None:
            first = results[0]["metrics"]
            for name, m in again["metrics"].items():
                if is_deterministic(name) and m["value"] != first[name]["value"]:
                    print(f"{workload}: {name} not repeatable for seed 1: "
                          f"{first[name]['value']} vs {m['value']}")
                    ok = False
        if len(results) < 2:
            continue
        print(f"== {workload}: {len(results)} runs, {seconds} s each, trace {trace}")
        print(f"   {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if trace == 0 else None
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "over 1/3 bound"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"   {name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {b:>6} {flag}")
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    binary = build()
    if binary is None:
        return 1
    if "--report" in argv:
        return report(binary, argv)
    if "--steadiness" in argv:
        return steadiness(binary, argv)
    code, lines, result = run_binary(binary, argv, arg(argv, "--trace", "0") == "1")
    for line in lines:
        print(line)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
