#!/usr/bin/env python3
"""Self-test of the benchmark's output.

    python3 perfbench/selftest.py [--seconds N]

Runs every workload of BENCHMARK.json once untraced and once traced at
seed 0 and checks that:
  - every name (workload and metric) matches [A-Za-z0-9_.-]+;
  - the result line has exactly the keys correct/attempted/failed/metrics;
  - every listed end-to-end metric (untraced) and per-layer metric (traced)
    is present, with its unit, for every workload;
  - nothing failed (fail_frac is 0) and the result is marked correct;
  - the QoR of the canonical seed-0 tree (its `qor` line in the untraced
    run: buffers, wirelength, simulated skew, latency and worst slew)
    equals what
    `cts_run synth --bench B --profile accurate [--insertion dp] --domains 2`
    prints for the same benchmark.
Exits 1 on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run_bench(workload, trace, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"{workload} trace={trace}: exit {out.returncode}")
    return lines, json.loads(lines[-1])


def check_result(workload, trace, lines, result, listed):
    where = f"{workload} trace={trace}"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{where}: result keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        fail(f"{where}: correct={result['correct']} failed={result['failed']} "
             f"attempted={result['attempted']}")
    if not any(l.startswith("fail_frac 0.0000 ") for l in lines):
        fail(f"{where}: fail_frac is not 0")
    metrics = result["metrics"]
    for name in metrics:
        if not NAME.fullmatch(name):
            fail(f"{where}: bad metric name {name!r}")
    for spec in listed:
        got = metrics.get(spec["name"])
        if got is None:
            fail(f"{where}: metric {spec['name']} missing")
        if got["unit"] != spec["unit"]:
            fail(f"{where}: {spec['name']} unit {got['unit']} != {spec['unit']}")
    if set(metrics) != {spec["name"] for spec in listed}:
        fail(f"{where}: unlisted metrics {sorted(set(metrics) - {s['name'] for s in listed})}")
    print(f"selftest: {where}: {len(metrics)} metrics, "
          f"{result['attempted']} attempted, 0 failed")


def cts_run_qor(workload):
    bench, insertion = workload.split("-")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    subprocess.run(["dune", "build", "--root", ROOT, "--build-dir", build_dir,
                    "--display", "quiet", "./bin/cts_run.exe"],
                   cwd=ROOT, check=True)
    out_dir = os.path.join(ROOT, "perfbench", "_out")
    os.makedirs(out_dir, exist_ok=True)
    cache = os.path.join(out_dir, "selftest_delaylib.txt")
    if os.path.exists(cache):
        os.remove(cache)  # a cold cache: the in-memory library, as the bench uses
    out = subprocess.run(
        [os.path.join(ROOT, build_dir, "default", "bin", "cts_run.exe"),
         "synth", "--bench", bench, "--profile", "accurate", "--insertion",
         insertion, "--domains", "2", "--cache", cache],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    tree = re.search(r"(\d+) buffers, .* wirelength (\d+) um", out)
    sim = re.search(r"latency=([\d.]+) ps\s+skew=([\d.]+) ps\s+worst slew=([\d.]+) ps",
                    out)
    if not tree or not sim:
        fail(f"cannot parse cts_run output for {workload}:\n{out}")
    return {
        "buffers": (float(tree.group(1)), 0),
        "wirelength_mm": (float(tree.group(2)) / 1000., 3),
        "sim_latency_ps": (float(sim.group(1)), 1),
        "sim_skew_ps": (float(sim.group(2)), 1),
        "sim_worst_slew_ps": (float(sim.group(3)), 1),
    }


def canonical_qor(workload, lines):
    """The `qor` line of the canonical instance in an untraced seed-0 run."""
    bench = workload.split("-")[0]
    for line in lines:
        if line.startswith(f"qor {bench}:"):
            fields = line.split(":", 1)[1].split()
            return {k: float(v) for k, v in zip(fields[::2], fields[1::2])}
    fail(f"{workload}: no qor line for the canonical instance {bench}")


def main():
    args = sys.argv[1:]
    seconds = int(args[args.index("--seconds") + 1]) if "--seconds" in args else 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[key]:
            if not NAME.fullmatch(entry["name"]):
                fail(f"bad {key} name {entry['name']!r}")
    for w in spec["workloads"]:
        name = w["name"]
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines, result = run_bench(name, trace, seconds)
            check_result(name, trace, lines, result, listed)
            if trace == 0:
                qor = canonical_qor(name, lines)
        for metric, (expected, digits) in cts_run_qor(name).items():
            got = round(qor[metric], digits)
            if got != expected:
                fail(f"{name}: {metric} {got} != cts_run {expected}")
        print(f"selftest: {name}: QoR matches cts_run synth")
    print("selftest: OK")


if __name__ == "__main__":
    main()
