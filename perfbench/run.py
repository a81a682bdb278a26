#!/usr/bin/env python3
"""DynamIPs benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first call builds the benchmark
driver (perfbench/CMakeLists.txt, the repository's libraries from src/,
Release) under $CARGO_TARGET_DIR (default .bench_build). Each run then

  1. prepares the workload's inputs and per-seed references from --seed in
     a separate process (so the measured process's peak RSS is its own),
  2. runs the measured process for --seconds, which checks every output
     against the references, and
  3. prints `info` lines and, as the last stdout line, one JSON object:
     {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
     --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
     the per-layer metrics of a traced run; a per-layer metric whose layer
     the workload does not exercise reads 0.

The exit status is 0 only when every output check passed. --self-check
runs every workload at a tiny size, untraced, traced and with one output
deliberately corrupted, and checks that every metric is emitted with its
unit and that every corruption is caught.

BENCHMARK.json gates atlas_gen and cdn_col. cdn_stream and lg_query still
run on their own here, and a traced run of atlas_gen / cdn_col also runs
the traced lg_query / cdn_stream measurement (TRACED_WITH below).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("atlas_gen", "cdn_col", "cdn_stream", "lg_query")
# cdn_stream and lg_query are not in BENCHMARK.json: their end-to-end
# figures swing by 30-50 % with neighbour load on a shared host (see
# README.md). Their layers are measured inside the traced run of the gated
# workload named here: the looking glass serves Atlas study results, and
# the stream re-runs the CDN analyzer window by window.
TRACED_WITH = {"atlas_gen": "lg_query", "cdn_col": "cdn_stream"}
BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 90
RUN_GRACE_S = 60


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else Path.cwd() / target


def build_driver():
    """Configure and build perfbench_driver once per checkout; later calls
    are a no-op make. A lock serializes concurrent first builds."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no DynamIPs sources under {ROOT}; run from a full checkout", 2)
    out = build_root() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target",
                      "perfbench_driver", "-j", str(os.cpu_count() or 4)])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
                fail("build failed")
    return out / "perfbench_driver"


def run_once(driver, workload, seed, seconds, trace, tiny=False,
             perturb=False):
    """Prepare and run one workload. Returns (exit code, result, info)."""
    work = build_root() / "perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir", str(work),
              "--seconds", str(seconds)] + (["--tiny"] if tiny else [])
    try:
        prep = subprocess.run([str(driver), "prepare"] + common,
                              stdout=sys.stderr, timeout=PREPARE_TIMEOUT_S)
        if prep.returncode != 0:
            return prep.returncode or 1, None, {}
        cmd = [str(driver), "run"] + common + ["--trace", str(trace)]
        if perturb:
            cmd.append("--perturb")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=seconds + RUN_GRACE_S)
        lines = proc.stdout.decode(errors="replace").splitlines()
        info = {}
        for line in lines:
            parts = line.split()
            if len(parts) == 4 and parts[0] == "info":
                info[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
        result = None
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines[-1])
        if trace and (work / "trace.jsonl").exists():
            traces = build_root() / "perfbench-traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.copy(work / "trace.jsonl",
                        traces / f"{workload}-seed{seed}.jsonl")
        return proc.returncode, result, info
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out")
        return 1, None, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def complete(result, expected, trace):
    """Check a run's metrics against BENCHMARK.json; in a traced run,
    fill the per-layer metrics of layers this workload bypasses with 0.
    Returns the metric names that were filled, or raises ValueError."""
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in expected:
            raise ValueError(f"metric {name} is not in BENCHMARK.json")
        if m["unit"] != expected[name]:
            raise ValueError(f"metric {name} has unit {m['unit']}, "
                             f"BENCHMARK.json says {expected[name]}")
    missing = [n for n in expected if n not in metrics]
    if missing and not trace:
        raise ValueError(f"missing end-to-end metrics {missing}")
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    result["metrics"] = {n: metrics[n] for n in expected}
    return missing


def measure(driver, workload, seed, seconds, trace, tiny=False):
    """One run as the benchmark defines it. A traced run of a workload in
    TRACED_WITH also carries its companion's traced run; the companion's
    per-layer metrics fill the names the workload itself does not measure.
    Returns (exit code, result, info)."""
    rc, result, info = run_once(driver, workload, seed, seconds, trace, tiny)
    companion = TRACED_WITH.get(workload) if trace else None
    if result is None or companion is None:
        return rc, result, info
    rc2, extra, info2 = run_once(driver, companion, seed, seconds, trace,
                                 tiny)
    if extra is None:
        return rc2 or 1, None, info
    for name, m in extra["metrics"].items():
        result["metrics"].setdefault(name, m)
    result["correct"] = result["correct"] and extra["correct"]
    result["attempted"] += extra["attempted"]
    result["failed"] += extra["failed"]
    info.update({f"{companion}:{n}": m for n, m in info2.items()})
    return rc or rc2, result, info


def self_check(driver, e2e, per_layer, gated):
    ok = True
    measured = set()
    for w in WORKLOADS:
        for trace in (0, 1) if w in gated else (0,):
            expected = per_layer if trace else e2e
            rc, result, _ = measure(driver, w, 1, 1, trace, tiny=True)
            if rc != 0 or result is None or not result["correct"]:
                log(f"{w} trace={trace}: failed (exit {rc})")
                ok = False
                continue
            try:
                filled = complete(result, expected, trace)
            except ValueError as e:
                log(f"{w} trace={trace}: {e}")
                ok = False
                continue
            if trace:
                measured |= set(expected) - set(filled)
            names = ", ".join(f"{n} [{m['unit']}]"
                              for n, m in result["metrics"].items()
                              if n not in filled)
            log(f"{w} trace={trace}: ok: {names}")
        rc, result, _ = run_once(driver, w, 1, 1, 0, tiny=True, perturb=True)
        caught = rc != 0 and result is not None and not result["correct"]
        log(f"{w} perturbed output: {'caught' if caught else 'NOT CAUGHT'}")
        ok &= caught
    unmeasured = sorted(set(per_layer) - measured)
    if unmeasured:
        log(f"per-layer metrics no traced run measures: {unmeasured}")
        ok = False
    log("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no DynamIPs sources under {ROOT}; run from a full checkout", 2)
    e2e, per_layer, gated = load_spec()
    driver = build_driver()
    if args.self_check:
        return self_check(driver, e2e, per_layer, gated)
    if not args.workload:
        fail("--workload is required", 2)

    rc, result, info = measure(driver, args.workload, args.seed,
                               args.seconds, args.trace)
    if result is None:
        fail(f"{args.workload}: no result (exit {rc})")
    try:
        complete(result, per_layer if args.trace else e2e, args.trace)
    except ValueError as e:
        fail(f"{args.workload}: {e}")
    for name, m in info.items():
        print(f"info {name} {m['value']!r} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if rc == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
