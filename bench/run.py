"""Benchmark of cold `amalgam verify` runs.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; paths resolve from this file.  The benchmark is a closed
loop: it starts one fresh child process at a time (bench/child.py), each
running `amalgam.cli.main(["verify", THEOREM, "--config", ..., "--out", ...,
"--seed", N])` once with BLAS/OpenMP pinned to one thread, until the next
child would end more than half a child's time after --seconds, so a run
lasts about --seconds on average.  At least one child always runs.  Every
child's outputs are checked; timings are the medians over the children.
Each child also reads a host-speed index (hostspeed.py) around its call, and
its timings are scaled by it (see ELASTICITY), so that the shared host's
drift does not read as a change of the program.

With --trace 0 the last line of stdout carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 the children alternate between untraced and
traced, and it carries the per-layer metrics.  The lines before it record
the environment, each metric's median and high percentile with the sample
count, the error rate, and the deviation of the outputs from the stored seed
0 reference.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# workload -> theorem; the config is bench/workloads/<workload>.json
WORKLOADS = {
    "hilbert_strong_1d": "strong",
    "endpoint_1d_dense": "endpoint",
    "two_weight_2d": "two_weight_strong",
}
# Every timing of a child is reported times
# (REFERENCE_INDEX_S / host_index_s) ** ELASTICITY: seconds at the usual
# speed of the host the benchmark was tuned on, a 2-vCPU Intel Xeon VM, where
# REFERENCE_INDEX_S is the median host_index_s (hostspeed.py).  ELASTICITY
# is the slope of log(measured wall_s) on log(host_index_s) over the
# children of a ten-run set per workload on that host: 0.47, 0.79 and 0.69
# for hilbert_strong_1d, endpoint_1d_dense and two_weight_2d.  The measured
# times are printed beside the scaled ones.
REFERENCE_INDEX_S = 0.25
ELASTICITY = 0.7
EXPECTED_EXIT = 0
PINNED_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a run must end within 180 s; a child still running at this point is killed
GIVE_UP_S = 170
OUTPUTS = ("report.json", "cases.csv")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(PINNED_THREADS)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _high_percentile(values: list):
    """Nearest-rank percentile with at least ten samples above it, or None."""
    n = len(values)
    rank = n - 10
    if rank < 1:
        return None, None
    return sorted(values)[rank - 1], math.floor(100.0 * rank / n)


def _summary(values: list) -> dict:
    high, pct = _high_percentile(values)
    return {"median": statistics.median(values), "high": high, "high_pct": pct, "n": len(values),
            "values": values}


def _run_child(work: Path, index: int, theorem: str, config: Path, seed: int, traced: bool, env: dict,
               timeout: float) -> dict:
    out = work / f"out{index}"
    result_path = work / f"result{index}.json"
    argv = [
        sys.executable, str(BENCH / "child.py"), str(result_path), "1" if traced else "0",
        "verify", theorem, "--config", str(config), "--out", str(out), "--seed", str(seed),
    ]
    sample = {"traced": traced, "problems": [], "outputs": None, "result": None}
    with open(work / f"log{index}.txt", "w") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            sample["problems"].append(f"killed after {timeout:.0f} s")
            proc = None
    sample["duration"] = time.monotonic() - spawned
    if proc is not None and proc.returncode != 0:
        tail = (work / f"log{index}.txt").read_text()[-2000:]
        sample["problems"].append(f"child process exited {proc.returncode}: {tail}")
    if not result_path.is_file():
        sample["problems"].append("no result from the child")
        return sample
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    sample["result"] = result
    if result["error"] is not None:
        sample["problems"].append(f"exception: {result['error']}")
    if result["exit_code"] != EXPECTED_EXIT:
        sample["problems"].append(f"exit code {result['exit_code']}, expected {EXPECTED_EXIT}")
    try:
        sample["outputs"] = tuple((out / name).read_bytes() for name in OUTPUTS)
    except OSError as exc:
        sample["problems"].append(f"missing output: {exc}")
        return sample
    rows = csv.DictReader(io.StringIO(sample["outputs"][1].decode()))
    bad = [r["label"] for r in rows if not all(math.isfinite(float(r[k])) for k in ("lhs", "rhs"))]
    if bad:
        sample["problems"].append(f"non-finite lhs/rhs in cases {bad}")
    return sample


def _reference_deviation(workload: str, report: dict) -> dict:
    """Relative deviation of max_ratio and each stability value from the reference."""
    ref = json.loads((BENCH / "reference" / f"{workload}.json").read_text())

    def rel(value, base):
        value, base = float(value), float(base)
        return abs(value - base) / abs(base) if base != 0.0 else abs(value - base)

    out = {"max_ratio": rel(report["max_ratio"], ref["max_ratio"])}
    for key in sorted(set(ref["stability"]) | set(report["stability"])):
        if key in ref["stability"] and key in report["stability"]:
            out[f"stability.{key}"] = rel(report["stability"][key], ref["stability"][key])
        else:
            out[f"stability.{key}"] = "missing on one side"
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, config: dict | None = None) -> dict:
    """Measure one workload; print the record lines and return the result object.

    config replaces the workload's stored CLI config (used to run at reduced
    size); the reference comparison then does not apply.
    """
    spec = _spec()
    theorem = WORKLOADS[workload]
    env = _child_env()
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        config_path = BENCH / "workloads" / f"{workload}.json"
        if config is not None:
            config_path = work / "config.json"
            config_path.write_text(json.dumps(config))
        samples = []
        kinds = (False, True) if trace else (False,)
        start = time.monotonic()
        deadline = start + seconds
        while True:
            traced = kinds[len(samples) % len(kinds)]
            timeout = max(1.0, start + GIVE_UP_S - time.monotonic())
            samples.append(_run_child(work, len(samples), theorem, config_path, seed, traced, env, timeout))
            upcoming = [s["duration"] for s in samples if s["traced"] == kinds[len(samples) % len(kinds)]]
            if len(samples) >= len(kinds) and time.monotonic() + statistics.median(upcoming) / 2 > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = next((s["outputs"] for s in samples if s["outputs"] is not None), None)
    for s in samples:
        if s["outputs"] is not None and s["outputs"] != first:
            diff = [name for name, a, b in zip(OUTPUTS, s["outputs"], first) if a != b]
            s["problems"].append(f"{', '.join(diff)} differ from the first sample")
    failed = sum(1 for s in samples if s["problems"])
    for i, s in enumerate(samples):
        if s["problems"]:
            sys.stderr.write(f"sample {i} failed: {'; '.join(s['problems'])}\n")
    untraced, traced_runs = ([s["result"] for s in samples if s["traced"] == kind and s["result"] is not None]
                             for kind in (False, True))
    if not untraced or (trace and not traced_runs):
        raise SystemExit("error: no child produced a measurement")

    versions = untraced[0]["versions"]
    print("env " + json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(), "pinned_threads": PINNED_THREADS,
        **versions, "git_commit": _git_commit(),
    }, sort_keys=True))
    print(f"error_rate {failed}/{len(samples)} = {failed / len(samples)!r}")

    def scaled(r: dict, key: str) -> float:
        return r[key] * (REFERENCE_INDEX_S / r["host_index_s"]) ** ELASTICITY

    series = {
        "wall_s": [scaled(r, "wall_s") for r in untraced],
        "cpu_s": [scaled(r, "cpu_s") for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "setup_s": [scaled(r, "setup_s") for r in untraced + traced_runs],
        "measured_wall_s": [r["wall_s"] for r in untraced],
        "measured_cpu_s": [r["cpu_s"] for r in untraced],
        "measured_setup_s": [r["setup_s"] for r in untraced + traced_runs],
        "host_index_s": [r["host_index_s"] for r in untraced + traced_runs],
    }
    for name, values in series.items():
        print(f"timing {name} " + json.dumps(_summary(values)))

    if first is not None and config is None and seed == 0:
        deviation = _reference_deviation(workload, json.loads(first[0]))
        print("reference_deviation " + json.dumps(deviation, sort_keys=True))
    else:
        print("reference_deviation none: the reference covers the stored config at seed 0 only")

    if trace:
        # median_low picks a sample, so counts stay whole numbers
        layers = {name: statistics.median_low(r["layers"][name] for r in traced_runs)
                  for name in traced_runs[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(scaled(r, "wall_s") for r in traced_runs)
                                      - statistics.median(series["wall_s"]))
        total = sum(v for k, v in layers.items() if k.endswith("self_s"))
        shares = {k: v / total for k, v in layers.items() if k.endswith("self_s") and total > 0}
        print("self_time_share " + json.dumps(shares, sort_keys=True))
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": statistics.median(series[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "amalgam" / "cli.py").is_file():
        sys.stderr.write(f"error: no amalgam source under {ROOT / 'src'}\n")
        return 2
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
