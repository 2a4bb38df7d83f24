"""oraclelab benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the root of a checkout:

    python3 benchmark/run.py --workload predict-search --seed 1 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 10 --trace 1

Every job runs in a fresh interpreter (``job.py``), one after another, so the
library's caches are cold at the start of each job, as in a CLI invocation.
The run starts jobs until ``--seconds`` have passed, always at least one.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs one traced job and one untraced job of the same fixed work and prints
the per-module metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md maps
each module metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("predict-search", "predict-cells", "circuit-search", "session")
JOB = Path(__file__).resolve().parent / "job.py"
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 7
SESSION_QUERIES = 150
CIRCUIT_SELECTORS = ("grover:n=2", "dj:n=2", "simon:n=2", "dj:n=1")
OTHER_SELECTORS = ("simon:n=3", "grover:n=4")
SESSION_KINDS = (
    [("ak", s) for s in CIRCUIT_SELECTORS + OTHER_SELECTORS + ("random",)]
    + [("histories", s) for s in CIRCUIT_SELECTORS]
    + [("simulate", s) for s in CIRCUIT_SELECTORS]
)
END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_frac": "ratio", "_bytes": "bytes"}


class JobFailed(Exception):
    """A job process exited with an error or printed no result."""


def random_problem(rng: random.Random) -> str:
    """32 settings with 5-bit ids, distinct 3-bit-argument tables and 4 equal answer blocks."""
    ids = list(range(32))
    rng.shuffle(ids)
    tables = rng.sample(range(256), 32)
    settings = [
        {
            "id": format(value, "05b"),
            "table": [str((table >> (7 - a)) & 1) for a in range(8)],
            "solution": format(rank // 8, "02b"),
        }
        for rank, (value, table) in enumerate(zip(ids, tables))
    ]
    document = {"name": "random", "arg_bits": 3, "out_bits": 1, "family": "linear", "settings": settings}
    return json.dumps(document)


def session_queries(rng: random.Random):
    """Endless closed-loop query stream: every query kind once per round, in seeded order."""
    while True:
        kinds = list(SESSION_KINDS)
        rng.shuffle(kinds)
        for cmd, selector in kinds:
            yield {"cmd": cmd, "problem": selector, "pick": rng.randrange(1 << 30)}


class Workload:
    """Requests for one workload's jobs, all derived from the seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self._rng = random.Random(f"{name}:{seed}")
        self._queries = session_queries(self._rng)

    def request(self, mode: str) -> dict:
        req = {"workload": self.name, "mode": mode}
        if self.name == "session":
            # each session brings its own random problem, so a run averages over several
            req["random_problem"] = random_problem(self._rng)
            req["selectors"] = {"circuits": CIRCUIT_SELECTORS, "problems": OTHER_SELECTORS}
            if mode != "setup":
                req["queries"] = [next(self._queries) for _ in range(SESSION_QUERIES)]
        return req


def spawn(request: dict, deadline: float) -> dict:
    """Run one job in a fresh interpreter; adds its set-up seconds to the result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(JOB)],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            env=env,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise SystemExit(f"{request['workload']} {request['mode']} job passed the run's time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise JobFailed(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else f"exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - started
    return result


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated; one sample is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: Workload, seconds: float, deadline: float) -> dict:
    """Untraced jobs until the time is up; returns the end-to-end metrics and tallies."""
    start = time.monotonic()
    jobs, setups, latencies, failures = [], [], [], []
    attempted = 0
    while not attempted or time.monotonic() - start < seconds:
        request = workload.request("job")
        units = len(request.get("queries", ())) or 1
        attempted += units
        try:
            result = spawn(request, deadline)
        except JobFailed as exc:
            failures += [f"job raised: {exc}"] * units
            continue
        jobs.append(result)
        setups.append(result["setup_s"])
        failures += result["failures"]
        latencies += result.get("latencies", [result["job_s"]])
    if not jobs:
        raise JobFailed(failures[-1])
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload.request("setup"), deadline)["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(j["job_s"] for j in jobs),
        "query_p50_ms": 1000.0 * statistics.median(latencies),
        "query_p90_ms": 1000.0 * quantile(latencies, 90),
        "queries_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
    }
    samples = {"setup_s": len(setups), "job_s": len(jobs), "queries": len(latencies)}
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "attempted": attempted,
        "failures": failures,
        "samples": samples,
        "versions": jobs[0]["versions"],
    }


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def traced(workload: Workload, deadline: float) -> dict:
    """One traced job, then one untraced job of the same work for the tracing overhead."""
    request = workload.request("traced")
    plain = dict(request, mode="job")
    units = len(request.get("queries", ())) or 1
    result = spawn(request, deadline)
    baseline = spawn(plain, deadline)
    layers = dict(result["per_layer"])
    layers["trace.job_s"] = baseline["job_s"]
    layers["trace.overhead_frac"] = layers["trace.replay_s"] / baseline["job_s"] - 1.0
    return {
        "metrics": {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()},
        "attempted": 2 * units,
        "failures": result["failures"] + baseline["failures"],
        "samples": {"traced_jobs": 1, "untraced_jobs": 1, "queries": units if workload.name == "session" else 0},
        "versions": result["versions"],
    }


def report(name: str, args, outcome: dict) -> None:
    """Human-readable lines: every metric by name and unit, then the run's details."""
    failed = len(outcome["failures"])
    print(f"workload {name}  seed {args.seed}  trace {args.trace}")
    for key, metric in outcome["metrics"].items():
        print(f"  {key:<32} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  {'failed_frac':<32} {failed / outcome['attempted']:>16.6f} ({failed}/{outcome['attempted']})")
    details = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": outcome["samples"],
        "failed_frac": failed / outcome["attempted"],
        "failures": outcome["failures"][:5],
        "python": outcome["versions"]["python"],
        "numpy": outcome["versions"]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("details " + json.dumps(details))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "oraclelab" / "__init__.py").is_file():
        print("run from the root of an oraclelab checkout: src/oraclelab is missing", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        workload = Workload(name, args.seed)
        try:
            outcome = traced(workload, deadline) if args.trace else measure(workload, args.seconds, deadline)
        except JobFailed as exc:
            print(f"{name}: a job failed: {exc}", file=sys.stderr)
            return 1
        report(name, args, outcome)
        results[name] = outcome

    def key(name: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{name}/{metric}"

    failed = sum(len(o["failures"]) for o in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(o["attempted"] for o in results.values()),
        "failed": failed,
        "metrics": {key(n, m): v for n, o in results.items() for m, v in o["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
