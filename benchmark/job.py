"""One benchmark job, run in a fresh interpreter so that library caches start cold.

``run.py`` starts this file with the checkout root as working directory and
writes one JSON request to its stdin:

    {"workload": "session", "mode": "job", "queries": [...], "random_problem": "...", "selectors": {...}}

Only ``workload`` and ``mode`` are needed by the batch workloads.

``mode`` is ``setup`` (set up, then exit), ``job`` (set up, then do the
workload's job once with no spans) or ``traced`` (set up, then replay the
same job with a span around every call the benchmark makes into a module's
public functions).  The job prints one JSON object on stdout.  Its
``setup_done`` is a ``time.monotonic()`` reading, which on Linux shares its
clock with the parent, so the parent measures set-up from the moment it
started this interpreter.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import oraclelab  # noqa: E402
from oraclelab import akrule, circuits, histories, oracle, qstate  # noqa: E402

if not Path(oraclelab.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"oraclelab was imported from {oraclelab.__file__}, not from {SRC}")

perf = time.perf_counter

SEARCH_N = 6
CELLS_N = 4
CIRCUIT_N = 8


class Tracer:
    """Seconds per span, plus counters; when off, calls pass straight through."""

    def __init__(self, on: bool):
        self.on = on
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[str] = []
        self._index_calls: dict[str, list[tuple[str, float]]] = {}
        self._subsets: set = set()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        self.stack.append(name)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] += perf() - start
            self.stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        if self.on:
            self.counts[name] += n

    def call_on(self, problem_key: str, name: str, fn, *args):
        """A call that may build the problem's family index on its first use."""
        start = perf()
        result = self.call(name, fn, *args)
        if self.on:
            self._index_calls.setdefault(problem_key, []).append((name, perf() - start))
        return result

    def note_instances(self, problem_key: str, instances) -> None:
        if self.on:
            self.counts["akrule.instances"] += len(instances)
            self.counts["akrule.no_instance_settings"] += not instances
            self._subsets.update((problem_key, inst.subset) for inst in instances)

    def split_index(self) -> None:
        """Move the family-index share of each problem's first indexed call into its own span.

        The share is the first call's seconds minus the median of the later
        calls of the same function on the same problem; a problem with no
        later call of that function keeps its first call whole.
        """
        for calls in self._index_calls.values():
            name, first = calls[0]
            later = [s for n, s in calls[1:] if n == name]
            if later:
                share = first - statistics.median(later)
                self.seconds["akrule.index"] += share
                self.seconds[name] -= share
        self._index_calls.clear()
        self.counts["akrule.distinct_instances"] = len(self._subsets)


class TimedStage:
    """A circuit stage whose ``unitary`` calls are timed, counted and sized."""

    def __init__(self, stage, tracer: Tracer):
        self._stage = stage
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._stage, name)

    def unitary(self, layout, setting=None):
        start = perf()
        matrix = self._stage.unitary(layout, setting)
        elapsed = perf() - start
        tr = self._tracer
        tr.seconds["circuits.unitary"] += elapsed
        if tr.stack and tr.stack[-1] == "qstate.apply_stage":
            tr.seconds["circuits.unitary_in_apply"] += elapsed
        tr.counts["circuits.unitary_calls"] += 1
        tr.counts["circuits.unitary_bytes"] += matrix.nbytes
        return matrix


def timed_circuit(circuit, tracer: Tracer):
    if not tracer.on:
        return circuit
    stages = [TimedStage(stage, tracer) for stage in circuit.stages]
    return circuits.make_circuit(circuit.name, circuit.layout, circuit.problem, stages, circuit.v_register)


class Checks:
    """Failed checks of one job or query; a unit with any failure counts once."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.failures.append(message)
        return condition


# ---------------------------------------------------------------------------
# predict-search and predict-cells


def setup_predict(workload: str, tr: Tracer):
    n = SEARCH_N if workload == "predict-search" else CELLS_N
    problem = tr.call("oracle.build", oracle.build_grover, n)
    tr.count("oracle.settings", len(problem.settings))
    config = None if workload == "predict-search" else akrule.AkConfig(family="cells")
    return problem, config


def check_report(workload: str, report, checks: Checks) -> None:
    if workload == "predict-search":
        expected = {"baseline": 63, "predicted": 7, "formula": 7, "reference": 7}
        sizes, costs = ((8, 1395),), ((7, 1395),)
    else:
        expected = {"baseline": 15, "predicted": None}
    got = {
        "baseline": report.baseline_queries,
        "predicted": report.predicted_queries,
        "formula": report.grover_formula_queries,
        "reference": report.grover_reference_queries,
    }
    for key, value in expected.items():
        checks.expect(got[key] == value, f"{key} queries {got[key]}, expected {value}")
    settings = 1 << (SEARCH_N if workload == "predict-search" else CELLS_N)
    checks.expect(len(report.per_setting) == settings, f"{len(report.per_setting)} per-setting reports")
    for rep in report.per_setting:
        if workload == "predict-search":
            ok = not rep.no_instance and rep.instance_sizes == sizes and rep.instance_costs == costs
        else:
            ok = rep.no_instance and not rep.instance_sizes
        if not checks.expect(ok, f"setting {rep.setting.text}: {rep}"):
            break


def job_predict(workload: str, problem, config, tr: Tracer, checks: Checks) -> float:
    if not tr.on:
        start = perf()
        report = akrule.predict_queries(problem, config)
        elapsed = perf() - start
        check_report(workload, report, checks)
        return elapsed
    # replay: every setting's instances on a fresh index, then the whole
    # prediction once more on the index the first pass built
    for b in problem.setting_ids():
        tr.note_instances("problem", tr.call_on("problem", "akrule.instances", akrule.setting_instances, problem, b, config))
    tr.split_index()
    report = tr.call("akrule.predict_warm", akrule.predict_queries, problem, config)
    check_report(workload, report, checks)
    tr.seconds["akrule.solver"] = tr.seconds["akrule.predict_warm"] - tr.seconds["akrule.instances"]
    return tr.seconds["akrule.index"] + tr.seconds["akrule.predict_warm"]


# ---------------------------------------------------------------------------
# circuit-search


def setup_circuit(tr: Tracer):
    problem = tr.call("oracle.build", oracle.build_grover, CIRCUIT_N)
    tr.count("oracle.settings", len(problem.settings))
    layout = qstate.RegisterLayout((("B", CIRCUIT_N), ("A", CIRCUIT_N), ("V", 1)), "B")
    stages = (circuits.hadamard("A"), circuits.oracle_xor(problem), circuits.inversion_about_mean("A"))
    circuit = circuits.make_circuit(f"search-n{CIRCUIT_N}", layout, problem, stages)
    return timed_circuit(circuit, tr)


def job_circuit(circuit, tr: Tracer, checks: Checks) -> float:
    start = perf()
    ensemble = tr.call("qstate.ensemble", circuits.initial_ensemble, circuit)
    final = tr.call("qstate.apply_stage", circuits.run, circuit, ensemble).final
    dist = tr.call("qstate.readout", qstate.measure_register, final, "B", "A")
    entropy = tr.call("qstate.readout", qstate.reduced_entropy, final, "A")
    elapsed = perf() - start
    mask = (1 << CIRCUIT_N) - 1
    success = sum(p for outcome, p in dist.entries if outcome.value >> CIRCUIT_N == outcome.value & mask)
    expected = math.sin(3 * math.asin(2.0 ** (-CIRCUIT_N / 2))) ** 2
    checks.expect(abs(success - expected) <= 1e-9, f"P(A=B) {success!r}, expected {expected!r}")
    checks.expect(len(final.branches) == 1 << CIRCUIT_N, f"{len(final.branches)} branches")
    worst = max(abs(np.linalg.norm(br.state.amplitudes) - 1.0) for br in final.branches)
    checks.expect(worst <= 1e-9, f"branch norm off by {worst!r}")
    checks.expect(0.0 <= entropy <= CIRCUIT_N + 1e-9, f"reduced entropy {entropy!r}")
    return elapsed


# ---------------------------------------------------------------------------
# session


def setup_session(random_problem: str, selectors: dict, tr: Tracer):
    problems = {}
    for selector in selectors["circuits"] + selectors["problems"]:
        problems[selector] = tr.call("oracle.build", oracle.parse_selector, selector)
    problems["random"] = tr.call("oracle.load", oracle.load_problem, random_problem)
    for problem in problems.values():
        tr.count("oracle.settings", len(problem.settings))
    circuit_of = {}
    for selector in selectors["circuits"]:
        kind, _, n = selector.partition(":n=")
        circuit_of[selector] = timed_circuit(circuits.builtin_circuit(kind, int(n)), tr)
    return problems, circuit_of


def query_ak(key: str, problem, b, tr: Tracer, checks: Checks) -> float:
    start = perf()
    pairs = tr.call_on(key, "akrule.pairs", akrule.enumerate_occam_pairs, problem, b)
    instances = tr.call("akrule.instances", akrule.ak_instances, pairs)
    costs = [tr.call("akrule.tree_cost", akrule.decision_tree_cost, problem, inst.subset) for inst in instances]
    elapsed = perf() - start
    tr.count("akrule.pairs", len(pairs))
    tr.note_instances(key, instances)
    tr.count("akrule.tree_cost_calls", len(instances))
    streamed = {inst.subset for inst in akrule.setting_instances(problem, b)}
    checks.expect({inst.subset for inst in instances} == streamed,
                  f"ak instances differ from setting_instances on {problem.name} {b.text}")
    for inst, cost in zip(instances, costs):
        checks.expect(0 <= cost < len(inst.subset), f"cost {cost} for a subset of {len(inst.subset)}")
    return elapsed


def query_histories(key: str, circuit, b, tr: Tracer, checks: Checks) -> float:
    problem = circuit.problem
    start = perf()
    paths = tr.call("histories.enumerate", histories.enumerate_histories, circuit, problem, b)
    instances = tr.call_on(key, "akrule.instances", akrule.setting_instances, problem, b)
    classified = [tr.call("histories.classify", histories.classify_history, p, instances, problem) for p in paths]
    elapsed = perf() - start
    tr.count("histories.paths", len(paths))
    tr.note_instances(key, instances)
    # the path sums from the start state form one column of a unitary
    column: dict[int, complex] = defaultdict(complex)
    for h in paths:
        column[h.path[-1]] += h.amplitude
    norm = sum(abs(a) ** 2 for a in column.values())
    checks.expect(abs(norm - 1.0) <= 1e-9, f"path sums on {problem.name} {b.text} have norm {norm!r}")
    subsets = {inst.subset for inst in instances}
    checks.expect(all(inst.subset in subsets for c in classified for inst in c.consistent),
                  f"classification outside the instances on {problem.name} {b.text}")
    return elapsed


def query_simulate(circuit, b, tr: Tracer, checks: Checks) -> float:
    problem = circuit.problem
    start = perf()
    ensemble = tr.call("qstate.ensemble", lambda: qstate.prepare_setting(circuits.initial_ensemble(circuit), b))
    final = tr.call("qstate.apply_stage", circuits.run, circuit, ensemble).final
    dist = tr.call("qstate.readout", qstate.measure_register, final, "A")
    elapsed = perf() - start
    outcome = max(dist.entries, key=lambda e: e[1])[0]
    expected = problem.setting(b).a_outcome
    checks.expect(outcome == expected, f"simulate {problem.name} {b.text}: {outcome.text}, expected {expected.text}")
    return elapsed


def job_session(problems, circuit_of, queries, tr: Tracer) -> tuple[float, list[float], list[str]]:
    latencies = []
    failures = []
    for q in queries:
        checks = Checks()
        if q["cmd"] == "ak":
            problem = problems[q["problem"]]
        else:
            problem = circuit_of[q["problem"]].problem
        b = problem.settings[q["pick"] % len(problem.settings)].id
        try:
            if q["cmd"] == "ak":
                latencies.append(query_ak(q["problem"], problem, b, tr, checks))
            elif q["cmd"] == "histories":
                latencies.append(query_histories(q["problem"], circuit_of[q["problem"]], b, tr, checks))
            else:
                latencies.append(query_simulate(circuit_of[q["problem"]], b, tr, checks))
        except Exception as exc:  # a query that raises counts as failed; the session goes on
            checks.failures.append(f"{q['cmd']} {q['problem']} {b.text} raised {exc!r}")
        if checks.failures:
            failures.append("; ".join(checks.failures))
    tr.split_index()
    return sum(latencies), latencies, failures


# ---------------------------------------------------------------------------


def per_layer(tr: Tracer, replay_s: float) -> dict[str, float]:
    s, c = tr.seconds, tr.counts
    instances = c["akrule.instances"]
    return {
        "oracle.build_s": s["oracle.build"],
        "oracle.load_s": s["oracle.load"],
        "oracle.settings": c["oracle.settings"],
        "akrule.index_s": s["akrule.index"],
        "akrule.instances_s": s["akrule.instances"],
        "akrule.instances": instances,
        "akrule.no_instance_settings": c["akrule.no_instance_settings"],
        "akrule.distinct_instance_ratio": c["akrule.distinct_instances"] / instances if instances else 0.0,
        "akrule.predict_warm_s": s["akrule.predict_warm"],
        "akrule.solver_s": s["akrule.solver"],
        "akrule.pairs_s": s["akrule.pairs"],
        "akrule.pairs": c["akrule.pairs"],
        "akrule.tree_cost_s": s["akrule.tree_cost"],
        "akrule.tree_cost_calls": c["akrule.tree_cost_calls"],
        "circuits.unitary_s": s["circuits.unitary"],
        "circuits.unitary_calls": c["circuits.unitary_calls"],
        "circuits.unitary_bytes": c["circuits.unitary_bytes"],
        "qstate.apply_stage_s": s["qstate.apply_stage"],
        "qstate.matvec_s": s["qstate.apply_stage"] - s["circuits.unitary_in_apply"],
        "qstate.readout_s": s["qstate.readout"],
        "qstate.ensemble_s": s["qstate.ensemble"],
        "histories.enumerate_s": s["histories.enumerate"],
        "histories.classify_s": s["histories.classify"],
        "histories.paths": c["histories.paths"],
        "trace.replay_s": replay_s,
    }


def main() -> None:
    request = json.loads(sys.stdin.read())
    workload = request["workload"]
    mode = request["mode"]
    tr = Tracer(mode == "traced")
    if workload in ("predict-search", "predict-cells"):
        state = setup_predict(workload, tr)
    elif workload == "circuit-search":
        state = setup_circuit(tr)
    elif workload == "session":
        state = setup_session(request["random_problem"], request["selectors"], tr)
    else:
        sys.exit(f"unknown workload {workload!r}")
    out = {"setup_done": time.monotonic()}
    if mode != "setup":
        if workload == "session":
            job_s, latencies, failures = job_session(*state, request["queries"], tr)
            out.update(latencies=latencies, failures=failures)
        else:
            checks = Checks()
            if workload == "circuit-search":
                job_s = job_circuit(state, tr, checks)
            else:
                job_s = job_predict(workload, *state, tr, checks)
            out.update(failures=["; ".join(checks.failures)] if checks.failures else [])
        out["job_s"] = job_s
        if tr.on:
            out["per_layer"] = per_layer(tr, job_s)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
