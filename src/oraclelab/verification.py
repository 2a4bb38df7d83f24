"""Self-contained acceptance and invariant checks, shared by the CLI and the test suite.

Every check rebuilds what it needs from the built-in problem builders, uses
fixed seeds, and raises ``AssertionError`` with a diagnostic on failure.
Tolerances are pinned here: amplitudes and probabilities at 1e-9, the period
problem's entropy value at 1e-6, Monte-Carlo phase averaging at 1e-2 with
10^4 samples, randomized suites at 100 cases each.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import akrule, circuits, histories, oracle, qstate
from .qstate import ATOL, BitString

MC_SAMPLES = 10_000
MC_TOL = 1e-2
CASES = 100
SEED = 20240517


def _close(actual: float, expected: float, tol: float, what: str) -> None:
    assert abs(actual - expected) <= tol, f"{what}: got {actual!r}, expected {expected!r} (tol {tol})"


def _subset_texts(subset) -> frozenset[str]:
    return frozenset(b.text for b in subset)


def _bits(text: str) -> BitString:
    return BitString.from_text(text)


# ---------------------------------------------------------------------------
# Criterion 1: search circuit end to end


def check_grover_end_to_end() -> None:
    circuit = circuits.grover_circuit()
    problem = circuit.problem
    full = circuits.initial_ensemble(circuit)
    for b in problem.setting_ids():
        trace = circuits.run(circuit, qstate.prepare_setting(full, b))
        dist = qstate.measure_register(trace.final, "A")
        _close(dist.probability(b), 1.0, ATOL, f"P[A={b.text}] on setting {b.text}")
    # joint (preparation outcome, reading outcome) with the bitwise-NOT preparation
    out = circuits.run(circuit, full).final
    relabeled = qstate.apply_stage(out, circuits.bitwise_not("B"))
    joint = qstate.measure_register(relabeled, "B", "A")
    expected = {"0011": 0.25, "0110": 0.25, "1001": 0.25, "1100": 0.25}
    assert joint.as_dict().keys() == expected.keys(), f"joint outcomes {sorted(joint.as_dict())}"
    for text, p in expected.items():
        _close(joint.probability(text), p, ATOL, f"joint P[{text[:2]},{text[2:]}]")


# ---------------------------------------------------------------------------
# Criterion 2: search problem pair analysis at n=2


def check_grover_ak() -> None:
    problem = oracle.build_grover(2)
    b_star = _bits("01")
    pairs = akrule.enumerate_occam_pairs(problem, b_star)
    assert len(pairs) == 3, f"expected 3 pairs, got {len(pairs)}"
    subsets = {frozenset((_subset_texts(p.subset_i), _subset_texts(p.subset_j))) for p in pairs}
    basis = [frozenset({"01", "00"}), frozenset({"01", "11"}), frozenset({"01", "10"})]
    expected_pairs = {frozenset((a, b)) for i, a in enumerate(basis) for b in basis[i + 1 :]}
    assert subsets == expected_pairs, f"pair subsets {subsets}"
    for pair in pairs:
        _close(pair.epsilon, 1.0, ATOL, "epsilon")
    instances = akrule.ak_instances(pairs)
    assert {_subset_texts(i.subset) for i in instances} == set(basis)
    for inst in instances:
        cost = akrule.decision_tree_cost(problem, inst.subset)
        assert cost == 1, f"instance {_subset_texts(inst.subset)} cost {cost}"
    baseline = akrule.decision_tree_cost(problem, problem.setting_ids())
    assert baseline == 3, f"baseline {baseline}"


# ---------------------------------------------------------------------------
# Criterion 3: search problem scaling at n = 4 and 6


def check_grover_scaling() -> None:
    expected = {4: (3, 4), 6: (7, 7)}  # (instance cost = 2^(n/2)-1, ceil(pi/4 * 2^(n/2)))
    for n in (4, 6):
        problem = oracle.build_grover(n)
        report = akrule.predict_queries(problem)
        half = 1 << (n // 2)
        formula, reference = expected[n]
        assert report.grover_formula_queries == formula, report.grover_formula_queries
        assert report.grover_reference_queries == reference, report.grover_reference_queries
        assert report.predicted_queries == formula, report.predicted_queries
        for rep in report.per_setting:
            assert not rep.no_instance, f"setting {rep.setting.text} has no instance"
            assert len(rep.instance_sizes) == 1 and rep.instance_sizes[0][0] == half, (
                f"sizes {rep.instance_sizes} for {rep.setting.text}"
            )
            assert len(rep.instance_costs) == 1 and rep.instance_costs[0][0] == formula, (
                f"costs {rep.instance_costs} for {rep.setting.text}"
            )
    # structural spot check at n=4: instances are xor-closed around the setting
    problem = oracle.build_grover(4)
    b_star = BitString(0, 4)
    instances = akrule.setting_instances(problem, b_star)
    assert len(instances) == 35, len(instances)
    for inst in instances:
        values = sorted(b.value for b in inst.subset)
        assert len(values) == 4
        span = {v ^ values[0] for v in values}
        for x in span:
            for y in span:
                assert (x ^ y) in span, f"instance {values} is not an affine subset"


# ---------------------------------------------------------------------------
# Criterion 4: constant-vs-balanced problem at n=2


def check_dj() -> None:
    circuit = circuits.dj_circuit(2)
    problem = circuit.problem
    full = circuits.initial_ensemble(circuit)
    for text, outcome in (("0000", "00"), ("1111", "00"), ("0011", "10"), ("1100", "10")):
        trace = circuits.run(circuit, qstate.prepare_setting(full, _bits(text)))
        dist = qstate.measure_register(trace.final, "A")
        _close(dist.probability(outcome), 1.0, ATOL, f"P[A={outcome}] on setting {text}")
    all_zero, all_one = "0000", "1111"
    for st in problem.settings:
        pairs = akrule.enumerate_occam_pairs(problem, st.id)
        if st.solution == "balanced":
            assert len(pairs) == 1, f"balanced {st.id.text}: {len(pairs)} pairs"
            got = {_subset_texts(pairs[0].subset_i), _subset_texts(pairs[0].subset_j)}
            expected = {
                frozenset({st.id.text, all_zero}),
                frozenset({st.id.text, all_one}),
            }
            assert got == expected, f"balanced {st.id.text}: subsets {got}"
        else:
            assert len(pairs) == 3, f"constant {st.id.text}: {len(pairs)} pairs"
        for pair in pairs:
            _close(pair.epsilon, 1.0, ATOL, f"epsilon for {st.id.text}")
    instances = akrule.setting_instances(problem, _bits("0000"))
    got = {_subset_texts(i.subset) for i in instances}
    for partner in ("0011", "1100", "0101", "1010"):
        assert frozenset({"0000", partner}) in got, f"missing instance {{0000,{partner}}}"
    report = akrule.predict_queries(problem)
    assert report.predicted_queries == 1, report.predicted_queries
    assert report.baseline_queries == 3 == (1 << (2 - 1)) + 1, report.baseline_queries


# ---------------------------------------------------------------------------
# Criterion 5: period problem at n=2


def check_simon() -> None:
    problem = oracle.build_simon(2)
    epsilon = math.log2(3.0) - 1.0
    splits_0011 = {
        frozenset((frozenset({"0011", "0110"}), frozenset({"0011", "1001"}))),
        frozenset((frozenset({"0011", "0101"}), frozenset({"0011", "1010"}))),
    }
    for st in problem.settings:
        pairs = akrule.enumerate_occam_pairs(problem, st.id)
        assert len(pairs) == 2, f"setting {st.id.text}: {len(pairs)} pairs"
        for pair in pairs:
            _close(pair.epsilon, epsilon, 1e-6, f"epsilon for {st.id.text}")
        if st.id.text == "0011":
            got = {
                frozenset((_subset_texts(p.subset_i), _subset_texts(p.subset_j))) for p in pairs
            }
            assert got == splits_0011, f"0011 splits {got}"
    report = akrule.predict_queries(problem)
    assert report.predicted_queries == 1, report.predicted_queries
    assert report.baseline_queries == 3, report.baseline_queries
    circuit = circuits.simon1q_circuit()
    full = circuits.initial_ensemble(circuit)
    for st in problem.settings:
        trace = circuits.run(circuit, qstate.prepare_setting(full, st.id))
        dist = qstate.measure_register(trace.final, "A")
        _close(dist.probability(st.a_outcome), 1.0, ATOL, f"P[A=h] on setting {st.id.text}")


# ---------------------------------------------------------------------------
# Criterion 6: the two entropy routes agree on every emitted subset


def _acceptance_problems() -> list[oracle.OracleProblem]:
    return [
        oracle.build_grover(2),
        oracle.build_grover(4),
        oracle.build_grover(6),
        oracle.build_dj(1),
        oracle.build_dj(2),
        oracle.build_simon(2),
        oracle.build_simon(3),
    ]


def check_entropy_routes() -> None:
    for problem in _acceptance_problems():
        seen: dict[tuple[int, ...], frozenset] = {}
        for b_star in problem.setting_ids():
            for inst in akrule.setting_instances(problem, b_star):
                seen.setdefault(tuple(sorted(b.value for b in inst.subset)), inst.subset)
        assert seen, f"{problem.name} n={problem.arg_bits}: no emitted subsets"
        for key, subset in seen.items():
            _close(
                akrule.delta_entropy(problem, subset),
                akrule.delta_entropy_via_states(problem, subset),
                ATOL,
                f"{problem.name} n={problem.arg_bits} subset {sorted(key)}",
            )


# ---------------------------------------------------------------------------
# Criterion 7: path sums and history classification


def _endpoint_check(circuit) -> None:
    problem = circuit.problem
    for b in problem.setting_ids():
        paths = histories.enumerate_histories(circuit, problem, b, v_branch="both")
        composed = circuits.composed_unitary(circuit, b)
        layout = circuit.layout
        starts = {p.path[0] for p in paths}
        for start in starts:
            for final in range(layout.state_dim):
                total = histories.path_sum(paths, start, final)
                element = composed[final, start]
                assert abs(total - element) <= ATOL, (
                    f"{circuit.name} b={b.text}: path sum {total} != element {element} "
                    f"({start} -> {final})"
                )


def check_histories() -> None:
    grover = circuits.grover_circuit()
    dj = circuits.dj_circuit(2)
    _endpoint_check(grover)
    _endpoint_check(dj)

    # the displayed search history: 00 -> 11 -> 11 -> 01 on the V=0 branch of setting 01
    b = _bits("01")
    paths = histories.enumerate_histories(grover, grover.problem, b, v_branch=0)
    layout = grover.layout
    wanted = (
        layout.state_index({"A": 0, "V": 0}),
        layout.state_index({"A": 3, "V": 0}),
        layout.state_index({"A": 3, "V": 0}),
        layout.state_index({"A": 1, "V": 0}),
    )
    match = [p for p in paths if p.path == wanted]
    assert match and abs(match[0].amplitude) > histories.AMP_FLOOR, "displayed search history missing"

    # the displayed balanced-table history: 00,0 -> 10,0 -> 10,1 -> 10,1 on setting 0011
    b = _bits("0011")
    paths_dj = histories.enumerate_histories(dj, dj.problem, b, v_branch=0)
    layout = dj.layout
    wanted = (
        layout.state_index({"A": 0, "V": 0}),
        layout.state_index({"A": 2, "V": 0}),
        layout.state_index({"A": 2, "V": 1}),
        layout.state_index({"A": 2, "V": 1}),
    )
    match = [p for p in paths_dj if p.path == wanted]
    assert match and abs(match[0].amplitude) > histories.AMP_FLOOR, "displayed table history missing"

    # query at the true setting is common to all three instances; others pick one
    b = _bits("01")
    instances = akrule.setting_instances(grover.problem, b)
    paths = histories.enumerate_histories(grover, grover.problem, b, v_branch=0)
    for path in paths:
        (query,) = path.query_args
        cls = histories.classify_history(path, instances, grover.problem)
        if query == b:
            assert len(cls.consistent) == 3, f"query {query.text}: {len(cls.consistent)} instances"
        else:
            got = {_subset_texts(i.subset) for i in cls.consistent}
            assert got == {frozenset({b.text, query.text})}, f"query {query.text}: {got}"

    # balanced-table histories attribute to the half the query lies outside of
    b = _bits("0011")
    instances_dj = akrule.setting_instances(dj.problem, b)
    for path in paths_dj:
        (query,) = path.query_args
        cls = histories.classify_history(path, instances_dj, dj.problem)
        got = {_subset_texts(i.subset) for i in cls.consistent}
        if query.text in ("10", "11"):
            assert got == {frozenset({"0011", "0000"})}, f"query {query.text}: {got}"
        else:
            assert got == {frozenset({"0011", "1111"})}, f"query {query.text}: {got}"


# ---------------------------------------------------------------------------
# Criterion 8: randomized property suites


def _random_state(rng, layout) -> np.ndarray:
    dim = layout.state_dim
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def _random_ensemble(rng, problem=None) -> qstate.BranchEnsemble:
    if problem is None:
        b_width = int(rng.integers(1, 3))
        a_width = int(rng.integers(1, 3))
        layout = qstate.RegisterLayout((("B", b_width), ("A", a_width)), "B")
        count = int(rng.integers(1, (1 << b_width) + 1))
        values = rng.choice(1 << b_width, size=count, replace=False)
        settings = [BitString(int(v), b_width) for v in values]
    else:
        layout = oracle.problem_layout(problem, include_v=True)
        ids = problem.setting_ids()
        count = int(rng.integers(1, len(ids) + 1))
        settings = [ids[int(i)] for i in rng.choice(len(ids), size=count, replace=False)]
    weights = rng.random(len(settings)) + 0.1
    weights /= weights.sum()
    rows = [_random_state(rng, layout) for _ in settings]
    return qstate.BranchEnsemble(layout, settings, weights, rows)


def check_property_suites() -> None:
    rng = np.random.default_rng(SEED)
    built = [circuits.grover_circuit(), circuits.dj_circuit(2), circuits.simon1q_circuit()]

    # projection commutation and setting immutability
    for _ in range(CASES):
        circuit = built[int(rng.integers(len(built)))]
        ids = circuit.problem.setting_ids()
        size = int(rng.integers(1, len(ids) + 1))
        subset = [ids[int(i)] for i in rng.choice(len(ids), size=size, replace=False)]
        full = circuits.initial_ensemble(circuit)
        late = qstate.project_setting_subset(circuits.run(circuit, full).final, subset)
        early = circuits.run(circuit, qstate.project_setting_subset(full, subset)).final
        assert qstate.ensembles_close(late, early), f"projection does not commute on {circuit.name}"
        assert circuits.run(circuit, full).final.settings == full.settings, "settings changed"

    # oracle involution, both encodings
    problems = [c.problem for c in built]
    for _ in range(CASES):
        problem = problems[int(rng.integers(len(problems)))]
        ensemble = _random_ensemble(rng, problem)
        for stage in (circuits.oracle_xor(problem), circuits.oracle_phase(problem)):
            twice = qstate.apply_stage(qstate.apply_stage(ensemble, stage), stage)
            assert qstate.ensembles_close(twice, ensemble), f"{stage.label} is not an involution"

    # decision-tree monotonicity on nested candidate sets
    for _ in range(CASES):
        problem = problems[int(rng.integers(len(problems)))]
        ids = problem.setting_ids()
        big = int(rng.integers(1, len(ids) + 1))
        outer_idx = rng.choice(len(ids), size=big, replace=False)
        outer = [ids[int(i)] for i in outer_idx]
        small = int(rng.integers(1, big + 1))
        inner = [outer[int(i)] for i in rng.choice(big, size=small, replace=False)]
        assert akrule.decision_tree_cost(problem, inner) <= akrule.decision_tree_cost(
            problem, outer
        ), "decision-tree cost is not monotone"

    # pair audit: emitted pairs re-pass every condition, checked definitionally
    audits = 0
    while audits < CASES:
        problem = problems[int(rng.integers(len(problems)))]
        ids = problem.setting_ids()
        b_star = ids[int(rng.integers(len(ids)))]
        pairs = akrule.enumerate_occam_pairs(problem, b_star)
        keys = set()
        for pair in pairs:
            key = (tuple(sorted(b.value for b in pair.subset_i)),
                   tuple(sorted(b.value for b in pair.subset_j)))
            assert key not in keys, "duplicate subset pair emitted"
            keys.add(key)
            assert pair.subset_i & pair.subset_j == {b_star}, "intersection is not the setting"
            for spec, subset in ((pair.spec_i, pair.subset_i), (pair.spec_j, pair.subset_j)):
                assert akrule.realized_subset(problem, spec, b_star) == subset, "subset mismatch"
                solutions = {problem.setting(x).solution for x in subset}
                assert len(solutions) >= 2, "a lone subset determines the answer"
            eps_i = akrule.delta_entropy_via_states(problem, pair.subset_i)
            eps_j = akrule.delta_entropy_via_states(problem, pair.subset_j)
            assert abs(eps_i - eps_j) <= ATOL, "unequal entropy reductions emitted"
            assert abs(pair.epsilon - eps_i) <= ATOL, "recorded epsilon disagrees"
            audits += 1

    # Monte-Carlo phase sampling converges to the mixture density operator
    for case in range(CASES):
        ensemble = _random_ensemble(rng)
        exact = qstate.density_matrix(ensemble)
        sampled = qstate.sampled_phase_density(ensemble, samples=MC_SAMPLES, seed=SEED + case)
        deviation = float(np.max(np.abs(sampled - exact)))
        assert deviation <= MC_TOL, f"Monte-Carlo deviation {deviation:.4f} exceeds {MC_TOL}"


# ---------------------------------------------------------------------------
# Extra invariant sweeps used by the CLI verify command


def check_oracle_invariants() -> None:
    for problem in _acceptance_problems():
        # validity of the period structure, exhaustively
        if problem.name == "simon":
            n = problem.arg_bits
            for st in problem.settings:
                h = st.a_outcome.value
                for a in range(1 << n):
                    for c in range(1 << n):
                        same = st.table[a] == st.table[c]
                        assert same == (a == c or a == (c ^ h)), (
                            f"period structure violated for {st.id.text}"
                        )
        if problem.name == "dj":
            size = 1 << problem.arg_bits
            for st in problem.settings:
                ones = sum(e.value for e in st.table)
                assert ones in (0, size, size // 2), f"table {st.id.text} is neither constant nor balanced"
        reloaded = oracle.load_problem(oracle.serialize_problem(problem))
        assert reloaded == problem, f"round trip changed {problem.name} n={problem.arg_bits}"


def check_circuit_invariants() -> None:
    for circuit in (circuits.grover_circuit(), circuits.dj_circuit(1), circuits.dj_circuit(2),
                    circuits.simon1q_circuit()):
        problem = circuit.problem
        full = circuits.initial_ensemble(circuit)
        trace = circuits.run(circuit, full)
        for b in trace.final.settings:
            st = problem.setting(b)
            dist = qstate.measure_register(
                qstate.prepare_setting(trace.final, b), "A"
            )
            _close(dist.probability(st.a_outcome), 1.0, ATOL, f"{circuit.name} outcome {st.id.text}")
        # one-shot composition agrees with the staged run
        for b in problem.setting_ids()[:4]:
            composed = circuits.composed_unitary(circuit, b)
            staged = circuits.run(circuit, qstate.prepare_setting(full, b)).final
            direct = composed @ circuits.initial_state(circuit).amplitudes
            assert np.allclose(direct, staged.amplitudes[0], atol=ATOL), (
                f"{circuit.name}: composition disagrees with the staged run"
            )
        # the xor oracle on the minus state equals the phase oracle
        rng = np.random.default_rng(SEED)
        layout = circuit.layout
        a_dim = 1 << layout.width("A")
        for b in problem.setting_ids()[:4]:
            psi = rng.normal(size=a_dim) + 1j * rng.normal(size=a_dim)
            psi /= np.linalg.norm(psi)
            minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
            joint = np.kron(psi, minus)
            xor_out = circuits.oracle_xor(problem).unitary(layout, b) @ joint
            phase_out = circuits.oracle_phase(problem).unitary(layout, b) @ joint
            assert np.allclose(xor_out, phase_out, atol=ATOL), f"{circuit.name}: kickback identity fails"


@dataclass(frozen=True)
class Check:
    id: str
    title: str
    fn: Callable[[], None]


CRITERIA: tuple[Check, ...] = (
    Check("criterion-1", "search n=2 end to end, outcome pairing at 1/4 each", check_grover_end_to_end),
    Check("criterion-2", "search n=2 pair analysis: 3 pairs, unit epsilon, costs 1 vs 3", check_grover_ak),
    Check("criterion-3", "search scaling n=4,6: instance sizes, costs and reference counts", check_grover_scaling),
    Check("criterion-4", "constant-vs-balanced n=2: outcomes, pair structure, prediction", check_dj),
    Check("criterion-5", "period n=2: epsilon, good-half pairs, one-query circuit", check_simon),
    Check("criterion-6", "entropy routes agree on every emitted subset", check_entropy_routes),
    Check("criterion-7", "path sums match composed matrices; history attribution", check_histories),
    Check("criterion-8", "randomized property suites (100 cases each, fixed seed)", check_property_suites),
)

EXTRAS: tuple[Check, ...] = (
    Check("invariants-oracle", "problem validity and serialization round trips", check_oracle_invariants),
    Check("invariants-circuits", "sharp outcomes, composition, kickback identity", check_circuit_invariants),
)

ALL_CHECKS: tuple[Check, ...] = CRITERIA + EXTRAS


@dataclass(frozen=True)
class CheckResult:
    check: Check
    ok: bool
    detail: str
    seconds: float


def run_check(check: Check) -> CheckResult:
    start = time.perf_counter()
    try:
        check.fn()
    except AssertionError as exc:
        return CheckResult(check, False, str(exc), time.perf_counter() - start)
    return CheckResult(check, True, "", time.perf_counter() - start)


def run_all(only: str | None = None) -> list[CheckResult]:
    checks = [c for c in ALL_CHECKS if only is None or c.id == only]
    if not checks:
        raise ValueError(f"unknown check id {only!r}")
    return [run_check(c) for c in checks]
