import numpy as np
import pytest

import oraclelab as ol
from oraclelab import akrule, circuits, histories
from oraclelab.qstate import ATOL, BitString

from reference_tables import (
    hadamard_matrix,
    mean_inversion_matrix,
    table_of,
    xor_oracle_matrix,
)


def bits(text):
    return BitString.from_text(text)


def texts(subset):
    return frozenset(b.text for b in subset)


def state_idx(circuit, a, v):
    return circuit.layout.state_index({"A": a, "V": v})


class TestEnumeration:
    def test_search_counts(self, grover_circuit):
        paths = histories.enumerate_histories(grover_circuit, grover_circuit.problem, bits("01"))
        assert len(paths) == 16
        both = histories.enumerate_histories(
            grover_circuit, grover_circuit.problem, bits("01"), v_branch="both"
        )
        assert len(both) == 32
        assert len({p.path for p in both}) == 32  # no duplicates
        assert all(abs(p.amplitude) > histories.AMP_FLOOR for p in both)

    def test_paths_have_one_state_per_boundary(self, grover_circuit):
        paths = histories.enumerate_histories(grover_circuit, grover_circuit.problem, bits("01"))
        assert all(len(p.path) == len(grover_circuit.stages) + 1 for p in paths)

    def test_displayed_search_history_present(self, grover_circuit):
        # 00 -> 11 -> 11 -> 01 through the V=0 branch, setting 01
        paths = histories.enumerate_histories(grover_circuit, grover_circuit.problem, bits("01"))
        wanted = (
            state_idx(grover_circuit, 0, 0),
            state_idx(grover_circuit, 3, 0),
            state_idx(grover_circuit, 3, 0),
            state_idx(grover_circuit, 1, 0),
        )
        match = [p for p in paths if p.path == wanted]
        assert len(match) == 1
        assert abs(match[0].amplitude - 0.25) <= ATOL
        assert [a.text for a in match[0].query_args] == ["11"]

    def test_displayed_table_history_present(self, dj_circuit):
        # 00,0 -> 10,0 -> 10,1 -> 10,1 on setting 0011
        paths = histories.enumerate_histories(dj_circuit, dj_circuit.problem, bits("0011"))
        wanted = (
            state_idx(dj_circuit, 0, 0),
            state_idx(dj_circuit, 2, 0),
            state_idx(dj_circuit, 2, 1),
            state_idx(dj_circuit, 2, 1),
        )
        match = [p for p in paths if p.path == wanted]
        assert len(match) == 1
        assert abs(match[0].amplitude - (-0.25)) <= ATOL
        assert [a.text for a in match[0].query_args] == ["10"]

    def test_empty_circuit_yields_one_trivial_history(self, grover2):
        layout = ol.RegisterLayout((("B", 2), ("A", 2), ("V", 1)), "B")
        empty = circuits.make_circuit("empty", layout, grover2, ())
        paths = histories.enumerate_histories(empty, grover2, bits("01"))
        assert len(paths) == 1
        assert paths[0].path == (0,)
        assert paths[0].amplitude == 1.0
        assert paths[0].query_args == ()

    def test_foreign_problem_rejected(self, grover_circuit, dj2):
        # dj2 knows the setting 0110, the circuit's search problem does not
        with pytest.raises(ValueError, match="not the problem of circuit"):
            histories.enumerate_histories(grover_circuit, dj2, bits("0110"))

    def test_unknown_setting(self, grover_circuit):
        with pytest.raises(ValueError):
            histories.enumerate_histories(grover_circuit, grover_circuit.problem, bits("0011"))

    def test_bad_v_branch(self, grover_circuit):
        with pytest.raises(ValueError):
            histories.enumerate_histories(
                grover_circuit, grover_circuit.problem, bits("01"), v_branch=2
            )


class TestPathSum:
    def test_matches_independent_composition_for_search(self, grover_circuit):
        b = bits("01")
        paths = histories.enumerate_histories(grover_circuit, grover_circuit.problem, b, v_branch="both")
        table = table_of("0100")
        reference = (
            np.kron(mean_inversion_matrix(4), np.eye(2))
            @ xor_oracle_matrix(table)
            @ np.kron(hadamard_matrix(2), np.eye(2))
        )
        for start in (state_idx(grover_circuit, 0, 0), state_idx(grover_circuit, 0, 1)):
            for final in range(8):
                total = histories.path_sum(paths, start, final)
                assert abs(total - reference[final, start]) <= ATOL

    def test_matches_composed_unitary_for_all_circuits(self, grover_circuit, dj_circuit, simon_circuit):
        for circuit in (grover_circuit, dj_circuit, simon_circuit):
            for b in circuit.problem.setting_ids()[:3]:
                paths = histories.enumerate_histories(circuit, circuit.problem, b, v_branch="both")
                composed = circuits.composed_unitary(circuit, b)
                starts = {p.path[0] for p in paths}
                for start in starts:
                    for final in range(circuit.layout.state_dim):
                        got = histories.path_sum(paths, start, final)
                        assert abs(got - composed[final, start]) <= ATOL

    def test_unitarity_of_endpoint_sums(self, grover_circuit):
        b = bits("10")
        paths = histories.enumerate_histories(grover_circuit, grover_circuit.problem, b)
        start = state_idx(grover_circuit, 0, 0)
        total = sum(
            abs(histories.path_sum(paths, start, final)) ** 2
            for final in range(grover_circuit.layout.state_dim)
        )
        assert abs(total - 1.0) <= ATOL

    def test_disconnected_endpoints_sum_to_zero(self, grover_circuit):
        b = bits("01")
        paths = histories.enumerate_histories(grover_circuit, grover_circuit.problem, b)
        other_start = state_idx(grover_circuit, 1, 0)
        assert histories.path_sum(paths, other_start, 0) == 0

    def test_negative_endpoint_rejected(self, grover_circuit):
        paths = histories.enumerate_histories(grover_circuit, grover_circuit.problem, bits("01"))
        with pytest.raises(ValueError):
            histories.path_sum(paths, -1, 0)


class TestClassification:
    def test_query_at_setting_is_common_to_all_instances(self, grover_circuit):
        b = bits("01")
        problem = grover_circuit.problem
        instances = akrule.setting_instances(problem, b)
        paths = histories.enumerate_histories(grover_circuit, problem, b)
        for path in paths:
            (query,) = path.query_args
            cls = histories.classify_history(path, instances, problem)
            if query == b:
                assert len(cls.consistent) == 3
            else:
                assert {texts(i.subset) for i in cls.consistent} == {
                    frozenset({b.text, query.text})
                }

    def test_table_queries_attribute_to_the_outside_half(self, dj_circuit):
        b = bits("0011")
        problem = dj_circuit.problem
        instances = akrule.setting_instances(problem, b)
        paths = histories.enumerate_histories(dj_circuit, problem, b)
        for path in paths:
            (query,) = path.query_args
            cls = histories.classify_history(path, instances, problem)
            got = {texts(i.subset) for i in cls.consistent}
            if query.text in ("10", "11"):
                assert got == {frozenset({"0011", "0000"})}
            else:
                assert got == {frozenset({"0011", "1111"})}

    def test_distinguishing_queries_have_a_home(self, grover_circuit, dj_circuit, simon_circuit):
        for circuit in (grover_circuit, dj_circuit, simon_circuit):
            problem = circuit.problem
            for b in problem.setting_ids():
                instances = akrule.setting_instances(problem, b)
                for path in histories.enumerate_histories(circuit, problem, b):
                    (query,) = path.query_args
                    splits_something = any(
                        len({ol.evaluate(problem, x, query).value for x in inst.subset}) > 1
                        for inst in instances
                    )
                    cls = histories.classify_history(path, instances, problem)
                    if splits_something:
                        assert cls.consistent, (
                            f"{circuit.name} b={b.text} query {query.text} has no instance"
                        )

    def test_instances_not_containing_the_setting_are_skipped(self, grover_circuit):
        problem = grover_circuit.problem
        paths = histories.enumerate_histories(grover_circuit, problem, bits("01"))
        foreign = akrule.setting_instances(problem, bits("10"))
        only_foreign = [i for i in foreign if bits("01") not in i.subset]
        cls = histories.classify_history(paths[0], only_foreign, problem)
        assert cls.consistent == ()


class TestOptimalTranscript:
    """Multi-query transcripts on a search flat of four settings (cost 3)."""

    FLAT = frozenset(bits(t) for t in ("0000", "0001", "0010", "0011"))

    @pytest.mark.parametrize("queries,true,expected", [
        (("0000", "0001", "0010"), "0011", True),
        (("0011", "0000", "0001"), "0010", True),
        (("0000", "0001"), "0011", False),  # answer still open
        (("0000", "0001", "0010", "0011"), "0011", False),  # query after the answer is fixed
        (("0000", "0001", "0010"), "0000", False),  # first query already pins the answer
        (("0100", "0000", "0001"), "0011", False),  # 0100 does not split the flat
    ])
    def test_sequences(self, queries, true, expected):
        problem = ol.build_grover(4)
        args = [bits(q) for q in queries]
        assert akrule.optimal_play(problem, self.FLAT, args, bits(true)) is expected

    def test_argument_width_checked(self):
        problem = ol.build_grover(4)
        with pytest.raises(ValueError, match="argument width"):
            akrule.optimal_play(problem, self.FLAT, [bits("00")], bits("0000"))

    def test_argument_width_checked_after_a_failing_query(self):
        # 0100 does not split the flat, so the walk stops there; the check runs before it
        with pytest.raises(ValueError, match="argument width"):
            akrule.optimal_play(ol.build_grover(4), self.FLAT, [bits("0100"), bits("00")], bits("0011"))

    def test_true_setting_outside_the_candidates_rejected(self):
        with pytest.raises(ValueError, match="not a candidate"):
            akrule.optimal_play(ol.build_grover(4), self.FLAT, [bits("0000")], bits("0100"))


class TestSerialization:
    def test_jsonl_and_records(self, grover_circuit):
        problem = grover_circuit.problem
        b = bits("01")
        instances = akrule.setting_instances(problem, b)
        paths = histories.enumerate_histories(grover_circuit, problem, b)
        classified = [histories.classify_history(p, instances, problem) for p in paths]
        payload = histories.histories_jsonl(grover_circuit, classified)
        lines = payload.splitlines()
        assert len(lines) == len(paths)
        import json

        record = json.loads(lines[0])
        assert record["setting"] == "01"
        assert len(record["path"]) == 4

    def test_dot_output(self, grover_circuit):
        problem = grover_circuit.problem
        paths = histories.enumerate_histories(grover_circuit, problem, bits("01"))
        dot = histories.histories_dot(grover_circuit, paths)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert '"t0_0"' in dot
