import numpy as np
import pytest

import oraclelab as ol
from oraclelab import circuits
from oraclelab.qstate import ATOL, BitString

from reference_tables import (
    GROVER2_TABLES,
    SIMON2_PERIODS,
    hadamard_matrix,
    mean_inversion_matrix,
    phase_oracle_matrix,
    table_of,
    xor_oracle_matrix,
)

MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def bits(text):
    return BitString.from_text(text)


def reference_search_unitary(table):
    """Inversion-about-mean . xor-oracle . Hadamard over (A, V), built independently."""
    h = np.kron(hadamard_matrix(2), np.eye(2))
    uf = xor_oracle_matrix(table)
    inv = np.kron(mean_inversion_matrix(4), np.eye(2))
    return inv @ uf @ h


class TestStageMatrices:
    def test_hadamard_matches_reference(self):
        layout = ol.RegisterLayout((("B", 2), ("A", 2)), "B")
        got = circuits.hadamard("A").unitary(layout)
        assert np.allclose(got, hadamard_matrix(2), atol=ATOL)

    def test_inversion_about_mean(self):
        layout = ol.RegisterLayout((("B", 2), ("A", 2)), "B")
        got = circuits.inversion_about_mean("A").unitary(layout)
        assert np.allclose(got, mean_inversion_matrix(4), atol=ATOL)

    def test_xor_oracle_matches_reference(self, grover2):
        layout = ol.RegisterLayout((("B", 2), ("A", 2), ("V", 1)), "B")
        for text, table in GROVER2_TABLES.items():
            got = circuits.oracle_xor(grover2).unitary(layout, bits(text))
            assert np.allclose(got, xor_oracle_matrix(table), atol=ATOL)

    def test_phase_oracle_matches_reference(self, grover2):
        layout = ol.RegisterLayout((("B", 2), ("A", 2)), "B")
        for text, table in GROVER2_TABLES.items():
            got = circuits.oracle_phase(grover2).unitary(layout, bits(text))
            assert np.allclose(got, phase_oracle_matrix(table), atol=ATOL)

    def test_permutation_swap(self):
        layout = ol.RegisterLayout((("B", 2), ("A", 2)), "B")
        got = circuits.permutation("A", (0, 2, 1, 3)).unitary(layout)
        expected = np.zeros((4, 4))
        for i, j in enumerate((0, 2, 1, 3)):
            expected[j, i] = 1.0
        assert np.allclose(got, expected, atol=ATOL)

    def test_permutation_requires_bijection(self):
        with pytest.raises(ValueError):
            circuits.permutation("A", (0, 0, 1, 3))


class TestGroverCircuit:
    def test_every_setting_lands_on_itself(self, grover_circuit):
        full = ol.initial_ensemble(grover_circuit)
        for b in grover_circuit.problem.setting_ids():
            trace = ol.run(grover_circuit, ol.prepare_setting(full, b))
            final = trace.final.branches[0].state
            expected = np.kron(np.eye(4)[b.value], MINUS)
            assert np.allclose(final.amplitudes, expected, atol=ATOL)

    def test_stagewise_amplitudes_for_setting_01(self, grover_circuit):
        full = ol.initial_ensemble(grover_circuit)
        trace = ol.run(grover_circuit, ol.prepare_setting(full, bits("01")))
        states = [t.branches[0].state.amplitudes for t in trace.ensembles]
        assert np.allclose(states[0], np.kron([1, 0, 0, 0], MINUS), atol=ATOL)
        assert np.allclose(states[1], np.kron([0.5] * 4, MINUS), atol=ATOL)
        # the sign moves onto the matching argument after the oracle
        assert np.allclose(states[2], np.kron([0.5, -0.5, 0.5, 0.5], MINUS), atol=ATOL)
        assert np.allclose(states[3], np.kron([0, 1, 0, 0], MINUS), atol=ATOL)

    def test_full_ensemble_run_is_branchwise_correlated(self, grover_circuit):
        trace = ol.run(grover_circuit, ol.initial_ensemble(grover_circuit))
        assert len(trace.ensembles) == 4
        for br in trace.final.branches:
            expected = np.kron(np.eye(4)[br.setting.value], MINUS)
            assert np.allclose(br.state.amplitudes, expected, atol=ATOL)

    def test_settings_survive_run(self, grover_circuit):
        full = ol.initial_ensemble(grover_circuit)
        trace = ol.run(grover_circuit, full)
        assert trace.final.settings == full.settings

    def test_output_register_entropy_is_two_bits(self, grover_circuit):
        trace = ol.run(grover_circuit, ol.initial_ensemble(grover_circuit))
        assert abs(ol.reduced_entropy(trace.final, "A") - 2.0) <= ATOL
        # the setting register stays maximally mixed throughout
        for ensemble in trace.ensembles:
            assert abs(ol.reduced_entropy(ensemble, "B") - 2.0) <= ATOL


def search_iteration_at_width_four():
    """The final ensemble of one H, oracle, inversion round over all 16 settings of B4/A4/V1."""
    problem = ol.build_grover(4)
    layout = ol.RegisterLayout((("B", 4), ("A", 4), ("V", 1)), "B")
    stages = (circuits.hadamard("A"), circuits.oracle_xor(problem), circuits.inversion_about_mean("A"))
    circuit = circuits.make_circuit("search-n4", layout, problem, stages)
    return ol.run(circuit, ol.initial_ensemble(circuit)).final


def test_one_search_iteration_at_width_four():
    """The round succeeds with sin^2(3 asin 2^-2)."""
    final = search_iteration_at_width_four()
    dist = ol.measure_register(final, "B", "A")
    success = sum(p for outcome, p in dist.entries if outcome.value >> 4 == outcome.value & 15)
    assert abs(success - np.sin(3 * np.arcsin(2.0**-2)) ** 2) <= 1e-9
    assert abs(sum(p for _, p in dist.entries) - 1.0) <= 1e-12
    assert 0.0 <= ol.reduced_entropy(final, "A") <= 4.0 + 1e-9


def test_branch_and_outcome_objects_are_formed_only_when_read():
    final = search_iteration_at_width_four()
    dist = ol.measure_register(final, "B", "A")
    assert dist.probability("00000000") > 0 and len(dist.as_dict()) == len(dist.values)
    assert 0.0 < ol.shannon_entropy(dist) <= 8.0
    assert "entries" not in dist.__dict__ and "branches" not in final.__dict__
    # when read, the views are built with the checked constructors from the stored arrays
    assert dist.entries == tuple((BitString(v, dist.width), p) for v, p in zip(dist.values, dist.probs))
    assert [br.setting for br in final.branches] == list(final.settings)
    assert [br.weight for br in final.branches] == list(final.weights)
    for k, br in enumerate(final.branches):
        assert np.array_equal(br.state.amplitudes, final.amplitudes[k])


class TestDjCircuit:
    @pytest.mark.parametrize(
        "setting,outcome",
        [("0000", "00"), ("1111", "00"), ("0011", "10"), ("1100", "10"),
         ("0101", "01"), ("1010", "01"), ("0110", "11"), ("1001", "11")],
    )
    def test_outcomes(self, dj_circuit, setting, outcome):
        full = ol.initial_ensemble(dj_circuit)
        trace = ol.run(dj_circuit, ol.prepare_setting(full, bits(setting)))
        dist = ol.measure_register(trace.final, "A")
        assert abs(dist.probability(outcome) - 1.0) <= ATOL

    def test_outcome_0101_against_reference_matrices(self):
        # independent four-amplitude computation: H . diag((-1)^f) . H on |00>
        table = table_of("0101")
        u = hadamard_matrix(2) @ phase_oracle_matrix(table) @ hadamard_matrix(2)
        final = u @ np.eye(4)[0]
        assert np.allclose(np.abs(final), np.eye(4)[1], atol=ATOL)


class TestSimonCircuit:
    def test_single_query_finds_the_period(self, simon_circuit):
        full = ol.initial_ensemble(simon_circuit)
        for text, period in SIMON2_PERIODS.items():
            trace = ol.run(simon_circuit, ol.prepare_setting(full, bits(text)))
            dist = ol.measure_register(trace.final, "A")
            assert abs(dist.probability(period) - 1.0) <= ATOL

    def test_against_independent_composition(self, simon_circuit):
        swap = np.eye(4)[[0, 2, 1, 3]].T
        for text, period in SIMON2_PERIODS.items():
            table = table_of(text)
            u = (
                np.kron(swap @ hadamard_matrix(2) @ phase_oracle_matrix(table) @ hadamard_matrix(2), np.eye(2))
            )
            final = u @ np.kron(np.eye(4)[0], MINUS)
            expected = np.kron(np.eye(4)[int(period, 2)], MINUS)
            assert np.allclose(np.abs(final), np.abs(expected), atol=ATOL)
            got = circuits.composed_unitary(simon_circuit, bits(text)) @ np.kron(np.eye(4)[0], MINUS)
            assert np.allclose(got, final, atol=ATOL)


class TestRun:
    def test_layout_mismatch(self, grover_circuit, dj_circuit):
        with pytest.raises(ValueError, match="layout"):
            ol.run(grover_circuit, ol.initial_ensemble(dj_circuit))

    def test_empty_circuit_trace_is_input(self, grover2):
        layout = ol.RegisterLayout((("B", 2), ("A", 2), ("V", 1)), "B")
        circuit = circuits.make_circuit("empty", layout, grover2, ())
        ensemble = ol.initial_ensemble(circuit)
        trace = ol.run(circuit, ensemble)
        assert len(trace.ensembles) == 1
        assert ol.ensembles_close(trace.ensembles[0], ensemble)


class TestDeriveOutcome:
    def test_search_outcome(self, grover_circuit, grover2):
        assert ol.derive_a_outcome(grover_circuit, grover2, bits("10")).text == "10"

    def test_table_outcomes(self, dj_circuit, dj2):
        assert ol.derive_a_outcome(dj_circuit, dj2, bits("1001")).text == "11"

    def test_period_outcome(self, simon_circuit, simon2):
        assert ol.derive_a_outcome(simon_circuit, simon2, bits("1100")).text == "01"

    def test_foreign_problem_rejected(self, grover_circuit, dj2):
        # dj2 knows the setting 0110, the circuit's search problem does not
        with pytest.raises(ValueError, match="not the problem of circuit"):
            ol.derive_a_outcome(grover_circuit, dj2, bits("0110"))

    def test_not_sharp_raises(self, grover2):
        layout = ol.RegisterLayout((("B", 2), ("A", 2), ("V", 1)), "B")
        circuit = circuits.make_circuit("halfway", layout, grover2, (circuits.hadamard("A"),))
        with pytest.raises(ValueError, match="not sharp"):
            ol.derive_a_outcome(circuit, grover2, bits("01"))


class TestStructuralIdentities:
    def test_composition_equals_staged_run(self, grover_circuit, dj_circuit, simon_circuit):
        for circuit in (grover_circuit, dj_circuit, simon_circuit):
            full = ol.initial_ensemble(circuit)
            start = circuits.initial_state(circuit).amplitudes
            for b in circuit.problem.setting_ids():
                direct = circuits.composed_unitary(circuit, b) @ start
                staged = ol.run(circuit, ol.prepare_setting(full, b)).final
                assert np.allclose(direct, staged.branches[0].state.amplitudes, atol=ATOL)

    def test_search_composition_matches_reference(self, grover_circuit):
        for text, table in GROVER2_TABLES.items():
            got = circuits.composed_unitary(grover_circuit, bits(text))
            assert np.allclose(got, reference_search_unitary(table), atol=ATOL)

    def test_kickback_identity(self, grover_circuit, dj_circuit, simon_circuit):
        rng = np.random.default_rng(5)
        for circuit in (grover_circuit, dj_circuit, simon_circuit):
            problem = circuit.problem
            layout = circuit.layout
            a_dim = 1 << layout.width("A")
            for b in problem.setting_ids():
                psi = rng.normal(size=a_dim) + 1j * rng.normal(size=a_dim)
                psi /= np.linalg.norm(psi)
                joint = np.kron(psi, MINUS)
                xor_out = circuits.oracle_xor(problem).unitary(layout, b) @ joint
                phase_out = circuits.oracle_phase(problem).unitary(layout, b) @ joint
                assert np.allclose(xor_out, phase_out, atol=ATOL)

    def test_oracle_involution(self, grover_circuit):
        problem = grover_circuit.problem
        layout = grover_circuit.layout
        for b in problem.setting_ids():
            u = circuits.oracle_xor(problem).unitary(layout, b)
            assert np.allclose(u @ u, np.eye(8), atol=ATOL)


class TestBuiltinDispatch:
    def test_known_kinds(self):
        assert circuits.builtin_circuit("grover", 2).name == "grover-n2"
        assert circuits.builtin_circuit("dj", 1).name == "dj-n1"
        assert circuits.builtin_circuit("simon", 2).name == "simon1q-n2"

    @pytest.mark.parametrize("kind,n", [("grover", 2), ("dj", 1), ("dj", 2), ("simon", 2)])
    def test_initial_ensemble_is_built_once(self, kind, n):
        circuit = circuits.builtin_circuit(kind, n)
        assert ol.initial_ensemble(circuit) is ol.initial_ensemble(circuit)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            circuits.builtin_circuit("grover", 4)
        with pytest.raises(ValueError):
            circuits.builtin_circuit("simon", 3)
        with pytest.raises(ValueError):
            circuits.builtin_circuit("unknown", 2)


class TestTraceRecords:
    def test_small_amplitudes_omitted(self, grover_circuit):
        full = ol.initial_ensemble(grover_circuit)
        trace = ol.run(grover_circuit, ol.prepare_setting(full, bits("01")))
        records = circuits.trace_records(trace)
        assert records[0]["stage"] == "input"
        assert [r["stage"] for r in records[1:]] == [st.label for st in grover_circuit.stages]
        final = records[-1]["branches"][0]
        assert final["setting"] == "01"
        assert len(final["amplitudes"]) == 2  # the two V components of the sharp outcome
