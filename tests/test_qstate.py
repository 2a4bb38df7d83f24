import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oraclelab as ol
from oraclelab import circuits
from oraclelab.oracle import problem_layout
from oraclelab.qstate import (
    ATOL,
    BitString,
    BranchEnsemble,
    OutcomeDistribution,
    PureState,
    RegisterLayout,
)

from conftest import make_ensemble


def ba_layout(b=2, a=2):
    return RegisterLayout((("B", b), ("A", a)), "B")


def bav_layout():
    return RegisterLayout((("B", 2), ("A", 2), ("V", 1)), "B")


class TestBitString:
    def test_text_round_trip(self):
        bits = BitString.from_text("0011")
        assert bits.value == 3 and bits.width == 4
        assert bits.text == "0011"
        assert str(bits) == "0011"

    def test_invert(self):
        assert (~BitString.from_text("10")).text == "01"
        assert (~BitString.from_text("0011")).text == "1100"

    def test_validation(self):
        with pytest.raises(ValueError):
            BitString(4, 2)
        with pytest.raises(ValueError):
            BitString(0, 0)
        with pytest.raises(ValueError):
            BitString.from_text("01x")
        with pytest.raises(ValueError):
            BitString.from_text("")

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=8, max_value=12))
    def test_round_trip_property(self, value, width):
        bits = BitString(value, width)
        assert BitString.from_text(bits.text) == bits

    def test_ordering_is_by_value(self):
        values = [BitString.from_text(t) for t in ("10", "01", "11", "00")]
        assert [b.text for b in sorted(values)] == ["00", "01", "10", "11"]


class TestRegisterLayout:
    def test_widths_and_names(self):
        layout = bav_layout()
        assert layout.names == ("B", "A", "V")
        assert layout.total_width == 5
        assert layout.state_width == 3
        assert layout.state_dim == 8

    def test_extract_replace_round_trip(self):
        layout = bav_layout()
        for idx in range(8):
            a = layout.extract("A", idx)
            v = layout.extract("V", idx)
            assert layout.state_index({"A": a, "V": v}) == idx

    def test_state_label(self):
        layout = bav_layout()
        assert layout.state_label(layout.state_index({"A": 2, "V": 1})) == "10 1"

    def test_validation(self):
        with pytest.raises(ValueError):
            RegisterLayout((("B", 2), ("B", 1)), "B")
        with pytest.raises(ValueError):
            RegisterLayout((("B", 25),), "B")
        with pytest.raises(ValueError):
            RegisterLayout((("B", 2),), "C")
        with pytest.raises(ValueError):
            bav_layout().width("Z")


class TestPureState:
    def test_norm_enforced(self):
        layout = ba_layout().state_only()
        with pytest.raises(ValueError):
            PureState(layout, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_amplitudes_are_read_only(self):
        state = PureState.basis(ba_layout(), {"A": 1})
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_product_builds_minus_state(self):
        layout = bav_layout()
        state = PureState.product(
            layout, {"A": [1, 0, 0, 0], "V": np.array([1, -1]) / np.sqrt(2)}
        )
        expected = np.zeros(8)
        expected[0] = 1 / np.sqrt(2)
        expected[1] = -1 / np.sqrt(2)
        assert np.allclose(state.amplitudes, expected)


class TestBranchEnsemble:
    ROWS = np.eye(4)[[0, 1]]

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 0.5"):
            BranchEnsemble(ba_layout(), (BitString(0, 2),), (0.5,), self.ROWS[:1])

    def test_duplicate_settings_rejected(self):
        with pytest.raises(ValueError, match="duplicate setting 01"):
            BranchEnsemble(ba_layout(), (BitString(1, 2), BitString(1, 2)), (0.5, 0.5), self.ROWS)

    def test_branches_sorted_canonically(self):
        ensemble = BranchEnsemble(ba_layout(), (BitString(2, 2), BitString(0, 2)), (0.75, 0.25), self.ROWS)
        assert [b.value for b in ensemble.settings] == [0, 2]
        assert ensemble.weights == (0.25, 0.75)
        assert np.array_equal(ensemble.amplitudes, np.eye(4)[[1, 0]])
        assert [b.setting.value for b in ensemble.branches] == [0, 2]

    def test_weights_length_must_match(self):
        with pytest.raises(ValueError, match="1 weights for 2 branches"):
            BranchEnsemble(ba_layout(), (BitString(0, 2), BitString(1, 2)), (1.0,), self.ROWS)

    def test_amplitude_shape_must_match(self):
        with pytest.raises(ValueError, match=r"shape \(2, 8\), expected \(2, 4\)"):
            BranchEnsemble(ba_layout(), (BitString(0, 2), BitString(1, 2)), (0.5, 0.5), np.eye(8)[:2])

    def test_row_norm_must_be_one(self):
        rows = np.array([[1.0, 0, 0, 0], [1.0, 1.0, 0, 0]])
        with pytest.raises(ValueError, match="state norm .* is not 1"):
            BranchEnsemble(ba_layout(), (BitString(0, 2), BitString(1, 2)), (0.5, 0.5), rows)

    def test_other_checks_keep_their_messages(self):
        layout, rows = ba_layout(), self.ROWS[:1]
        with pytest.raises(ValueError, match="must designate a setting register"):
            BranchEnsemble(RegisterLayout((("B", 2), ("A", 2))), (BitString(0, 2),), (1.0,), rows)
        with pytest.raises(ValueError, match="at least one branch"):
            BranchEnsemble(layout, (), (), np.zeros((0, 4)))
        with pytest.raises(ValueError, match="setting 001 has width 3, register has 2"):
            BranchEnsemble(layout, (BitString(1, 3),), (1.0,), rows)
        with pytest.raises(ValueError, match="negative branch weight -0.5"):
            BranchEnsemble(layout, (BitString(0, 2), BitString(1, 2)), (1.5, -0.5), self.ROWS)

    def test_amplitudes_are_read_only_and_owned(self):
        rows = self.ROWS.astype(np.complex128)
        ensemble = BranchEnsemble(ba_layout(), (BitString(0, 2), BitString(1, 2)), (0.5, 0.5), rows)
        rows[0, 0] = 0.0
        assert ensemble.amplitudes[0, 0] == 1.0
        with pytest.raises(ValueError):
            ensemble.amplitudes[0, 0] = 0.0


class TestApplyStage:
    def test_hadamard_spreads_basis_state(self):
        layout = ba_layout()
        ensemble = BranchEnsemble.uniform(
            layout, [BitString(v, 2) for v in range(4)], PureState.basis(layout, {"A": 0})
        )
        out = ol.apply_stage(ensemble, circuits.hadamard("A"))
        for br in out.branches:
            assert np.allclose(br.state.amplitudes, np.full(4, 0.5))

    def test_identity_custom_stage_is_noop(self, grover2):
        layout = ba_layout()
        ensemble = BranchEnsemble.uniform(
            layout, [BitString(v, 2) for v in range(4)], PureState.basis(layout, {"A": 3})
        )
        out = ol.apply_stage(ensemble, circuits.custom("A", np.eye(4), "identity"))
        assert ol.ensembles_close(out, ensemble)

    def test_phase_oracle_flips_matching_argument(self, grover2):
        layout = ba_layout()
        ensemble = make_ensemble(layout, [BitString.from_text("01")], [np.full(4, 0.5)])
        out = ol.apply_stage(ensemble, circuits.oracle_phase(grover2))
        assert np.allclose(out.branches[0].state.amplitudes, [0.5, -0.5, 0.5, 0.5])

    def test_unknown_register_rejected(self):
        layout = ba_layout()
        ensemble = BranchEnsemble.uniform(
            layout, [BitString(0, 2)], PureState.basis(layout, {"A": 0})
        )
        with pytest.raises(ValueError):
            ol.apply_stage(ensemble, circuits.hadamard("Z"))

    def test_unitary_stages_may_not_touch_setting_register(self):
        layout = ba_layout()
        ensemble = BranchEnsemble.uniform(
            layout, [BitString(0, 2)], PureState.basis(layout, {"A": 0})
        )
        with pytest.raises(ValueError):
            ol.apply_stage(ensemble, circuits.hadamard("B"))

    def test_non_unitary_custom_rejected_at_construction(self):
        with pytest.raises(ValueError):
            circuits.custom("A", np.ones((4, 4)))

    def test_bitwise_not_relabels_branches(self):
        layout = ba_layout()
        ensemble = make_ensemble(layout, [BitString.from_text("10")], [PureState.basis(layout, {"A": 0}).amplitudes])
        out = ol.apply_stage(ensemble, circuits.bitwise_not("B"))
        assert out.branches[0].setting.text == "01"

    def test_bitwise_not_on_state_register_is_x_on_every_bit(self):
        layout = ba_layout()
        ensemble = make_ensemble(layout, [BitString(0, 2)], [PureState.basis(layout, {"A": 0}).amplitudes])
        out = ol.apply_stage(ensemble, circuits.bitwise_not("A"))
        assert np.allclose(out.branches[0].state.amplitudes, [0, 0, 0, 1])

    def test_not_preparation_leaves_uniform_mixtures_unchanged(self):
        # relabeling by bitwise NOT permutes the branches of a uniform mixture
        for problem in (ol.build_grover(2), ol.build_dj(2), ol.build_simon(2)):
            layout = problem_layout(problem)
            ensemble = BranchEnsemble.uniform(layout, problem.setting_ids(), PureState.basis(layout, {"A": 0}))
            relabeled = ol.apply_stage(ensemble, circuits.bitwise_not("B"))
            assert ol.ensembles_close(relabeled, ensemble)


class TestPreparationAndProjection:
    def test_prepare_setting_collapses(self):
        layout = ba_layout()
        ensemble = BranchEnsemble.uniform(
            layout, [BitString(v, 2) for v in range(4)], PureState.basis(layout, {"A": 0})
        )
        out = ol.prepare_setting(ensemble, BitString.from_text("10"))
        assert len(out.branches) == 1
        assert out.branches[0].setting.text == "10"
        assert out.branches[0].weight == 1.0
        # the preparation stage then moves the outcome to the desired setting
        prepared = ol.apply_stage(out, circuits.bitwise_not("B"))
        assert prepared.branches[0].setting.text == "01"

    def test_prepare_setting_single_branch_unchanged(self):
        layout = ba_layout()
        single = make_ensemble(layout, [BitString(2, 2)], [PureState.basis(layout, {"A": 0}).amplitudes])
        assert ol.ensembles_close(ol.prepare_setting(single, BitString(2, 2)), single)

    def test_prepare_setting_on_a_zero_weight_branch(self):
        # the measured outcome is the branch, whatever weight the mixture gave it
        layout = ba_layout()
        ensemble = make_ensemble(layout, [BitString(0, 2), BitString(1, 2)], np.eye(4)[[0, 3]], [1.0, 0.0])
        out = ol.prepare_setting(ensemble, BitString(1, 2))
        assert out.settings == (BitString(1, 2),) and out.weights == (1.0,)
        assert np.array_equal(out.amplitudes, [[0, 0, 0, 1]])

    def test_prepare_setting_unknown_outcome(self):
        layout = ba_layout()
        single = make_ensemble(layout, [BitString(2, 2)], [PureState.basis(layout, {"A": 0}).amplitudes])
        with pytest.raises(ValueError):
            ol.prepare_setting(single, BitString(1, 2))

    def test_project_renormalizes(self):
        layout = ba_layout()
        ensemble = BranchEnsemble.uniform(
            layout, [BitString(v, 2) for v in range(4)], PureState.basis(layout, {"A": 0})
        )
        subset = [BitString.from_text("01"), BitString.from_text("11")]
        out = ol.project_setting_subset(ensemble, subset)
        assert [b.setting.text for b in out.branches] == ["01", "11"]
        assert all(abs(b.weight - 0.5) <= ATOL for b in out.branches)
        # projecting onto everything changes nothing
        full = ol.project_setting_subset(ensemble, ensemble.settings)
        assert ol.ensembles_close(full, ensemble)
        # singleton projection is deterministic
        one = ol.project_setting_subset(ensemble, [BitString.from_text("01")])
        assert len(one.branches) == 1 and one.branches[0].weight == 1.0

    def test_project_empty_intersection(self):
        layout = ba_layout()
        single = make_ensemble(layout, [BitString(2, 2)], [PureState.basis(layout, {"A": 0}).amplitudes])
        with pytest.raises(ValueError):
            ol.project_setting_subset(single, [BitString(1, 2)])


class TestMeasurement:
    def test_sharp_state(self):
        layout = ba_layout()
        single = make_ensemble(layout, [BitString(0, 2)], [PureState.basis(layout, {"A": 1}).amplitudes])
        dist = ol.measure_register(single, "A")
        assert dist.as_dict() == {"01": 1.0}

    def test_search_output_marginal_is_uniform(self, grover_circuit):
        trace = ol.run(grover_circuit, ol.initial_ensemble(grover_circuit))
        dist = ol.measure_register(trace.final, "A")
        for text in ("00", "01", "10", "11"):
            assert abs(dist.probability(text) - 0.25) <= ATOL

    def test_joint_outcome_pairing_with_not_preparation(self, grover_circuit):
        trace = ol.run(grover_circuit, ol.initial_ensemble(grover_circuit))
        relabeled = ol.apply_stage(trace.final, circuits.bitwise_not("B"))
        joint = ol.measure_register(relabeled, "B", "A")
        assert set(joint.as_dict()) == {"0011", "0110", "1001", "1100"}
        for p in joint.as_dict().values():
            assert abs(p - 0.25) <= ATOL

    def test_unknown_register(self):
        layout = ba_layout()
        single = make_ensemble(layout, [BitString(0, 2)], [PureState.basis(layout, {"A": 0}).amplitudes])
        with pytest.raises(ValueError):
            ol.measure_register(single, "Q")


class TestEntropies:
    def test_correlated_output_has_full_register_entropy(self):
        # four branches, each leaving its own basis label in A
        layout = ba_layout()
        ensemble = make_ensemble(layout, [BitString(v, 2) for v in range(4)], np.eye(4))
        assert abs(ol.reduced_entropy(ensemble, "A") - 2.0) <= ATOL

    def test_sharp_product_state_has_zero_entropy(self):
        layout = bav_layout()
        single = make_ensemble(layout, [BitString(0, 2)], [PureState.basis(layout, {"A": 2, "V": 1}).amplitudes])
        assert ol.reduced_entropy(single, "A") == 0.0
        assert ol.reduced_entropy(single, "V") == 0.0

    def test_period_output_entropy_is_log2_3(self, simon2):
        out = ol.output_ensemble(simon2)
        assert abs(ol.reduced_entropy(out, "A") - math.log2(3)) <= ATOL

    def test_setting_register_entropy_is_weight_entropy(self):
        layout = ba_layout()
        ensemble = make_ensemble(layout, [BitString(v, 2) for v in range(3)], np.eye(4)[[0, 0, 0]], [0.5, 0.25, 0.25])
        assert abs(ol.reduced_entropy(ensemble, "B") - 1.5) <= ATOL

    def test_shannon_closed_forms(self):
        uniform4 = OutcomeDistribution(range(4), [0.25] * 4, 2)
        assert abs(ol.shannon_entropy(uniform4) - 2.0) <= ATOL
        point = OutcomeDistribution([1], [1.0], 2)
        assert ol.shannon_entropy(point) == 0.0
        thirds = OutcomeDistribution(range(3), [1.0 / 3.0] * 3, 2)
        assert abs(ol.shannon_entropy(thirds) - math.log2(3)) <= 1e-12

    def test_entropy_matches_shannon_for_basis_branches(self):
        rng = np.random.default_rng(7)
        layout = ba_layout()
        for _ in range(100):
            count = int(rng.integers(1, 5))
            settings = rng.choice(4, size=count, replace=False)
            weights = rng.random(count) + 0.05
            weights /= weights.sum()
            rows = [PureState.basis(layout, {"A": int(rng.integers(4))}).amplitudes for _ in settings]
            ensemble = make_ensemble(layout, [BitString(int(s), 2) for s in settings], rows, weights)
            dist = ol.measure_register(ensemble, "A")
            assert abs(ol.reduced_entropy(ensemble, "A") - ol.shannon_entropy(dist)) <= ATOL


class TestOutcomeDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            OutcomeDistribution([0], [0.5], 1)

    def test_outcomes_distinct(self):
        with pytest.raises(ValueError):
            OutcomeDistribution([0, 0], [0.5, 0.5], 1)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8))
    def test_shannon_entropy_bounds(self, raws):
        total = sum(raws)
        dist = OutcomeDistribution(range(len(raws)), [raw / total for raw in raws], 4)
        entropy = ol.shannon_entropy(dist)
        assert -1e-12 <= entropy <= math.log2(len(raws)) + 1e-9


class TestPhaseSampling:
    def test_density_matrix_blocks(self):
        layout = ba_layout(b=1, a=1)
        rho = ol.density_matrix(make_ensemble(layout, [BitString(0, 1), BitString(1, 1)], np.eye(2)))
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.5  # B=0, A=0
        expected[3, 3] = 0.5  # B=1, A=1
        assert np.allclose(rho, expected)

    def test_sampled_phase_density_converges(self):
        layout = ba_layout()
        rng = np.random.default_rng(3)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = PureState(layout.state_only(), vec / np.linalg.norm(vec))
        ensemble = BranchEnsemble.uniform(
            layout, [BitString(v, 2) for v in range(4)], state
        )
        exact = ol.density_matrix(ensemble)
        sampled = ol.sampled_phase_density(ensemble, samples=10_000, seed=11)
        assert float(np.max(np.abs(sampled - exact))) <= 1e-2
