import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oraclelab as ol
from oraclelab import circuits
from oraclelab.qstate import (
    ATOL,
    BitString,
    Branch,
    BranchEnsemble,
    OutcomeDistribution,
    PureState,
    RegisterLayout,
)


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

    def test_bit_positions_are_left_to_right(self):
        bits = BitString.from_text("0110")
        assert [bits.bit(i) for i in range(4)] == [0, 1, 1, 0]

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
    def test_weights_must_sum_to_one(self):
        layout = ba_layout()
        state = PureState.basis(layout, {"A": 0})
        with pytest.raises(ValueError):
            BranchEnsemble(layout, (Branch(BitString(0, 2), 0.5, state),))

    def test_duplicate_settings_rejected(self):
        layout = ba_layout()
        state = PureState.basis(layout, {"A": 0})
        branches = (Branch(BitString(1, 2), 0.5, state), Branch(BitString(1, 2), 0.5, state))
        with pytest.raises(ValueError):
            BranchEnsemble(layout, branches)

    def test_branches_sorted_canonically(self):
        layout = ba_layout()
        state = PureState.basis(layout, {"A": 0})
        branches = (Branch(BitString(2, 2), 0.5, state), Branch(BitString(0, 2), 0.5, state))
        ensemble = BranchEnsemble(layout, branches)
        assert [b.setting.value for b in ensemble.branches] == [0, 2]


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
        uniform = PureState(layout.state_only(), np.full(4, 0.5))
        ensemble = BranchEnsemble(layout, (Branch(BitString.from_text("01"), 1.0, uniform),))
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
        state = PureState.basis(layout, {"A": 0})
        ensemble = BranchEnsemble(layout, (Branch(BitString.from_text("10"), 1.0, state),))
        out = ol.apply_stage(ensemble, circuits.bitwise_not("B"))
        assert out.branches[0].setting.text == "01"

    def test_bitwise_not_on_state_register_is_x_on_every_bit(self):
        layout = ba_layout()
        state = PureState.basis(layout, {"A": 0})
        ensemble = BranchEnsemble(layout, (Branch(BitString(0, 2), 1.0, state),))
        out = ol.apply_stage(ensemble, circuits.bitwise_not("A"))
        assert np.allclose(out.branches[0].state.amplitudes, [0, 0, 0, 1])

    def test_not_preparation_leaves_uniform_mixtures_unchanged(self):
        # relabeling by bitwise NOT permutes the branches of a uniform mixture
        for problem in (ol.build_grover(2), ol.build_dj(2), ol.build_simon(2)):
            ensemble = ol.input_ensemble(problem)
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
        state = PureState.basis(layout, {"A": 0})
        single = BranchEnsemble(layout, (Branch(BitString(2, 2), 1.0, state),))
        assert ol.ensembles_close(ol.prepare_setting(single, BitString(2, 2)), single)

    def test_prepare_setting_unknown_outcome(self):
        layout = ba_layout()
        single = BranchEnsemble(
            layout, (Branch(BitString(2, 2), 1.0, PureState.basis(layout, {"A": 0})),)
        )
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
        full = ol.project_setting_subset(ensemble, ensemble.settings())
        assert ol.ensembles_close(full, ensemble)
        # singleton projection is deterministic
        one = ol.project_setting_subset(ensemble, [BitString.from_text("01")])
        assert len(one.branches) == 1 and one.branches[0].weight == 1.0

    def test_project_empty_intersection(self):
        layout = ba_layout()
        single = BranchEnsemble(
            layout, (Branch(BitString(2, 2), 1.0, PureState.basis(layout, {"A": 0})),)
        )
        with pytest.raises(ValueError):
            ol.project_setting_subset(single, [BitString(1, 2)])


class TestMeasurement:
    def test_sharp_state(self):
        layout = ba_layout()
        single = BranchEnsemble(
            layout, (Branch(BitString(0, 2), 1.0, PureState.basis(layout, {"A": 1})),)
        )
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
        single = BranchEnsemble(
            layout, (Branch(BitString(0, 2), 1.0, PureState.basis(layout, {"A": 0})),)
        )
        with pytest.raises(ValueError):
            ol.measure_register(single, "Q")


class TestEntropies:
    def test_correlated_output_has_full_register_entropy(self):
        # four branches, each leaving its own basis label in A
        layout = ba_layout()
        branches = tuple(
            Branch(BitString(v, 2), 0.25, PureState.basis(layout, {"A": v})) for v in range(4)
        )
        ensemble = BranchEnsemble(layout, branches)
        assert abs(ol.reduced_entropy(ensemble, "A") - 2.0) <= ATOL

    def test_sharp_product_state_has_zero_entropy(self):
        layout = bav_layout()
        single = BranchEnsemble(
            layout, (Branch(BitString(0, 2), 1.0, PureState.basis(layout, {"A": 2, "V": 1})),)
        )
        assert ol.reduced_entropy(single, "A") == 0.0
        assert ol.reduced_entropy(single, "V") == 0.0

    def test_period_output_entropy_is_log2_3(self, simon2):
        out = ol.output_ensemble(simon2)
        assert abs(ol.reduced_entropy(out, "A") - math.log2(3)) <= ATOL

    def test_setting_register_entropy_is_weight_entropy(self):
        layout = ba_layout()
        state = PureState.basis(layout, {"A": 0})
        branches = (
            Branch(BitString(0, 2), 0.5, state),
            Branch(BitString(1, 2), 0.25, state),
            Branch(BitString(2, 2), 0.25, state),
        )
        ensemble = BranchEnsemble(layout, branches)
        assert abs(ol.reduced_entropy(ensemble, "B") - 1.5) <= ATOL

    def test_shannon_closed_forms(self):
        uniform4 = OutcomeDistribution(
            tuple((BitString(v, 2), 0.25) for v in range(4))
        )
        assert abs(ol.shannon_entropy(uniform4) - 2.0) <= ATOL
        point = OutcomeDistribution(((BitString(1, 2), 1.0),))
        assert ol.shannon_entropy(point) == 0.0
        thirds = OutcomeDistribution(
            tuple((BitString(v, 2), 1.0 / 3.0) for v in range(3))
        )
        assert abs(ol.shannon_entropy(thirds) - math.log2(3)) <= 1e-12

    def test_entropy_matches_shannon_for_basis_branches(self):
        rng = np.random.default_rng(7)
        layout = ba_layout()
        for _ in range(100):
            count = int(rng.integers(1, 5))
            settings = rng.choice(4, size=count, replace=False)
            weights = rng.random(count) + 0.05
            weights /= weights.sum()
            branches = tuple(
                Branch(
                    BitString(int(s), 2),
                    float(w),
                    PureState.basis(layout, {"A": int(rng.integers(4))}),
                )
                for s, w in zip(settings, weights)
            )
            ensemble = BranchEnsemble(layout, branches)
            dist = ol.measure_register(ensemble, "A")
            assert abs(ol.reduced_entropy(ensemble, "A") - ol.shannon_entropy(dist)) <= ATOL


class TestOutcomeDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(((BitString(0, 1), 0.5),))

    def test_outcomes_distinct(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(((BitString(0, 1), 0.5), (BitString(0, 1), 0.5)))

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8))
    def test_shannon_entropy_bounds(self, raws):
        total = sum(raws)
        entries = tuple(
            (BitString(i, 4), raw / total) for i, raw in enumerate(raws)
        )
        dist = OutcomeDistribution(entries)
        entropy = ol.shannon_entropy(dist)
        assert -1e-12 <= entropy <= math.log2(len(raws)) + 1e-9


class TestPhaseSampling:
    def test_density_matrix_blocks(self):
        layout = ba_layout(b=1, a=1)
        branches = (
            Branch(BitString(0, 1), 0.5, PureState.basis(layout, {"A": 0})),
            Branch(BitString(1, 1), 0.5, PureState.basis(layout, {"A": 1})),
        )
        rho = ol.density_matrix(BranchEnsemble(layout, branches))
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
