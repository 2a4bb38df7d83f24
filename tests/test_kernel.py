"""The register-axis stage kernel against per-basis-index reference matrices.

Random small layouts put the setting register first, in the middle or last,
and the oracle's argument register before or after its target, so that an
axis-order mistake in the kernel shows up as a mismatch.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import oraclelab as ol
from oraclelab import circuits, qstate
from oraclelab.oracle import OracleProblem, Setting
from oraclelab.qstate import ATOL, BitString, PureState, RegisterLayout

from conftest import make_ensemble
from reference_tables import reference_joint_vector, reference_outcomes, reference_stage_matrix

POSITIONS = ("first", "middle", "last")


@dataclass
class Case:
    layout: RegisterLayout
    settings: tuple[BitString, ...]
    stages: tuple[circuits.Stage, ...]
    problem: OracleProblem


def random_problem(rng, settings, arg_bits, out_bits):
    chosen = []
    for b in settings:
        table = tuple(BitString(int(v), out_bits) for v in rng.integers(0, 1 << out_bits, size=1 << arg_bits))
        chosen.append(Setting(b, table, b.text, b))
    return OracleProblem("random", arg_bits, out_bits, tuple(chosen), "cells")


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def make_case(seed, position, arg_first, count=None):
    """A layout of 2-4 registers, widths 1-3, with the requested setting and oracle order.

    With a single state register the xor oracle has no target and is left out.
    """
    rng = np.random.default_rng(seed)
    count = count or int(rng.integers(3, 5))
    widths = [int(w) for w in rng.integers(1, 4, size=count)]
    names = [f"R{i}" for i in range(count)]
    if position == "middle":
        setting_index = int(rng.integers(1, count - 1))
    else:
        setting_index = 0 if position == "first" else count - 1
    state = [i for i in range(count) if i != setting_index]
    p, q = sorted(rng.choice(state, size=2, replace=False)) if len(state) > 1 else (state[0], state[0])
    arg, target = (p, q) if arg_first else (q, p)
    widths[arg], widths[target] = max(widths[p], widths[q]), min(widths[p], widths[q])
    layout = RegisterLayout(tuple(zip(names, widths)), names[setting_index])

    sw = widths[setting_index]
    ids = rng.choice(1 << sw, size=int(rng.integers(1, (1 << sw) + 1)), replace=False)
    settings = tuple(BitString(int(v), sw) for v in sorted(ids))
    problem = random_problem(rng, settings, widths[arg], widths[target])
    one_bit = random_problem(rng, settings, widths[arg], 1)

    def pick():
        return names[int(rng.choice(state))]

    custom_reg, perm_reg = pick(), pick()
    stages = (
        circuits.hadamard(pick()),
        circuits.inversion_about_mean(pick()),
        circuits.custom(custom_reg, random_unitary(rng, 1 << layout.width(custom_reg))),
        circuits.permutation(perm_reg, rng.permutation(1 << layout.width(perm_reg)).tolist()),
        circuits.bitwise_not(pick()),
        circuits.oracle_phase(one_bit, register=names[arg]),
    )
    if arg != target:
        stages += (circuits.oracle_xor(problem, register=names[arg], target=names[target]),)
    return Case(layout, settings, stages, problem)


def reference(case, stage, setting):
    table = None
    if stage.problem is not None:
        table = [entry.value for entry in stage.problem.setting(setting).table]
    return reference_stage_matrix(
        case.layout.registers,
        case.layout.setting_register,
        stage.kind,
        stage.register,
        target=stage.target,
        table=table,
        mapping=stage.mapping,
        matrix=stage.matrix,
    )


CASES = [
    pytest.param(make_case(seed, position, arg_first), id=f"{position}-{'arg' if arg_first else 'target'}-first-{seed}")
    for position in POSITIONS
    for arg_first in (True, False)
    for seed in range(3)
] + [
    pytest.param(make_case(seed, position, True, count=2), id=f"two-registers-{position}-{seed}")
    for position in ("first", "last")
    for seed in range(2)
]


def random_ensemble(case, seed):
    rng = np.random.default_rng(seed)
    dim = case.layout.state_dim
    rows = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in case.settings]
    return make_ensemble(case.layout, case.settings, [vec / np.linalg.norm(vec) for vec in rows])


@pytest.mark.parametrize("case", CASES)
def test_unitary_matches_reference(case):
    for stage in case.stages:
        for b in case.settings:
            assert np.allclose(stage.unitary(case.layout, b), reference(case, stage, b), atol=ATOL), stage.label


@pytest.mark.parametrize("case", CASES)
def test_apply_stage_matches_reference(case):
    ensemble = random_ensemble(case, 0)
    for stage in case.stages:
        out = ol.apply_stage(ensemble, stage)
        assert out.settings == ensemble.settings
        for before, after in zip(ensemble.branches, out.branches):
            expected = reference(case, stage, before.setting) @ before.state.amplitudes
            assert np.allclose(after.state.amplitudes, expected, atol=ATOL), stage.label
        ensemble = out


@pytest.mark.parametrize("case", CASES)
def test_composed_unitary_matches_reference(case):
    circuit = circuits.make_circuit("random", case.layout, case.problem, case.stages, v_register=None)
    for b in case.settings:
        expected = np.eye(case.layout.state_dim)
        for stage in case.stages:
            expected = reference(case, stage, b) @ expected
        assert np.allclose(circuits.composed_unitary(circuit, b), expected, atol=ATOL)


@pytest.mark.parametrize("case", CASES)
def test_block_stages_on_strided_and_real_rows(case):
    """Hadamard, mean inversion and custom blocks on non-contiguous complex rows and on real identity rows."""
    rng = np.random.default_rng(11)
    dim = case.layout.state_dim
    wide = rng.normal(size=(3, 2 * dim)) + 1j * rng.normal(size=(3, 2 * dim))
    for rows in (wide[:, ::2], np.asfortranarray(wide[:, :dim]), wide[:, dim:].real):
        assert not rows.flags.c_contiguous
        for stage in case.stages:
            if stage.kind not in ("hadamard", "inversion_about_mean", "custom"):
                continue
            matrix = reference(case, stage, case.settings[0])
            out = stage.act(case.layout, rows)
            assert np.allclose(out, rows @ matrix.T, atol=ATOL), stage.label
            identity = stage.act(case.layout, np.eye(dim))
            assert np.allclose(identity.T, matrix, atol=ATOL), stage.label


def check_readouts(case, ensemble, orders):
    """Outcome distributions, the joint density and every reduced entropy against the references."""
    registers = case.layout.registers
    setting = case.layout.setting_register
    branches = [(br.setting.value, br.weight, br.state.amplitudes) for br in ensemble.branches]
    for measured in orders:
        dist = ol.measure_register(ensemble, *measured)
        got = dist.as_dict()
        expected = reference_outcomes(registers, setting, branches, measured)
        assert got.keys() == expected.keys(), measured
        assert all(abs(got[k] - expected[k]) <= ATOL for k in got), measured
        values = [o.value for o, _ in dist.entries]
        assert values == sorted(set(values)), measured
    assert np.allclose(ol.density_matrix(ensemble), reference_density(ensemble), atol=ATOL)
    for name in case.layout.names:
        assert abs(ol.reduced_entropy(ensemble, name) - reference_entropy(ensemble, name)) <= 1e-8, name


def reference_density(ensemble):
    """The joint density over all registers, summed branch by branch from the reference joint vectors."""
    registers, setting = ensemble.layout.registers, ensemble.layout.setting_register
    rho = 0
    for br in ensemble.branches:
        joint = reference_joint_vector(registers, setting, br.setting.value, br.state.amplitudes)
        rho = rho + br.weight * np.outer(joint, joint.conj())
    return rho


def reference_entropy(ensemble, name):
    """Base-2 entropy of the partial trace of the joint density over every register but one."""
    rho = reference_density(ensemble)
    dims = [1 << w for _, w in ensemble.layout.registers]
    position = ensemble.layout.names.index(name)
    moved = np.moveaxis(rho.reshape(dims + dims), [position, len(dims) + position], [0, 1])
    rest = rho.shape[0] // dims[position]
    reduced = np.trace(moved.reshape(dims[position], dims[position], rest, rest), axis1=2, axis2=3)
    eig = np.linalg.eigvalsh(reduced)
    eig = eig[eig > 1e-12]
    return float(-(eig * np.log2(eig)).sum())


@pytest.mark.parametrize("case", CASES)
def test_readouts_match_reference(case):
    names = list(case.layout.names)
    orders = [[name] for name in names] + [names[::-1], names[1:] + names[:1]]
    check_readouts(case, random_ensemble(case, 3), orders)


def sparse_weighted_ensemble(case, seed):
    """Random non-uniform weights, one of them exactly zero, and about half the amplitudes exactly zero."""
    rng = np.random.default_rng(seed)
    dim = case.layout.state_dim
    weights = rng.dirichlet(np.ones(len(case.settings)))
    if len(weights) > 1:
        weights[0] = 0.0
        weights /= weights.sum()
    rows = []
    for _ in case.settings:
        vec = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * (rng.random(dim) < 0.5)
        vec[rng.integers(dim)] = 1.0
        rows.append(vec / np.linalg.norm(vec))
    return make_ensemble(case.layout, case.settings, rows, weights)


@pytest.mark.parametrize("case", CASES)
def test_readouts_match_reference_with_weights_and_zero_cells(case):
    ensemble = sparse_weighted_ensemble(case, 5)
    names = list(case.layout.names)
    setting = case.layout.setting_register
    others = [name for name in names if name != setting][::-1]
    middle = others[: len(others) // 2] + [setting] + others[len(others) // 2 :]
    orders = [[name] for name in names] + [names[::-1], middle, names]
    check_readouts(case, ensemble, orders)
    # the zero cells are dropped, not kept with probability 0
    full = ol.measure_register(ensemble, *names)
    assert len(full.entries) < len(case.settings) * case.layout.state_dim
    assert all(p > 1e-15 for _, p in full.entries)


@pytest.mark.parametrize("case", CASES)
def test_rank_one_inversion_equals_the_dense_block(case):
    rng = np.random.default_rng(13)
    layout = case.layout
    rows = rng.normal(size=(4, layout.state_dim)) + 1j * rng.normal(size=(4, layout.state_dim))
    view = rows.reshape((4,) + layout.state_shape)
    for name, width in layout.state_registers:
        dim, axis = 1 << width, 1 + layout.axis(name)
        dense = np.moveaxis(np.tensordot(2.0 / dim - np.eye(dim), view, axes=([1], [axis])), 0, axis)
        out = circuits.inversion_about_mean(name).act(layout, rows)
        assert np.allclose(out, dense.reshape(rows.shape), atol=1e-12, rtol=0.0), name


# (registers, branches, register): K, the register's rows by every other axis, is
# wider than tall in the first case (Gram K K^H) and taller than wide in the others (K^H K)
GRAM_CASES = [
    pytest.param((("B", 3), ("A", 2), ("V", 1)), 8, "A", id="more-branches-than-register-dim"),
    pytest.param((("B", 2), ("A", 4), ("V", 1)), 3, "A", id="fewer-branches-than-register-dim"),
    pytest.param((("A", 1), ("B", 2), ("V", 3)), 2, "V", id="fewer-branches-setting-in-the-middle"),
]


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("registers, count, name", GRAM_CASES)
def test_reduced_entropy_on_both_gram_sides(registers, count, name, kind):
    layout = RegisterLayout(registers, "B")
    rng = np.random.default_rng(count)
    rows = rng.normal(size=(count, layout.state_dim))
    if kind == "complex":
        rows = rows + 1j * rng.normal(size=rows.shape)
    ids = sorted(rng.choice(1 << layout.width("B"), size=count, replace=False))
    settings = [BitString(int(v), layout.width("B")) for v in ids]
    ensemble = make_ensemble(layout, settings, rows / np.linalg.norm(rows, axis=1, keepdims=True),
                             rng.dirichlet(np.ones(count)))
    height = 1 << layout.width(name)
    gram = qstate._reduced_gram(ensemble, name)
    assert gram.shape == (min(height, count * layout.state_dim // height),) * 2
    assert gram.dtype == (np.float64 if kind == "real" else np.complex128)
    assert abs(ol.reduced_entropy(ensemble, name) - reference_entropy(ensemble, name)) <= 1e-12


class TestOutcomeDistribution:
    VALUES, PROBS = (3, 0, 2), (0.5, 0.25, 0.25)
    # bad inputs, each with the BitString or distribution message it raises
    MESSAGES = {
        ((1, 1), (0.5, 0.5)): "outcomes must be distinct",
        ((0, 4), (0.5, 0.5)): "value 4 does not fit in 2 bits",
        ((-1, 0), (0.5, 0.5)): "value -1 does not fit in 2 bits",
        ((0, 1), (1.5, -0.5)): "probability 1.5 for outcome 00 is out of range",
        ((0, 1), (0.5, 0.25)): "probabilities sum to 0.75, not 1",
    }

    def test_input_order_is_normalized(self):
        dist = ol.OutcomeDistribution(self.VALUES, self.PROBS, 2)
        assert dist.values == (0, 2, 3) and dist.probs == (0.25, 0.25, 0.5)
        assert dist == ol.OutcomeDistribution(self.VALUES[::-1], self.PROBS[::-1], 2)

    def test_probability_lookup(self):
        dist = ol.OutcomeDistribution(self.VALUES, self.PROBS, 2)
        assert dist.probability("11") == 0.5 and dist.probability(BitString(0, 2)) == 0.25
        assert dist.probability("01") == 0.0
        assert dist.probability("011") == 0.0  # same value, other width
        assert ol.OutcomeDistribution([1], [1.0], 1).probability("0") == 0.0

    @pytest.mark.parametrize("p", [-0.25, 1.25, float("nan")])
    def test_out_of_range_probability_raises(self, p):
        with pytest.raises(ValueError, match="out of range|sum"):
            ol.OutcomeDistribution([0, 1], [p, 1.0 - p], 2)

    def test_out_of_range_probability_message(self):
        with pytest.raises(ValueError, match=r"probability -0.5 for outcome 000 is out of range"):
            ol.OutcomeDistribution([1, 0], [1.5, -0.5], 3)

    def test_duplicates_and_sum_raise(self):
        with pytest.raises(ValueError, match="distinct"):
            ol.OutcomeDistribution([1, 1], [0.5, 0.5], 2)
        with pytest.raises(ValueError, match="sum"):
            ol.OutcomeDistribution([1], [0.5], 2)
        with pytest.raises(ValueError, match="sum"):
            ol.OutcomeDistribution([], [], 2)
        with pytest.raises(ValueError, match="1 probabilities for 2 outcomes"):
            ol.OutcomeDistribution([0, 1], [1.0], 2)

    @pytest.mark.parametrize("values, probs, width", [(list(v), list(p), 2) for v, p in MESSAGES])
    def test_array_route_shares_the_checks_and_messages(self, values, probs, width):
        """The one constructor, which measure_register also calls, raises the exact message."""
        with pytest.raises(ValueError) as raised:
            ol.OutcomeDistribution(values, probs, width)
        assert str(raised.value) == self.MESSAGES[tuple(values), tuple(probs)]

    REJECTIONS = {
        **MESSAGES,
        ((0, 1), (1.0,)): "1 probabilities for 2 outcomes",
        ((3, 1), (1.5, -0.5)): "probability -0.5 for outcome 01 is out of range",
        ((1, 0), (math.nan, 0.5)): "probabilities sum to nan, not 1",
    }

    @pytest.mark.parametrize("values, probs, message", [(v, p, m) for (v, p), m in REJECTIONS.items()])
    def test_tuple_and_array_inputs_raise_one_message(self, values, probs, message):
        for wrap in (tuple, np.array):
            with pytest.raises(ValueError) as raised:
                ol.OutcomeDistribution(wrap(values), wrap(probs), 2)
            assert str(raised.value) == message, wrap

    def test_array_route_equals_the_constructor(self):
        case = make_case(0, "middle", True)
        dist = ol.measure_register(random_ensemble(case, 1), *case.layout.names[::-1])
        assert ol.OutcomeDistribution(dist.values[::-1], dist.probs[::-1], dist.width) == dist
        width = dist.width
        assert dist.entries == tuple((BitString(v, width), p) for v, p in zip(dist.values, dist.probs))


class TestBitStringFastPath:
    @pytest.mark.parametrize("value, width", [(4, 2), (-1, 3), (0, 0), (1 << 24, 24)])
    def test_constructor_still_rejects_out_of_range(self, value, width):
        with pytest.raises(ValueError):
            BitString(value, width)


class ForwardingStage:
    """Wraps a stage and forwards what it does not define, as tracing wrappers do."""

    def __init__(self, stage):
        self._stage = stage

    def __getattr__(self, name):
        return getattr(self._stage, name)


class ScalingStage:
    """A stage-like object whose action is not norm-preserving."""

    label = "scale"

    def setting_relabel(self, layout):
        return None

    def act(self, layout, rows, settings=None):
        return 1.1 * rows


class LastRowStage(ScalingStage):
    """Scales the last row only, so only a check of every row sees it."""

    def __init__(self, factor):
        self.factor = factor

    def act(self, layout, rows, settings=None):
        out = np.array(rows)
        out[-1] *= self.factor
        return out


class TestApplyStageCallers:
    def test_forwarding_wrapper_is_accepted(self):
        case = make_case(1, "middle", True)
        ensemble = random_ensemble(case, 1)
        for stage in case.stages:
            direct = ol.apply_stage(ensemble, stage)
            wrapped = ol.apply_stage(ensemble, ForwardingStage(stage))
            assert ol.ensembles_close(direct, wrapped)

    def test_norm_drift_raises(self):
        case = make_case(2, "first", False)
        with pytest.raises(ValueError, match="norm-preserving"):
            ol.apply_stage(random_ensemble(case, 2), ScalingStage())

    def test_one_row_drift_raises(self):
        case = make_case(1, "middle", True)
        ensemble = random_ensemble(case, 2)
        assert len(ensemble.settings) > 1
        with pytest.raises(ValueError, match="not norm-preserving"):
            ol.apply_stage(ensemble, LastRowStage(1.0 + 1e-8))

    def test_output_is_what_the_constructor_makes(self):
        """The one norm pass keeps drift within ATOL, and the output needs no second check."""
        case = make_case(1, "middle", True)
        ensemble = random_ensemble(case, 2)
        out = ol.apply_stage(ensemble, LastRowStage(1.0 + 1e-10))
        rebuilt = ol.BranchEnsemble(out.layout, out.settings, out.weights, out.amplitudes)
        assert ol.ensembles_close(out, rebuilt, atol=0.0) and out.settings is ensemble.settings
        assert not out.amplitudes.flags.writeable and out.amplitudes.flags.c_contiguous

    def test_wrong_shape_raises(self):
        class Truncating(ScalingStage):
            def act(self, layout, rows, settings=None):
                return rows[:, :-1]

        case = make_case(2, "first", False)
        with pytest.raises(ValueError, match="returned shape"):
            ol.apply_stage(random_ensemble(case, 2), Truncating())


def bits(text):
    return BitString.from_text(text)


def single(layout, setting):
    return make_ensemble(layout, [setting], [PureState.basis(layout, {}).amplitudes])


class TestKernelErrors:
    LAYOUT = RegisterLayout((("B", 2), ("A", 2), ("V", 1)), "B")

    def assert_both_raise(self, stage, setting=bits("01"), match=None):
        with pytest.raises(ValueError, match=match):
            stage.unitary(self.LAYOUT, setting)
        with pytest.raises(ValueError, match=match):
            ol.apply_stage(single(self.LAYOUT, setting), stage)

    def test_unknown_register(self):
        self.assert_both_raise(circuits.hadamard("Z"), match="unknown register")

    def test_unitary_stage_on_setting_register(self):
        self.assert_both_raise(circuits.hadamard("B"), match="setting register")

    def test_oracle_without_setting(self, grover2):
        with pytest.raises(ValueError, match="setting"):
            circuits.oracle_xor(grover2).unitary(self.LAYOUT)
        with pytest.raises(ValueError, match="setting"):
            circuits.oracle_phase(grover2).unitary(self.LAYOUT)

    def test_target_width_differs_from_out_bits(self, grover2):
        self.assert_both_raise(circuits.oracle_xor(grover2, target="A"), match="target")

    def test_argument_width_differs_from_arg_bits(self, grover2):
        layout = RegisterLayout((("B", 2), ("A", 3), ("V", 1)), "B")
        for stage in (circuits.oracle_xor(grover2), circuits.oracle_phase(grover2)):
            with pytest.raises(ValueError, match="arg_bits"):
                stage.unitary(layout, bits("01"))
            with pytest.raises(ValueError, match="arg_bits"):
                ol.apply_stage(single(layout, bits("01")), stage)

    def test_phase_oracle_needs_one_bit_function(self):
        simon3 = ol.build_simon(3)
        layout = RegisterLayout((("B", simon3.setting_width), ("A", 3)), "B")
        b = simon3.setting_ids()[0]
        with pytest.raises(ValueError, match="one-bit"):
            circuits.oracle_phase(simon3).unitary(layout, b)
        with pytest.raises(ValueError, match="one-bit"):
            ol.apply_stage(single(layout, b), circuits.oracle_phase(simon3))

    def test_branch_setting_not_in_problem(self, grover2):
        # an absent id, and a wrong-width id whose value is one of the problem's
        layout = RegisterLayout((("B", 3), ("A", 2), ("V", 1)), "B")
        for bad in (bits("101"), BitString(1, 3)):
            message = f"^unknown setting {bad} for problem 'grover'$"
            with pytest.raises(ValueError, match=message):
                ol.apply_stage(single(layout, bad), circuits.oracle_xor(grover2))
            with pytest.raises(ValueError, match=message):
                circuits.oracle_phase(grover2).unitary(layout, bad)

    def test_matrix_cap(self, grover2):
        wide = RegisterLayout((("B", 2), ("A", 10), ("V", 1)), "B")
        circuit = circuits.make_circuit("wide", wide, grover2, (circuits.hadamard("A"),))
        message = f"state width 11 exceeds the stage-matrix cap of {circuits.MAX_MATRIX_WIDTH}"
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            circuits.hadamard("A").unitary(wide)
        with pytest.raises(ValueError, match=message):
            circuits.composed_unitary(circuit, bits("01"))
        assert time.perf_counter() - start < 1.0
        at_cap = RegisterLayout((("B", 2), ("A", 10)), "B")
        assert circuits.bitwise_not("A").unitary(at_cap).shape == (1024, 1024)

    def test_relabeling_stage_has_no_matrix(self):
        with pytest.raises(ValueError, match="relabels"):
            circuits.bitwise_not("B").unitary(self.LAYOUT)

    def test_register_size_mismatches(self):
        self.assert_both_raise(circuits.custom("A", np.eye(2)))
        self.assert_both_raise(circuits.permutation("A", (1, 0)), match="values")
        self.assert_both_raise(circuits.permutation("A", tuple(range(8))), match="values")
