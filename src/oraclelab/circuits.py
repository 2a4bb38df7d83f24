"""Staged circuits over a register layout, with stage-by-stage execution.

Built-ins: the n=2 hidden-index search (Hadamard, xor oracle, inversion about
the mean), the constant-vs-balanced circuit (Hadamard, oracle, Hadamard) and a
single-query xor-period circuit for n=2 that appends a basis permutation.
Register V is prepared in the minus state so the xor oracle acts as a phase
flip on the argument register.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .oracle import OracleProblem, build_grover, build_simon
from .qstate import (
    ATOL,
    BitString,
    BranchEnsemble,
    PureState,
    RegisterLayout,
    apply_stage,
    measure_register,
    prepare_setting,
)

ORACLE_KINDS = ("oracle_xor", "oracle_phase")
MAX_MATRIX_WIDTH = 10  # a dense stage matrix over 2^10 basis states takes 16 MiB


def _check_matrix_width(layout: RegisterLayout) -> None:
    if layout.state_width > MAX_MATRIX_WIDTH:
        raise ValueError(f"state width {layout.state_width} exceeds the stage-matrix cap of {MAX_MATRIX_WIDTH}")


@dataclass(frozen=True, eq=False)
class Stage:
    """One named unitary step; oracle kinds read the branch setting."""

    kind: str
    label: str
    register: str | None = None
    target: str | None = None
    problem: OracleProblem | None = None
    mapping: tuple[int, ...] | None = None
    matrix: np.ndarray | None = None

    def setting_relabel(self, layout: RegisterLayout) -> Callable[[BitString], BitString] | None:
        setting = layout.setting_register
        if self.kind == "bitwise_not" and self.register == setting:
            return lambda b: ~b
        if setting is not None and setting in (self.register, self.target):
            raise ValueError(f"stage {self.label!r} may not act on the setting register")
        return None

    def unitary(self, layout: RegisterLayout, setting: BitString | None = None) -> np.ndarray:
        """The stage matrix for one setting: the kernel applied to the identity columns."""
        _check_matrix_width(layout)
        identity = np.eye(layout.state_dim)
        return self.act(layout, identity, None if setting is None else (setting,)).T

    def act(
        self,
        layout: RegisterLayout,
        rows: np.ndarray,
        settings: Sequence[BitString] | None = None,
    ) -> np.ndarray:
        """Apply the stage to a batch of state vectors, one row per branch.

        The rows, of shape (branches, state_dim), are viewed as
        (branches, *register dims) in layout order, and the stage acts on its
        register's axis with one numpy operation for the whole batch.  Oracle
        kinds read one setting per row; a single setting serves every row.
        """
        if self.setting_relabel(layout) is not None:
            raise ValueError(f"stage {self.label!r} relabels settings and has no state matrix")
        view = rows.reshape((len(rows),) + layout.state_shape)
        axis = 1 + layout.axis(self.register)
        dim = view.shape[axis]
        if self.kind in ("hadamard", "inversion_about_mean", "custom"):
            # the block multiplies the register axis, the axes after it merged into one
            block, merged = self._block(dim), view.reshape(view.shape[: axis + 1] + (-1,))
            if block.dtype.kind == "f" and merged.dtype.kind == "c":
                # a real block acts on real and imaginary parts alike: one real product
                # over the interleaved float64 view instead of a real-by-complex one
                out = np.matmul(block, np.ascontiguousarray(merged).view(np.float64)).view(np.complex128)
            else:
                out = np.matmul(block, merged)
            if self.kind == "inversion_about_mean":
                out = 2.0 * out - merged  # (2/dim) J - I as a rank-one update: the block is the mean row
        elif self.kind == "permutation":
            if len(self.mapping) != dim:
                raise ValueError(f"permutation {self.label!r} has {len(self.mapping)} values, register {dim}")
            out = np.take(view, np.argsort(self.mapping), axis=axis)
        elif self.kind == "bitwise_not":
            out = np.flip(view, axis)  # v -> v ^ (dim - 1) reverses the value order
        elif self.kind == "oracle_xor":
            out = self._oracle_xor(layout, view, axis, self._table(layout, settings))
        elif self.kind == "oracle_phase":
            table = self._table(layout, settings)
            if self.problem.out_bits != 1:
                raise ValueError("phase oracle requires a one-bit function")
            out = view * np.expand_dims(1 - 2 * table, _other_axes(view, axis))
        else:
            raise ValueError(f"unknown stage kind {self.kind!r}")
        return out.reshape(rows.shape)

    def _block(self, dim: int) -> np.ndarray:
        if self.kind == "hadamard":
            return _hadamard(dim)
        if self.kind == "inversion_about_mean":
            return np.full((1, dim), 1.0 / dim)
        return self.matrix

    def _oracle_xor(self, layout: RegisterLayout, view: np.ndarray, axis: int, table: np.ndarray) -> np.ndarray:
        target_axis = 1 + layout.axis(self.target)
        if target_axis == axis:
            raise ValueError(f"oracle {self.label!r} needs distinct argument and target registers")
        width = layout.width(self.target)
        if width != self.problem.out_bits:
            raise ValueError(
                f"oracle target {self.target!r} has width {width}, "
                f"function outputs {self.problem.out_bits} bits"
            )
        # new[.., a, .., u, ..] = old[.., a, .., u ^ f(a), ..]
        source = table[:, :, None] ^ np.arange(1 << width)
        if target_axis < axis:
            source = source.swapaxes(1, 2)
        source = np.expand_dims(source, _other_axes(view, axis, target_axis))
        return np.take_along_axis(view, source, axis=target_axis)

    def _table(self, layout: RegisterLayout, settings: Sequence[BitString] | None) -> np.ndarray:
        """f_b(a) as ints, one row per setting."""
        if settings is None:
            raise ValueError("oracle stages need the branch setting")
        arg_width = layout.width(self.register)
        if arg_width != self.problem.arg_bits:
            raise ValueError(f"argument width {arg_width} != arg_bits {self.problem.arg_bits}")
        problem = self.problem
        return problem.values[[problem.row(b) for b in settings]]


def _other_axes(view: np.ndarray, *kept: int) -> tuple[int, ...]:
    """The register axes of the view other than the kept ones."""
    return tuple(i for i in range(1, view.ndim) if i not in kept)


@functools.lru_cache(maxsize=16)
def _hadamard(dim: int) -> np.ndarray:
    h = np.array([[1.0]])
    while len(h) < dim:
        h = np.kron(h, [[1.0, 1.0], [1.0, -1.0]])
    h /= np.sqrt(dim)
    h.setflags(write=False)
    return h


def hadamard(register: str = "A") -> Stage:
    return Stage("hadamard", f"H({register})", register=register)


def oracle_xor(problem: OracleProblem, register: str = "A", target: str = "V") -> Stage:
    return Stage("oracle_xor", "Uf", register=register, target=target, problem=problem)


def oracle_phase(problem: OracleProblem, register: str = "A") -> Stage:
    return Stage("oracle_phase", "Uf-phase", register=register, problem=problem)


def inversion_about_mean(register: str = "A") -> Stage:
    return Stage("inversion_about_mean", f"Inv({register})", register=register)


def permutation(register: str, mapping: Sequence[int], label: str = "perm") -> Stage:
    mapping = tuple(mapping)
    if sorted(mapping) != list(range(len(mapping))):
        raise ValueError(f"permutation map must be a bijection, got {mapping}")
    return Stage("permutation", label, register=register, mapping=mapping)


def bitwise_not(register: str) -> Stage:
    return Stage("bitwise_not", f"NOT({register})", register=register)


def custom(register: str, matrix: np.ndarray, label: str = "custom") -> Stage:
    matrix = np.array(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("custom stage needs a square matrix")
    deviation = np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])))
    if deviation > ATOL:
        raise ValueError(f"custom stage matrix is not unitary (deviation {deviation:.3e})")
    matrix.setflags(write=False)
    return Stage("custom", label, register=register, matrix=matrix)


@dataclass(frozen=True, eq=False)
class Circuit:
    """Ordered stages over a fixed layout, bound to the problem they solve."""

    name: str
    layout: RegisterLayout
    problem: OracleProblem
    stages: tuple[Stage, ...]
    v_register: str | None = "V"

    def __post_init__(self) -> None:
        if self.layout.setting_register is None:
            raise ValueError("circuit layout must designate the setting register")
        if self.v_register is not None and self.v_register in self.layout.names:
            if self.layout.width(self.v_register) != 1:
                raise ValueError("the minus-state register must be one bit wide")

    @functools.cached_property
    def query_indices(self) -> tuple[int, ...]:
        """Positions of the oracle stages."""
        return tuple(i for i, st in enumerate(self.stages) if st.kind in ORACLE_KINDS)


def make_circuit(
    name: str,
    layout: RegisterLayout,
    problem: OracleProblem,
    stages: Iterable[Stage],
    v_register: str | None = "V",
) -> Circuit:
    stages = tuple(stages)
    return Circuit(name, layout, problem, stages, v_register)


@dataclass(frozen=True, eq=False)
class StageTrace:
    """Ensembles at every stage boundary; the first entry is the input."""

    circuit: Circuit
    ensembles: tuple[BranchEnsemble, ...]

    @property
    def final(self) -> BranchEnsemble:
        return self.ensembles[-1]


def initial_state(circuit: Circuit) -> PureState:
    factors: dict[str, np.ndarray] = {}
    for name, width in circuit.layout.state_registers:
        if name == circuit.v_register:
            factors[name] = np.array([1.0, -1.0]) / np.sqrt(2.0)
        else:
            vec = np.zeros(1 << width)
            vec[0] = 1.0
            factors[name] = vec
    return PureState.product(circuit.layout, factors)


def initial_ensemble(circuit: Circuit) -> BranchEnsemble:
    """Uniform mixture over the problem's settings, solver registers cleared; built once per circuit."""
    ensemble = getattr(circuit, "_initial", None)
    if ensemble is None:
        ensemble = BranchEnsemble.uniform(circuit.layout, circuit.problem.setting_ids(), initial_state(circuit))
        object.__setattr__(circuit, "_initial", ensemble)
    return ensemble


def run(circuit: Circuit, ensemble: BranchEnsemble) -> StageTrace:
    """Apply the stages in order; branch settings are never altered."""
    if ensemble.layout.registers != circuit.layout.registers:
        raise ValueError("ensemble layout does not match the circuit layout")
    if ensemble.layout.setting_register != circuit.layout.setting_register:
        raise ValueError("ensemble and circuit disagree on the setting register")
    states = [ensemble]
    for stage in circuit.stages:
        states.append(apply_stage(states[-1], stage))
    return StageTrace(circuit, tuple(states))


def composed_unitary(circuit: Circuit, setting: BitString) -> np.ndarray:
    """Product of all stage matrices for one setting (last stage leftmost)."""
    _check_matrix_width(circuit.layout)
    matrix = np.eye(circuit.layout.state_dim, dtype=np.complex128)
    for stage in circuit.stages:
        matrix = stage.unitary(circuit.layout, setting) @ matrix
    return matrix


def grover_circuit() -> Circuit:
    problem = build_grover(2)
    layout = RegisterLayout((("B", 2), ("A", 2), ("V", 1)), "B")
    stages = (hadamard("A"), oracle_xor(problem), inversion_about_mean("A"))
    return make_circuit("grover-n2", layout, problem, stages)


def dj_circuit_for(problem: OracleProblem) -> Circuit:
    layout = RegisterLayout(
        (("B", problem.setting_width), ("A", problem.arg_bits), ("V", 1)), "B"
    )
    stages = (hadamard("A"), oracle_xor(problem), hadamard("A"))
    return make_circuit(f"dj-n{problem.arg_bits}", layout, problem, stages)


def dj_circuit(n: int) -> Circuit:
    from .oracle import build_dj

    return dj_circuit_for(build_dj(n))


def simon1q_circuit() -> Circuit:
    problem = build_simon(2)
    layout = RegisterLayout((("B", 4), ("A", 2), ("V", 1)), "B")
    # swaps the middle basis vectors |01> and |10> of register A
    stages = (
        hadamard("A"),
        oracle_xor(problem),
        hadamard("A"),
        permutation("A", (0, 2, 1, 3), "P(A)"),
    )
    return make_circuit("simon1q-n2", layout, problem, stages)


def builtin_circuit(kind: str, n: int) -> Circuit:
    """The staged circuit shipped for a problem selector kind, if one exists."""
    if kind == "grover":
        if n != 2:
            raise ValueError("a built-in search circuit exists only for n=2")
        return grover_circuit()
    if kind == "dj":
        return dj_circuit(n)
    if kind == "simon":
        if n != 2:
            raise ValueError("a built-in single-query period circuit exists only for n=2")
        return simon1q_circuit()
    raise ValueError(f"no built-in circuit for problem kind {kind!r}")


def _check_problem(circuit: Circuit, problem: OracleProblem) -> None:
    """Raise unless ``problem`` equals the problem the circuit is bound to."""
    if problem is not circuit.problem and problem != circuit.problem:
        raise ValueError(f"problem {problem.name!r} is not the problem of circuit {circuit.name!r}")


def derive_a_outcome(circuit: Circuit, problem: OracleProblem, b: BitString) -> BitString:
    """The basis label left in register A when the circuit runs on setting b.

    ``problem`` must be the circuit's own problem.  Raises when the output
    A-state is not a basis state (up to global phase), which signals that the
    circuit does not leave a sharp per-setting outcome for this problem.
    """
    _check_problem(circuit, problem)
    problem.row(b)
    branch = prepare_setting(initial_ensemble(circuit), b)
    dist = measure_register(run(circuit, branch).final, "A")
    p = max(dist.probs)
    if abs(p - 1.0) > ATOL:
        raise ValueError(
            f"output state of register A is not sharp for setting {b.text} "
            f"(largest outcome probability {p:.6f})"
        )
    return BitString(dist.values[dist.probs.index(p)], dist.width)


def trace_records(trace: StageTrace, threshold: float = 1e-12) -> list[dict]:
    """JSON-ready stage-by-stage amplitudes; entries below the threshold are omitted."""
    layout = trace.circuit.layout
    labels = ["input"] + [st.label for st in trace.circuit.stages]
    records = []
    for label, ensemble in zip(labels, trace.ensembles):
        branches = []
        for setting, weight, row in zip(ensemble.settings, ensemble.weights, ensemble.amplitudes):
            amplitudes = [
                [layout.state_label(i), float(a.real), float(a.imag)]
                for i, a in enumerate(row)
                if abs(a) > threshold
            ]
            branches.append(
                {"setting": setting.text, "weight": weight, "amplitudes": amplitudes}
            )
        records.append({"stage": label, "branches": branches})
    return records
