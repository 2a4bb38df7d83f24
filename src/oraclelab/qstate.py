"""Setting-labeled ensembles of pure register states, with measurements and entropies.

The hidden problem setting is carried as a classical branch label: a
:class:`BranchEnsemble` is a weighted mixture of pure states, one branch per
setting.  Mixing uniformly over independent per-branch phases produces exactly
the same density operator, which :func:`sampled_phase_density` verifies by
Monte-Carlo averaging; the mixture form is the primary representation because
it keeps every operation exact and deterministic.

All values are immutable once constructed and safe to share between readers.
Comparisons use an absolute tolerance of ``ATOL`` unless stated otherwise.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

ATOL = 1e-9
EIG_FLOOR = 1e-12
MAX_TOTAL_WIDTH = 24


@dataclass(frozen=True, order=True, slots=True)
class BitString:
    """An unsigned value with an explicit bit width.

    The text form is big-endian: the leftmost character is the highest bit,
    so ``BitString.from_text("0011")`` has value 3 and width 4.  Ordering is
    by value, which gives the canonical ordering used throughout.
    """

    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(int(text, 2), len(text))

    @property
    def text(self) -> str:
        return format(self.value, f"0{self.width}b")

    def bit(self, position: int) -> int:
        """Bit at a text position, 0 being the leftmost."""
        if not 0 <= position < self.width:
            raise IndexError(f"bit position {position} out of range for width {self.width}")
        return (self.value >> (self.width - 1 - position)) & 1

    def __invert__(self) -> "BitString":
        return BitString(self.value ^ ((1 << self.width) - 1), self.width)

    def __str__(self) -> str:
        return self.text


_set_value = BitString.__dict__["value"].__set__
_set_width = BitString.__dict__["width"].__set__


def _unchecked_bits(values: list[int], width: int) -> list[BitString]:
    """BitStrings of one width built without ``__post_init__``, for values already range-checked.

    The slots are filled by C-level ``map`` calls, with no Python frame per object; the
    setters return None, so ``any`` runs each map to its end.
    """
    bits = list(map(object.__new__, itertools.repeat(BitString, len(values))))
    any(map(_set_value, bits, values))
    any(map(_set_width, bits, itertools.repeat(width)))
    return bits


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers; at most one is the setting register.

    The setting register holds the branch label of an ensemble and is not part
    of the stored state vectors.  Basis indices over the remaining (state)
    registers are register-major and big-endian within each register: the last
    register occupies the least significant bits.
    """

    registers: tuple[tuple[str, int], ...]
    setting_register: str | None = None

    def __post_init__(self) -> None:
        names = [name for name, _ in self.registers]
        if not names:
            raise ValueError("layout needs at least one register")
        if len(set(names)) != len(names):
            raise ValueError(f"register names must be unique: {names}")
        for name, width in self.registers:
            if not name:
                raise ValueError("register names must be nonempty")
            if width < 1:
                raise ValueError(f"register {name!r} must be at least one bit wide")
        if self.total_width > MAX_TOTAL_WIDTH:
            raise ValueError(
                f"total width {self.total_width} exceeds the desk-scale cap of {MAX_TOTAL_WIDTH}"
            )
        if self.setting_register is not None and self.setting_register not in names:
            raise ValueError(f"setting register {self.setting_register!r} is not in the layout")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    @property
    def total_width(self) -> int:
        return sum(width for _, width in self.registers)

    @functools.cached_property
    def state_registers(self) -> tuple[tuple[str, int], ...]:
        return tuple((n, w) for n, w in self.registers if n != self.setting_register)

    @property
    def state_width(self) -> int:
        return sum(w for _, w in self.state_registers)

    @property
    def state_dim(self) -> int:
        return 1 << self.state_width

    @functools.cached_property
    def state_shape(self) -> tuple[int, ...]:
        """Register dimensions of a state vector viewed as a tensor, in layout order."""
        return tuple(1 << w for _, w in self.state_registers)

    def axis(self, name: str) -> int:
        """Position of a state register among the axes of ``state_shape``."""
        for i, (n, _) in enumerate(self.state_registers):
            if n == name:
                return i
        raise ValueError(f"unknown register {name!r}")

    def width(self, name: str) -> int:
        for n, w in self.registers:
            if n == name:
                return w
        raise ValueError(f"unknown register {name!r}")

    def state_only(self) -> "RegisterLayout":
        """The layout of the stored state vectors (setting register dropped)."""
        if self.setting_register is None:
            return self
        return RegisterLayout(self.state_registers, None)

    def _state_shift(self, name: str) -> tuple[int, int]:
        shift = 0
        found = None
        for n, w in reversed(self.state_registers):
            if n == name:
                found = (shift, w)
            shift += w
        if found is None:
            raise ValueError(f"unknown state register {name!r}")
        return found

    def extract(self, name: str, index: int) -> int:
        """Value of one register inside a state basis index."""
        shift, width = self._state_shift(name)
        return (index >> shift) & ((1 << width) - 1)

    def state_index(self, assignment: Mapping[str, "int | BitString"]) -> int:
        index = 0
        seen = set(assignment)
        for name, width in self.state_registers:
            raw = assignment.get(name, 0)
            seen.discard(name)
            value = raw.value if isinstance(raw, BitString) else int(raw)
            if not 0 <= value < (1 << width):
                raise ValueError(f"value {value} does not fit register {name!r}")
            index = (index << width) | value
        if seen:
            raise ValueError(f"unknown registers in assignment: {sorted(seen)}")
        return index

    def state_label(self, index: int) -> str:
        """Space-separated per-register bit texts for a state basis index."""
        parts = []
        for name, width in self.state_registers:
            parts.append(format(self.extract(name, index), f"0{width}b"))
        return " ".join(parts)


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized dense state vector over the non-setting registers."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.layout.setting_register is not None:
            raise ValueError("pure states live on the state registers only")
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.layout.state_dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.layout.state_dim},)"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state norm {norm!r} is not 1 within {ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, layout: RegisterLayout, assignment: Mapping[str, "int | BitString"]) -> "PureState":
        layout = layout.state_only()
        amps = np.zeros(layout.state_dim, dtype=np.complex128)
        amps[layout.state_index(assignment)] = 1.0
        return cls(layout, amps)

    @classmethod
    def product(cls, layout: RegisterLayout, factors: Mapping[str, Sequence[complex]]) -> "PureState":
        """Tensor product of one factor vector per register, in layout order."""
        layout = layout.state_only()
        vec = np.array([1.0], dtype=np.complex128)
        for name, width in layout.state_registers:
            if name not in factors:
                raise ValueError(f"missing factor for register {name!r}")
            factor = np.asarray(factors[name], dtype=np.complex128)
            if factor.shape != (1 << width,):
                raise ValueError(f"factor for {name!r} has wrong dimension")
            vec = np.kron(vec, factor)
        vec = vec / np.linalg.norm(vec)
        return cls(layout, vec)


@dataclass(frozen=True, eq=False)
class Branch:
    setting: BitString
    weight: float
    state: PureState


@dataclass(frozen=True, eq=False)
class BranchEnsemble:
    """A classical mixture of setting-labeled pure states.

    Branches are kept in canonical order (ascending setting value) and their
    weights sum to one.
    """

    layout: RegisterLayout
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        if self.layout.setting_register is None:
            raise ValueError("ensemble layout must designate a setting register")
        if not self.branches:
            raise ValueError("ensemble needs at least one branch")
        order = sorted(range(len(self.branches)), key=lambda i: self.branches[i].setting.value)
        branches = tuple(self.branches[i] for i in order)
        setting_width = self.layout.width(self.layout.setting_register)
        state_layout = self.layout.state_only()
        seen = set()
        total = 0.0
        for br in branches:
            if br.setting.width != setting_width:
                raise ValueError(
                    f"setting {br.setting} has width {br.setting.width}, register has {setting_width}"
                )
            if br.setting.value in seen:
                raise ValueError(f"duplicate setting {br.setting}")
            seen.add(br.setting.value)
            if br.weight < -ATOL:
                raise ValueError(f"negative branch weight {br.weight}")
            if br.state.layout.registers != state_layout.registers:
                raise ValueError("all branch states must share the ensemble's state layout")
            total += br.weight
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"branch weights sum to {total!r}, not 1")
        object.__setattr__(self, "branches", branches)

    @classmethod
    def uniform(
        cls, layout: RegisterLayout, settings: Iterable[BitString], state: PureState
    ) -> "BranchEnsemble":
        settings = tuple(settings)
        weight = 1.0 / len(settings)
        return cls(layout, tuple(Branch(s, weight, state) for s in settings))

    def settings(self) -> tuple[BitString, ...]:
        return tuple(br.setting for br in self.branches)

    def branch(self, setting: BitString) -> Branch:
        for br in self.branches:
            if br.setting == setting:
                return br
        raise ValueError(f"setting {setting} not present in the ensemble")


@dataclass(frozen=True)
class OutcomeDistribution:
    """A probability distribution over distinct basis outcomes, in ascending value order."""

    entries: tuple[tuple[BitString, float], ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries, key=lambda e: e[0].value))
        _check_distribution([o.value for o, _ in entries], [o.width for o, _ in entries], [p for _, p in entries])
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _from_arrays(cls, values: np.ndarray, probs: np.ndarray, width: int) -> "OutcomeDistribution":
        """The distribution of ascending outcome values of one width, checked once."""
        values, probs = values.tolist(), probs.tolist()
        _check_distribution(values, [width] * len(values), probs)
        dist = object.__new__(cls)
        object.__setattr__(dist, "entries", tuple(zip(_unchecked_bits(values, width), probs)))
        return dist

    def probability(self, outcome: "BitString | str") -> float:
        if isinstance(outcome, str):
            outcome = BitString.from_text(outcome)
        i = bisect.bisect_left(self.entries, outcome.value, key=lambda e: e[0].value)
        if i < len(self.entries) and self.entries[i][0] == outcome:
            return self.entries[i][1]
        return 0.0

    def as_dict(self) -> dict[str, float]:
        return {o.text: p for o, p in self.entries}


def _check_distribution(values: list[int], widths: list[int], probs: list[float]) -> None:
    """The one check of every :class:`OutcomeDistribution`: ascending values distinct and fitting
    their widths, each p in [-ATOL, 1 + ATOL], the sum 1 within ATOL.  C-level reductions over
    plain lists keep it cheap for tiny distributions and large ones alike."""
    if any(map(operator.ge, values, values[1:])):
        raise ValueError("outcomes must be distinct")
    # v >> w is nonzero exactly when v is negative or needs more than w bits
    if any(map(operator.rshift, values, widths)):
        for v, w in zip(values, widths):
            BitString(v, w)  # raises with the constructor's message
    if probs and (min(probs) < -ATOL or max(probs) > 1.0 + ATOL):
        for v, w, p in zip(values, widths, probs):
            if not -ATOL <= p <= 1.0 + ATOL:
                raise ValueError(f"probability {p!r} for outcome {format(v, f'0{w}b')} is out of range")
    total = sum(probs, 0.0)
    if not abs(total - 1.0) <= ATOL:  # also rejects a NaN anywhere
        raise ValueError(f"probabilities sum to {total!r}, not 1")


def _tensor(ensemble: BranchEnsemble) -> np.ndarray:
    """The branch states stacked and viewed as (branches, *register dims) in layout order."""
    rows = np.stack([br.state.amplitudes for br in ensemble.branches])
    return rows.reshape((len(rows),) + ensemble.layout.state_shape)


@runtime_checkable
class StageLike(Protocol):
    """What :func:`apply_stage` needs from a circuit stage."""

    label: str

    def setting_relabel(
        self, layout: RegisterLayout
    ) -> Callable[[BitString], BitString] | None: ...

    def act(
        self, layout: RegisterLayout, rows: np.ndarray, settings: Sequence[BitString] | None
    ) -> np.ndarray: ...


def apply_stage(ensemble: BranchEnsemble, stage: StageLike) -> BranchEnsemble:
    """Apply one stage to every branch.

    Ordinary stages act on the state registers only, on all branches at once;
    the action may depend on the branch setting (oracle stages read it).  The
    designated preparation stage on the setting register relabels branches
    instead.  Raises if a stage drifts any branch norm by more than ``ATOL``.
    """
    relabel = stage.setting_relabel(ensemble.layout)
    if relabel is not None:
        branches = tuple(Branch(relabel(br.setting), br.weight, br.state) for br in ensemble.branches)
        return BranchEnsemble(ensemble.layout, branches)
    before = np.stack([br.state.amplitudes for br in ensemble.branches])
    after = stage.act(ensemble.layout, before, ensemble.settings())
    drift = float(np.max(np.abs(np.linalg.norm(after, axis=1) - np.linalg.norm(before, axis=1))))
    if drift > ATOL:
        raise ValueError(f"stage {stage.label!r} is not norm-preserving (drift {drift:.3e})")
    state_layout = ensemble.branches[0].state.layout
    branches = tuple(
        Branch(br.setting, br.weight, PureState(state_layout, amps))
        for br, amps in zip(ensemble.branches, after)
    )
    return BranchEnsemble(ensemble.layout, branches)


def prepare_setting(ensemble: BranchEnsemble, outcome: BitString) -> BranchEnsemble:
    """Collapse onto the branch whose setting equals the measured outcome."""
    for br in ensemble.branches:
        if br.setting == outcome:
            return BranchEnsemble(ensemble.layout, (Branch(outcome, 1.0, br.state),))
    raise ValueError(f"setting {outcome} not present in the ensemble")


def project_setting_subset(ensemble: BranchEnsemble, subset: Iterable[BitString]) -> BranchEnsemble:
    """Keep only branches whose setting lies in the subset; renormalize weights.

    Models a partial readout of the setting register realized as subset
    selection.  Branch states are untouched.
    """
    wanted = frozenset(subset)
    kept = [br for br in ensemble.branches if br.setting in wanted]
    total = sum(br.weight for br in kept)
    if not kept or total <= ATOL:
        raise ValueError("projection onto the subset has probability zero")
    branches = tuple(Branch(br.setting, br.weight / total, br.state) for br in kept)
    return BranchEnsemble(ensemble.layout, branches)


def measure_register(ensemble: BranchEnsemble, *registers: str) -> OutcomeDistribution:
    """Born-rule outcome distribution of one or more registers.

    With several register names the outcomes are their bit texts concatenated
    in the given order; the setting register may be included and contributes
    the branch label.
    """
    if not registers:
        raise ValueError("need at least one register to measure")
    layout = ensemble.layout
    probs = np.abs(_tensor(ensemble)) ** 2
    probs *= _along([br.weight for br in ensemble.branches], 0, probs.ndim)
    # sum over the unmeasured axes; the branch axis stands for the setting register
    kept = list(dict.fromkeys(0 if n == layout.setting_register else 1 + layout.axis(n) for n in registers))
    probs = probs.sum(axis=tuple(i for i in range(probs.ndim) if i not in kept), keepdims=True)
    # every remaining cell has its own outcome value, built register by register
    values = np.zeros(probs.shape, dtype=np.int64)
    total_width = 0
    for name in registers:
        width = layout.width(name)
        if name == layout.setting_register:
            part = _along([br.setting.value for br in ensemble.branches], 0, probs.ndim)
        else:
            part = _along(np.arange(1 << width), 1 + layout.axis(name), probs.ndim)
        values = (values << width) | part
        total_width += width
    # with the kept axes in measured order, C order is ascending value order: branches
    # ascend by setting value and every other axis by its register value
    if kept != sorted(kept):
        order = kept + [i for i in range(probs.ndim) if i not in kept]
        probs, values = probs.transpose(order), values.transpose(order)
    nonzero = probs > 1e-15
    return OutcomeDistribution._from_arrays(values[nonzero], probs[nonzero], total_width)


def _along(values, axis: int, ndim: int) -> np.ndarray:
    """The values laid along one axis of an ndim-dimensional array, to broadcast against it."""
    return np.reshape(values, [-1 if i == axis else 1 for i in range(ndim)])


def _reduced_density(ensemble: BranchEnsemble, register: str) -> np.ndarray:
    """rho = K K^H in one product, K the sqrt(weight)-scaled branch states with the register
    axis first and the rest flattened; weights within ATOL below zero count as zero."""
    tensor = _tensor(ensemble)
    weights = np.sqrt(np.maximum([br.weight for br in ensemble.branches], 0.0))
    kept = np.moveaxis(tensor * _along(weights, 0, tensor.ndim), 1 + ensemble.layout.axis(register), 0)
    kept = kept.reshape(len(kept), -1)
    return kept @ kept.conj().T


def reduced_entropy(ensemble: BranchEnsemble, register: str) -> float:
    """Base-2 von Neumann entropy of one register's reduced density operator.

    All other registers (and the branch labels) are traced out of the weighted
    mixture; eigenvalues at or below ``EIG_FLOOR`` are treated as zero.
    """
    layout = ensemble.layout
    if register == layout.setting_register:
        eigenvalues = np.array([br.weight for br in ensemble.branches])
    else:
        eigenvalues = np.linalg.eigvalsh(_reduced_density(ensemble, register)).real
    eigenvalues = eigenvalues[eigenvalues > EIG_FLOOR]
    if eigenvalues.size == 0:
        return 0.0
    return float(-(eigenvalues * np.log2(eigenvalues)).sum())


def _shannon(weights: Iterable[float], total: float = 1.0) -> float:
    """-sum p log2 p over p = weight / total, summed in the given order, with 0 log 0 = 0."""
    entropy = 0.0
    for w in weights:
        if w > 0:
            p = w / total
            entropy -= p * math.log2(p)
    return entropy


def shannon_entropy(dist: OutcomeDistribution) -> float:
    """-sum p log2 p over the distribution, with 0 log 0 = 0."""
    return _shannon(p for _, p in dist.entries)


def _joint_rows(ensemble: BranchEnsemble) -> np.ndarray:
    """One joint vector |b>|psi_b> over all registers per branch, setting included."""
    layout = ensemble.layout
    tensor = _tensor(ensemble)
    settings = [br.setting.value for br in ensemble.branches]
    onehot = np.eye(1 << layout.width(layout.setting_register))[settings]
    joint = np.einsum("rs,r...->rs...", onehot, tensor)
    return np.moveaxis(joint, 1, 1 + layout.names.index(layout.setting_register)).reshape(len(tensor), -1)


def density_matrix(ensemble: BranchEnsemble) -> np.ndarray:
    """Exact joint density operator over all registers, setting included."""
    rows = _joint_rows(ensemble)
    weights = np.array([br.weight for br in ensemble.branches])
    return (rows.T * weights) @ rows.conj()


def sampled_phase_density(ensemble: BranchEnsemble, samples: int = 10_000, seed: int = 0) -> np.ndarray:
    """Monte-Carlo estimate of the density operator from random per-branch phases.

    Each sample draws one uniform phase per branch, forms the joint pure vector
    and averages the outer products.  Converges to :func:`density_matrix`;
    validation only, never the primary path.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(samples, len(ensemble.branches)))
    weights = np.array([br.weight for br in ensemble.branches])
    vectors = (np.sqrt(weights) * np.exp(1j * phases)) @ _joint_rows(ensemble)
    return vectors.T @ vectors.conj() / samples


def states_close(a: PureState, b: PureState, atol: float = ATOL) -> bool:
    return a.layout.registers == b.layout.registers and bool(
        np.allclose(a.amplitudes, b.amplitudes, atol=atol, rtol=0.0)
    )


def ensembles_close(a: BranchEnsemble, b: BranchEnsemble, atol: float = ATOL) -> bool:
    """Branch-by-branch equality in canonical order: settings, weights, amplitudes."""
    if a.layout.registers != b.layout.registers:
        return False
    if a.layout.setting_register != b.layout.setting_register:
        return False
    if len(a.branches) != len(b.branches):
        return False
    for x, y in zip(a.branches, b.branches):
        if x.setting != y.setting or abs(x.weight - y.weight) > atol:
            return False
        if not states_close(x.state, y.state, atol):
            return False
    return True
