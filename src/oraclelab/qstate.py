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
from typing import Callable, Iterable, Mapping, Protocol, Sequence

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

    def __invert__(self) -> "BitString":
        return BitString(self.value ^ ((1 << self.width) - 1), self.width)

    def __str__(self) -> str:
        return self.text


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

    @functools.cached_property
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

    def extract(self, name: str, index: int) -> int:
        """Value of one register inside a state basis index."""
        axis = self.axis(name)
        shift = sum(w for _, w in self.state_registers[axis + 1 :])
        return (index >> shift) & (self.state_shape[axis] - 1)

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


def _row_norms(amps: np.ndarray) -> list[float]:
    """Row norms of a C-contiguous complex128 matrix: one fused sum of squares over its float64 view."""
    floats = amps.view(np.float64)
    return list(map(math.sqrt, np.einsum("ij,ij->i", floats, floats).tolist()))


@dataclass(frozen=True, eq=False)
class BranchEnsemble:
    """A classical mixture of setting-labeled pure states, stored as arrays.

    ``settings`` ascend by value (other input orders are reordered), ``weights``
    are floats that sum to one, and row k of the read-only complex128
    ``amplitudes`` matrix is the state of branch k.  :attr:`branches` forms one
    :class:`Branch` per row on first read.
    """

    layout: RegisterLayout
    settings: tuple[BitString, ...]
    weights: tuple[float, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.layout.setting_register is None:
            raise ValueError("ensemble layout must designate a setting register")
        settings, weights = tuple(self.settings), tuple(map(float, self.weights))
        if not settings:
            raise ValueError("ensemble needs at least one branch")
        if len(weights) != len(settings):
            raise ValueError(f"{len(weights)} weights for {len(settings)} branches")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        shape = (len(settings), self.layout.state_dim)
        if amps.shape != shape:
            raise ValueError(f"amplitude matrix has shape {amps.shape}, expected {shape}")
        values = [s.value for s in settings]
        if any(map(operator.gt, values, values[1:])):
            order = sorted(range(len(values)), key=values.__getitem__)
            settings, weights = tuple(settings[i] for i in order), tuple(weights[i] for i in order)
            amps = amps[order]
        width = self.layout.width(self.layout.setting_register)
        for i, s in enumerate(settings):
            if s.width != width:
                raise ValueError(f"setting {s} has width {s.width}, register has {width}")
            if i and s.value == settings[i - 1].value:
                raise ValueError(f"duplicate setting {s}")
        if min(weights) < -ATOL:
            raise ValueError(f"negative branch weight {min(weights)}")
        total = sum(weights)
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"branch weights sum to {total!r}, not 1")
        if amps.flags.writeable or not amps.flags.c_contiguous:
            amps = np.array(amps, order="C")  # the ensemble's own read-only copy
            amps.setflags(write=False)
        for norm in _row_norms(amps):
            if abs(norm - 1.0) > ATOL:
                raise ValueError(f"state norm {norm!r} is not 1 within {ATOL}")
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def uniform(
        cls, layout: RegisterLayout, settings: Iterable[BitString], state: PureState
    ) -> "BranchEnsemble":
        settings = tuple(settings)
        rows = np.repeat(state.amplitudes[None], len(settings), axis=0)
        rows.setflags(write=False)  # a fresh C-contiguous matrix: the constructor keeps it without a copy
        return cls(layout, settings, (1.0 / len(settings),) * len(settings), rows)

    @classmethod
    def _checked(cls, layout: RegisterLayout, settings: tuple, weights: tuple, amplitudes: np.ndarray) -> "BranchEnsemble":
        """An ensemble of parts that already passed the constructor's checks, stored as given."""
        ensemble = object.__new__(cls)
        ensemble.__dict__.update(layout=layout, settings=settings, weights=weights, amplitudes=amplitudes)
        return ensemble

    @functools.cached_property
    def branches(self) -> tuple[Branch, ...]:
        """One :class:`Branch` per amplitude row, formed on first read."""
        state_layout = self.layout.state_only()
        return tuple(
            Branch(s, w, PureState(state_layout, row))
            for s, w, row in zip(self.settings, self.weights, self.amplitudes)
        )


@dataclass(frozen=True)
class OutcomeDistribution:
    """A probability distribution over distinct basis outcomes of one bit width.

    Stored as ascending outcome ``values`` (other input orders are sorted) and
    their ``probs``; :attr:`entries` forms the ``(BitString, p)`` pairs on first read.
    """

    values: tuple[int, ...]
    probs: tuple[float, ...]
    width: int

    def __post_init__(self) -> None:
        """The one check, on arrays for every input: distinct values that fit the width, each p in
        [-ATOL, 1 + ATOL], the sum 1 within ATOL."""
        values, probs, width = np.asarray(self.values), np.asarray(self.probs, dtype=np.float64), self.width
        if len(probs) != len(values):
            raise ValueError(f"{len(probs)} probabilities for {len(values)} outcomes")
        if not (values[1:] > values[:-1]).all():  # not already ascending and distinct
            order = np.argsort(values, kind="stable")
            values, probs = values[order], probs[order]
            if (values[1:] == values[:-1]).any():
                raise ValueError("outcomes must be distinct")
        stored = values.tolist()
        for v in stored[:1] + stored[-1:]:  # ascending: only the first and the last can fail to fit
            BitString(v, width)  # raises with the constructor's message
        if probs.size and (probs.min() < -ATOL or probs.max() > 1.0 + ATOL):
            i = int(((probs < -ATOL) | (probs > 1.0 + ATOL)).argmax())
            raise ValueError(f"probability {probs[i].item()!r} for outcome {format(stored[i], f'0{width}b')} is out of range")
        total = probs.sum().item()
        if not abs(total - 1.0) <= ATOL:  # also rejects a NaN anywhere
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "values", tuple(stored))
        object.__setattr__(self, "probs", tuple(probs.tolist()))

    @functools.cached_property
    def entries(self) -> tuple[tuple[BitString, float], ...]:
        """The ``(outcome, p)`` pairs in ascending outcome order, formed on first read."""
        return tuple(zip(map(BitString, self.values, itertools.repeat(self.width)), self.probs))

    def probability(self, outcome: "BitString | str") -> float:
        if isinstance(outcome, str):
            outcome = BitString.from_text(outcome)
        i = bisect.bisect_left(self.values, outcome.value)
        if outcome.width == self.width and i < len(self.values) and self.values[i] == outcome.value:
            return self.probs[i]
        return 0.0

    def as_dict(self) -> dict[str, float]:
        spec = f"0{self.width}b"
        return {format(v, spec): p for v, p in zip(self.values, self.probs)}


def _tensor(ensemble: BranchEnsemble) -> np.ndarray:
    """The amplitude matrix viewed as (branches, *register dims) in layout order."""
    return ensemble.amplitudes.reshape((len(ensemble.settings),) + ensemble.layout.state_shape)


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
    instead.  Raises if a stage leaves any branch norm more than ``ATOL`` from 1.
    """
    layout, settings, weights, before = ensemble.layout, ensemble.settings, ensemble.weights, ensemble.amplitudes
    relabel = stage.setting_relabel(layout)
    if relabel is not None:
        return BranchEnsemble(layout, tuple(map(relabel, settings)), weights, before)
    after = np.ascontiguousarray(stage.act(layout, before, settings), dtype=np.complex128)
    if after.shape != before.shape:
        raise ValueError(f"stage {stage.label!r} returned shape {after.shape}, expected {before.shape}")
    # the one norm pass: the input rows were unit, so |norm - 1| is the drift; the settings
    # and weights are the checked input's, so the output needs no constructor check
    drift = max(abs(norm - 1.0) for norm in _row_norms(after))
    if drift > ATOL:
        raise ValueError(f"stage {stage.label!r} is not norm-preserving (drift {drift:.3e})")
    after.setflags(write=False)  # the stage's fresh output: the ensemble keeps it without a copy
    return BranchEnsemble._checked(layout, settings, weights, after)


def prepare_setting(ensemble: BranchEnsemble, outcome: BitString) -> BranchEnsemble:
    """Collapse onto the branch whose setting equals the measured outcome."""
    i = bisect.bisect_left(ensemble.settings, outcome)
    if i == len(ensemble.settings) or ensemble.settings[i] != outcome:
        raise ValueError(f"setting {outcome} not present in the ensemble")
    return BranchEnsemble(ensemble.layout, (outcome,), (1.0,), ensemble.amplitudes[i : i + 1])


def project_setting_subset(ensemble: BranchEnsemble, subset: Iterable[BitString]) -> BranchEnsemble:
    """Keep only branches whose setting lies in the subset; renormalize weights.

    Models a partial readout of the setting register realized as subset
    selection.  Branch states are untouched.
    """
    wanted = frozenset(subset)
    kept = [i for i, s in enumerate(ensemble.settings) if s in wanted]
    total = sum(ensemble.weights[i] for i in kept)
    if not kept or total <= ATOL:
        raise ValueError("projection onto the subset has probability zero")
    settings = tuple(ensemble.settings[i] for i in kept)
    weights = tuple(ensemble.weights[i] / total for i in kept)
    return BranchEnsemble(ensemble.layout, settings, weights, ensemble.amplitudes[kept])


def measure_register(ensemble: BranchEnsemble, *registers: str) -> OutcomeDistribution:
    """Born-rule outcome distribution of one or more registers.

    With several register names the outcomes are their bit texts concatenated
    in the given order; the setting register may be included and contributes
    the branch label.
    """
    if not registers:
        raise ValueError("need at least one register to measure")
    layout = ensemble.layout
    # weight * (re^2 + im^2) in one pass over the float64 view, summed over the unmeasured axes and
    # laid out in measured order, so C order is ascending value order: branches ascend by setting
    # value and every other axis by its register value; the branch axis stands for the setting register
    kept = list(dict.fromkeys(0 if n == layout.setting_register else 1 + layout.axis(n) for n in registers))
    floats = ensemble.amplitudes.view(np.float64).reshape((len(ensemble.settings),) + layout.state_shape + (2,))
    axes = list(range(floats.ndim))
    probs = np.einsum(np.asarray(ensemble.weights), [0], floats, axes, floats, axes, kept)
    # every cell has its own outcome value, built register by register
    values = np.zeros(probs.shape, dtype=np.int64)
    total_width = 0
    for name in registers:
        width = layout.width(name)
        if name == layout.setting_register:
            part = _along([s.value for s in ensemble.settings], kept.index(0), probs.ndim)
        else:
            part = _along(np.arange(1 << width), kept.index(1 + layout.axis(name)), probs.ndim)
        values = (values << width) | part
        total_width += width
    nonzero = probs > 1e-15
    return OutcomeDistribution(values[nonzero], probs[nonzero], total_width)


def _along(values, axis: int, ndim: int) -> np.ndarray:
    """The values laid along one axis of an ndim-dimensional array, to broadcast against it."""
    return np.reshape(values, [-1 if i == axis else 1 for i in range(ndim)])


def _reduced_gram(ensemble: BranchEnsemble, register: str) -> np.ndarray:
    """K K^H, the register's reduced density operator, or K^H K, with the same nonzero spectrum, when K has
    fewer columns than rows.  K holds the sqrt(weight)-scaled branch states (real when every imaginary
    part is exactly zero), register axis first; weights within ATOL below zero count as zero."""
    tensor = _tensor(ensemble)
    if not tensor.imag.any():
        tensor = tensor.real
    weights = np.sqrt(np.maximum(ensemble.weights, 0.0))
    kept = np.moveaxis(tensor * _along(weights, 0, tensor.ndim), 1 + ensemble.layout.axis(register), 0)
    kept = kept.reshape(len(kept), -1)
    return kept @ kept.conj().T if kept.shape[1] >= kept.shape[0] else kept.conj().T @ kept


def reduced_entropy(ensemble: BranchEnsemble, register: str) -> float:
    """Base-2 von Neumann entropy of one register's reduced density operator.

    All other registers (and the branch labels) are traced out of the weighted
    mixture; eigenvalues at or below ``EIG_FLOOR`` are treated as zero.
    """
    layout = ensemble.layout
    if register == layout.setting_register:
        eigenvalues = np.array(ensemble.weights)
    else:
        eigenvalues = np.linalg.eigvalsh(_reduced_gram(ensemble, register))
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
    return _shannon(dist.probs)


def _joint_rows(ensemble: BranchEnsemble) -> np.ndarray:
    """One joint vector |b>|psi_b> over all registers per branch, setting included."""
    layout = ensemble.layout
    tensor = _tensor(ensemble)
    settings = [s.value for s in ensemble.settings]
    onehot = np.eye(1 << layout.width(layout.setting_register))[settings]
    joint = np.einsum("rs,r...->rs...", onehot, tensor)
    return np.moveaxis(joint, 1, 1 + layout.names.index(layout.setting_register)).reshape(len(tensor), -1)


def density_matrix(ensemble: BranchEnsemble) -> np.ndarray:
    """Exact joint density operator over all registers, setting included."""
    rows = _joint_rows(ensemble)
    weights = np.array(ensemble.weights)
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
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(samples, len(ensemble.settings)))
    weights = np.array(ensemble.weights)
    vectors = (np.sqrt(weights) * np.exp(1j * phases)) @ _joint_rows(ensemble)
    return vectors.T @ vectors.conj() / samples


def ensembles_close(a: BranchEnsemble, b: BranchEnsemble, atol: float = ATOL) -> bool:
    """Branch-by-branch equality in canonical order: settings, weights, amplitudes."""
    return (
        a.layout == b.layout
        and a.settings == b.settings
        and all(abs(x - y) <= atol for x, y in zip(a.weights, b.weights))
        and bool(np.allclose(a.amplitudes, b.amplitudes, atol=atol, rtol=0.0))
    )
