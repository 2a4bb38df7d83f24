"""Half-retroaction analysis: complementary partial-measurement pairs and query counts.

Given a problem and one true setting, the engine enumerates pairs of partial
readouts of the setting register that (1) jointly pin the setting down, with
realized subsets meeting exactly in the true setting, (2) reduce the solver's
output-register entropy by the same amount (the shared reduction is the pair's
epsilon), and (no) individually leave the answer undetermined.  Either subset
of a valid pair is an instance of what the solver may be treated as knowing in
advance; the queries the algorithm still needs are those of a classical
adversarial decision tree restricted to that subset.

Two measurement families are supported: ``cells`` readouts reveal table
entries at chosen argument positions, ``linear`` readouts reveal GF(2) parities
of the raw setting bits.  With the ``complementary`` flag on (the default)
cells pairs must split the positions into complements and linear pairs must be
a direct-sum decomposition of the dual space.

Internally every readout is a partition of the setting positions, and a set of
settings is an int bitmask over those positions; ``frozenset[BitString]``
appears only at the public boundary.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .oracle import OracleProblem, build_grover, output_ensemble
from .qstate import BitString, BranchEnsemble, _shannon, project_setting_subset, reduced_entropy

MAX_LINEAR_WIDTH = 6
MAX_CELLS_POSITIONS = 16


@dataclass(frozen=True)
class AkConfig:
    """Knobs of the analysis.

    The retroaction fraction is fixed at R = 1/2, the only fraction with a
    defined procedure.  ``family`` picks the readouts, ``cells`` or ``linear``;
    None means the problem's default.  ``complementary`` requires the two
    readouts of a pair to split the cell positions into complements, or the
    mask spaces into a direct sum; off, any two distinct readouts may pair.
    Entropy reductions are compared exactly, so there is no tolerance.
    """

    family: str | None = None
    complementary: bool = True

    def __post_init__(self) -> None:
        if self.family is not None and self.family not in ("cells", "linear"):
            raise ValueError(f"unknown measurement family {self.family!r}")


@dataclass(frozen=True)
class MeasurementSpec:
    """A partial readout: chosen table cells, or a canonical GF(2) mask basis."""

    family: str
    cells: frozenset[int] | None = None
    masks: tuple[BitString, ...] | None = None

    def describe(self, arg_bits: int | None = None) -> str:
        if self.family == "cells":
            if not self.cells:
                return "cells{}"
            if arg_bits:
                labels = [format(q, f"0{arg_bits}b") for q in sorted(self.cells)]
            else:
                labels = [str(q) for q in sorted(self.cells)]
            return "cells{" + ",".join(labels) + "}"
        if not self.masks:
            return "masks{}"
        return "masks{" + ",".join(m.text for m in self.masks) + "}"


def cells_spec(positions: Iterable[int]) -> MeasurementSpec:
    positions = frozenset(int(q) for q in positions)
    if any(q < 0 for q in positions):
        raise ValueError("cell positions must be nonnegative")
    return MeasurementSpec("cells", cells=positions)


@dataclass(frozen=True)
class AkInstance:
    """One advance-knowledge subset with the entropy reduction it realizes."""

    subset: frozenset[BitString]
    spec: MeasurementSpec
    epsilon: float


@dataclass(frozen=True)
class OccamPair:
    """Two partial readouts meeting the joint-selection and parity conditions."""

    spec_i: MeasurementSpec
    subset_i: frozenset[BitString]
    spec_j: MeasurementSpec
    subset_j: frozenset[BitString]
    epsilon: float


@dataclass(frozen=True)
class SettingReport:
    setting: BitString
    epsilons: tuple[float, ...]
    instance_sizes: tuple[tuple[int, int], ...]
    instance_costs: tuple[tuple[int, int], ...]
    no_instance: bool


@dataclass(frozen=True)
class QueryReport:
    """Predicted query counts for one problem under one configuration."""

    problem: str
    family: str
    complementary: bool
    baseline_queries: int
    predicted_queries: int | None
    per_setting: tuple[SettingReport, ...]
    grover_formula_queries: int | None = None
    grover_reference_queries: int | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.predicted_queries is not None and self.predicted_queries > self.baseline_queries:
            raise ValueError("predicted queries exceed the classical baseline")

    def as_dict(self) -> dict:
        return {
            "problem": self.problem,
            "family": self.family,
            "complementary": self.complementary,
            "baseline_queries": self.baseline_queries,
            "predicted_queries": self.predicted_queries,
            "grover_formula_queries": self.grover_formula_queries,
            "grover_reference_queries": self.grover_reference_queries,
            "notes": list(self.notes),
            "per_setting": [
                {
                    "setting": rep.setting.text,
                    "epsilons": [round(e, 6) for e in rep.epsilons],
                    "instance_sizes": [list(pair) for pair in rep.instance_sizes],
                    "instance_costs": [list(pair) for pair in rep.instance_costs],
                    "no_instance": rep.no_instance,
                }
                for rep in self.per_setting
            ],
        }


# ---------------------------------------------------------------------------
# GF(2) helpers (masks as ints, bit conventions following BitString)


def _dot(mask: int, value: int) -> int:
    return bin(mask & value).count("1") & 1


def _submasks(mask: int) -> Iterator[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@functools.lru_cache(maxsize=8)
def _all_subspaces(width: int) -> tuple[tuple[int, ...], ...]:
    """Canonical bases of every subspace of GF(2)^width, the trivial one included.

    A subspace has exactly one reduced echelon basis: choose its pivot
    columns, then fill each row's free bits, the non-pivot columns below
    the row's pivot, in every way.
    """
    bases = []
    for size in range(width + 1):
        for pivots in itertools.combinations(range(width - 1, -1, -1), size):
            taken = sum(1 << p for p in pivots)
            rows = [[(1 << p) | fill for fill in _submasks(((1 << p) - 1) & ~taken)] for p in pivots]
            bases.extend(itertools.product(*rows))
    return tuple(sorted(bases, key=lambda b: (len(b), b)))


def _span_bits(basis: Iterable[int]) -> int:
    """The span as a bitmask over vectors: bit v is set when v lies in it."""
    vectors = [0]
    for row in basis:
        vectors += [v ^ row for v in vectors]
    return sum(1 << v for v in vectors)


# ---------------------------------------------------------------------------
# Partitions and exact entropy keys


def _partition(labels: Iterable) -> tuple[int, ...]:
    """Entry i: the bitmask of the positions whose label equals position i's."""
    labels = tuple(labels)
    blocks: dict = {}
    for i, label in enumerate(labels):
        blocks[label] = blocks.get(label, 0) | (1 << i)
    return tuple(blocks[label] for label in labels)


def _words(masks: Iterable[int], n_words: int) -> np.ndarray:
    """Row k holds the k-th mask as n_words uint64 words, the least significant first; read-only."""
    raw = b"".join(m.to_bytes(8 * n_words, "little") for m in masks)
    return np.frombuffer(raw, "<u8").reshape(-1, n_words)


def _bits(masks: Iterable[int], n: int) -> np.ndarray:
    """Row k holds the low n bits of the k-th mask, as 0/1 uint8."""
    return np.unpackbits(_words(masks, -(-n // 64)).view(np.uint8), axis=1, count=n, bitorder="little")


def _ints(words: np.ndarray) -> list[int]:
    """Each row of uint64 words as one mask, the inverse of ``_words``."""
    masks = [0] * len(words)
    for w in range(words.shape[1] - 1, -1, -1):
        masks = [m << 64 | x for m, x in zip(masks, words[:, w].tolist())]
    return masks


def _members(mask: int) -> tuple[int, ...]:
    """The set bit positions, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@functools.lru_cache(maxsize=1024)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _entropy_key(counts: tuple[int, ...]) -> tuple[tuple[int, Fraction], ...]:
    """The entropy of the counts, exactly, as prime exponents.

    With N = sum(counts), H = (1/N) * log2(N^N / prod c^c).  The logarithms of
    distinct primes are linearly independent over Q, so two entropies are
    equal exactly when the prime-exponent vectors of N^N / prod c^c, each
    divided by its N, are equal.
    """
    total = sum(counts)
    exponents: Counter = Counter()
    for p, e in _factor(total):
        exponents[p] += total * e
    for c in counts:
        for p, e in _factor(c):
            exponents[p] -= c * e
    return tuple((p, Fraction(e, total)) for p, e in sorted(exponents.items()) if e)


def _entropy(counts: tuple[int, ...]) -> float:
    return _shannon(counts, sum(counts))


# ---------------------------------------------------------------------------
# The problem index: the setting positions and the partitions every view cuts


class _Index:
    """One problem's settings as bit positions, and the partitions read off its data.

    Setting i is bit i of a mask.  ``outcome``, ``solution`` and ``tables``
    are the partitions by Alice's outcome, the answer and the whole table,
    each as ``_partition`` returns it.  ``cells[q]`` is argument q's partition
    in that per-position form, the cells family's atom; ``arg_groups[q]``
    holds the same blocks once each, for the walks over an argument's values.
    The index owns every other view of the problem: one core per family, the
    solver, the solved ensemble and the blocks' entropy keys.  The views are
    plain attributes: a ``cached_property`` writes through ``__dict__``,
    which slows every later attribute read on the instance.
    """

    def __init__(self, problem: OracleProblem):
        self.problem = problem
        self.ids = problem.setting_ids()
        self.full = (1 << len(self.ids)) - 1
        settings = problem.settings
        self.outcome = _partition(st.a_outcome.value for st in settings)
        self.solution = _partition(st.solution for st in settings)
        self.tables = _partition(map(tuple, problem.values.tolist()))
        self.cells = tuple(map(_partition, problem.values.T.tolist()))
        self.arg_groups = tuple(tuple(dict.fromkeys(blocks)) for blocks in self.cells)
        self.full_entropy = _entropy(self.counts(self.full))
        self._cores: dict[str, _Core] = {}
        self._keys: dict[int, int] = {}
        self._subsets: dict[int, frozenset[BitString]] = {}
        self._masks: dict[frozenset[BitString], int] = {}
        self._epsilons: dict[int, float] = {}
        self._key_of_counts: dict[tuple[int, ...], int] = {}
        self._key_ids: dict[tuple, int] = {}
        self._solved: tuple[BranchEnsemble, float] | None = None
        self.solver = _TreeSolver(self)

    def mask_of(self, settings: Iterable[BitString]) -> int:
        """The mask of a nonempty set of settings, each checked to be one of the problem's.

        A frozenset equal to one that ``subset`` returned is looked up instead.
        """
        if isinstance(settings, frozenset):
            mask = self._masks.get(settings)
            if mask is not None:
                return mask
        mask, row = 0, self.problem.row
        for b in settings:
            mask |= 1 << row(b)
        if not mask:
            raise ValueError("empty subset")
        return mask

    def subset(self, mask: int) -> frozenset[BitString]:
        """The settings in the mask; one frozenset per mask, which ``mask_of`` maps back."""
        subset = self._subsets.get(mask)
        if subset is None:
            subset = self._subsets[mask] = frozenset(self.ids[i] for i in _members(mask))
            self._masks[subset] = mask
        return subset

    def constant(self, mask: int) -> bool:
        """Whether every setting in the nonempty mask has one answer."""
        first = (mask & -mask).bit_length() - 1
        return mask & ~self.solution[first] == 0

    def counts(self, mask: int) -> tuple[int, ...]:
        """Outcome-label counts inside the mask, ascending."""
        counts = []
        rest = mask
        while rest:
            part = mask & self.outcome[(rest & -rest).bit_length() - 1]
            counts.append(part.bit_count())
            rest ^= part
        return tuple(sorted(counts))

    def epsilon(self, mask: int) -> float:
        """The entropy drop of knowing the setting lies in the mask, as a float; memoized."""
        epsilon = self._epsilons.get(mask)
        if epsilon is None:
            epsilon = self._epsilons[mask] = self.full_entropy - _entropy(self.counts(mask))
        return epsilon

    def key(self, mask: int) -> int:
        """The block's interned entropy key: equal keys, equal entropies; memoized."""
        key = self._keys.get(mask)
        if key is None:
            counts = self.counts(mask)
            key = self._key_of_counts.get(counts)
            if key is None:
                key = self._key_ids.setdefault(_entropy_key(counts), len(self._key_ids))
                self._key_of_counts[counts] = key
            self._keys[mask] = key
        return key

    def core(self, family: str) -> _Core:
        """The family's partition core, built on first use."""
        if family not in self._cores:
            self._cores[family] = _Core(self, family)
        return self._cores[family]

    @property
    def solved(self) -> tuple[BranchEnsemble, float]:
        """The problem's output ensemble and its register-A entropy, built on first use."""
        if self._solved is None:
            out = output_ensemble(self.problem)
            self._solved = out, reduced_entropy(out, "A")
        return self._solved


def _index(problem: OracleProblem) -> _Index:
    """The problem's index, built on first use and kept on the problem object itself."""
    index = getattr(problem, "_index", None)
    if index is None:
        index = _Index(problem)
        object.__setattr__(problem, "_index", index)
    return index


# ---------------------------------------------------------------------------
# The partition core: one problem's readouts of one family


class _Core:
    """Every readout of one family as a partition of the setting positions.

    Spec s is a sorted key: its cells, or its masks' reduced echelon basis.
    Specs ascend by key length, and spec ``bounds[k]`` is the first of length
    k.  Spec s is stored as a recipe of two arrays: ``parent[s]``, the spec
    of its key less the last entry (a shorter key, so an earlier spec), and
    ``atom[s]``, the atom of that entry, the partition one cell or mask
    makes; the families differ only in their atoms.  ``column(i)`` forms
    every block at position i when a call scans it, as uint64 words.
    """

    def __init__(self, index: _Index, family: str):
        self.index = index
        self.family = family
        if family == "cells":
            positions = 1 << index.problem.arg_bits
            if positions > MAX_CELLS_POSITIONS:
                raise ValueError(
                    f"cells enumeration supports tables of up to {MAX_CELLS_POSITIONS} "
                    f"entries, this problem has {positions}"
                )
            # each set of cells as a mask m: its size, its bit reversal and its top cell
            size, reverse, top = np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros(1, np.int64)
            for q in range(positions):
                size = np.concatenate([size, size + 1])
                reverse = np.concatenate([reverse, reverse | 1 << (positions - 1 - q)])
                top = np.concatenate([top, np.full_like(top, q)])
            # sets of one size ascend lexicographically when the one holding the
            # least cell of their difference comes first: the larger bit reversal
            self.chosen = np.argsort((size << positions) - reverse)
            spec_of = np.empty_like(self.chosen)
            spec_of[self.chosen] = np.arange(len(self.chosen))
            self.atom = top[self.chosen]
            self.parent = spec_of[self.chosen & ~(1 << self.atom)]
            # cells keys end in every position, so the cells atoms are the index's in order
            self.atoms = index.cells
            lengths = size[self.chosen]
        elif family == "linear":
            self.width = index.problem.setting_width
            if self.width > MAX_LINEAR_WIDTH:
                raise ValueError(
                    f"linear enumeration supports setting widths up to {MAX_LINEAR_WIDTH}, "
                    f"this problem has {self.width} bits per setting"
                )
            self.keys = keys = _all_subspaces(self.width)
            self.spans = tuple(_span_bits(basis) for basis in keys)
            spec_of = {key: s for s, key in enumerate(keys)}
            where = {x: a for a, x in enumerate(sorted({key[-1] for key in keys[1:]}))}
            self.atoms = tuple(_partition(_dot(mask, b.value) for b in index.ids) for mask in where)
            self.parent = np.array([0] + [spec_of[key[:-1]] for key in keys[1:]])
            self.atom = np.array([0] + [where[key[-1]] for key in keys[1:]])
            lengths = [len(key) for key in keys]
        else:
            raise ValueError(f"unknown measurement family {family!r}")
        self.bounds = np.searchsorted(lengths, np.arange(lengths[-1] + 2)).tolist()
        self.n_words = -(-len(index.ids) // 64)
        self._columns: dict[int, np.ndarray] = {}
        self._specs: dict[int, MeasurementSpec] = {}

    def __len__(self) -> int:
        return len(self.parent)

    def key(self, s: int) -> tuple[int, ...]:
        """Spec s's sorted key."""
        return _members(int(self.chosen[s])) if self.family == "cells" else self.keys[s]

    def column(self, i: int) -> np.ndarray:
        """Row s: spec s's block at position i, its parent's cut by its atom's; built once.

        Word w of a row holds settings 64w to 64w + 63.  One gather and AND
        forms each key length from the one before.
        """
        column = self._columns.get(i)
        if column is None:
            atoms = _words([a[i] for a in self.atoms], self.n_words)
            column = np.empty((len(self), self.n_words), np.uint64)
            column[0] = _words([self.index.full], self.n_words)[0]
            for lo, hi in zip(self.bounds[1:], self.bounds[2:]):
                np.bitwise_and(column[self.parent[lo:hi]], atoms[self.atom[lo:hi]], out=column[lo:hi])
            self._columns[i] = column
        return column

    def spec(self, s: int) -> MeasurementSpec:
        """Spec s as the public API sees it, made on first use."""
        if s not in self._specs:
            key = self.key(s)
            self._specs[s] = (cells_spec(key) if self.family == "cells"
                              else MeasurementSpec("linear", masks=tuple(BitString(v, self.width) for v in key)))
        return self._specs[s]

    def partners(self, i: int, complementary: bool) -> tuple[dict[int, int], Callable[[int], Iterator[int]]]:
        """The specs that may pair at setting position i, and each one's partner generator.

        Spec t partners spec s when their blocks at i meet in exactly i, both
        leave the answer undetermined, both have the same entropy key, and
        the specs are related: complements (cells) or a direct sum (linear)
        when ``complementary`` is on, any two distinct specs when it is off.
        The relation is symmetric, so t partners s exactly when s partners t.

        A bitwise pass over the column keeps exactly the specs whose block
        leaves the answer open, the blocks not inside i's solution block, and
        for complementary cells drops every spec whose complement is dropped
        or whose block meets its complement's in more than i.  The rest, as
        {spec: block mask} in spec order, are filed by (slot, entropy key);
        spec s's candidates are those filed at (total - its slot, its key).
        """
        bit = 1 << i
        column, key = self.column(i), self.index.key
        kept = (column & ~_words([self.index.solution[i]], self.n_words)).any(axis=1)
        direct_sum = complementary and self.family == "linear"
        complement = complementary and self.family == "cells"
        if complement:
            # cells keys of one size ascend lexicographically and complementing
            # reverses that order, so spec s's complement is spec len - 1 - s
            kept &= kept[::-1] & ((column & column[::-1]) == _words([bit], self.n_words)).all(axis=1)
        specs = np.flatnonzero(kept)
        blocks = dict(zip(specs.tolist(), _ints(column[specs])))
        # a slot is the spec itself for complements, the dimension for direct
        # sums (the partner has the complementary one), and 0 for any pairing
        total = len(self) - 1 if complement else self.width if direct_sum else 0
        slots = {t: t if complement else len(self.keys[t]) if direct_sum else 0 for t in blocks}
        buckets: dict[tuple[int, int], list[int]] = {}
        for t, block in blocks.items():
            buckets.setdefault((slots[t], key(block)), []).append(t)

        def partners(s: int) -> Iterator[int]:
            mine = blocks[s]
            for t in buckets.get((total - slots[s], key(mine)), ()):
                if blocks[t] & mine == bit and t != s and (not direct_sum or self.spans[s] & self.spans[t] == 1):
                    yield t

        return blocks, partners

    def rank(self, s: int, t: int, complementary: bool) -> tuple[int, ...]:
        """Where the unordered pair {s, t} comes in the canonical candidate order.

        Complementary cells pairs are listed once, at the spec whose sorted
        cells come first; every other pair at (lower index, higher index).
        """
        if complementary and self.family == "cells":
            return (min(s, t, key=self.key),)
        return min(s, t), max(s, t)


def _resolve(problem: OracleProblem, config: AkConfig | None) -> tuple[AkConfig, _Core]:
    config = config or AkConfig()
    return config, _index(problem).core(config.family or problem.default_family)


# ---------------------------------------------------------------------------
# Entropies


def realized_subset(problem: OracleProblem, spec: MeasurementSpec, b_star: BitString) -> frozenset[BitString]:
    """Settings indistinguishable from the true one under the partial readout.

    Cells: every setting whose table agrees with the true one on the chosen
    positions.  Linear: every setting with the same parities under all masks.
    """
    st0 = problem.setting(b_star)
    if spec.family == "cells":
        if any(q >= (1 << problem.arg_bits) for q in spec.cells):
            raise ValueError("cell position out of range for this problem")
        cells = sorted(spec.cells)
        reference = [st0.table[q].value for q in cells]
        return frozenset(st.id for st in problem.settings if [st.table[q].value for q in cells] == reference)
    if any(m.width != problem.setting_width for m in spec.masks):
        raise ValueError("mask width does not match the setting width")
    reference = [_dot(m.value, b_star.value) for m in spec.masks]
    return frozenset(st.id for st in problem.settings if [_dot(m.value, st.id.value) for m in spec.masks] == reference)


def delta_entropy(problem: OracleProblem, subset: Iterable[BitString]) -> float:
    """Output-register entropy drop when the setting is known to lie in the subset.

    Computed as the difference of outcome-label Shannon entropies over the
    uniform full setting set and the uniform subset; the orthogonality of the
    per-setting output states makes this equal to the von Neumann route
    (see :func:`delta_entropy_via_states`).
    """
    index = _index(problem)
    return index.epsilon(index.mask_of(subset))


def delta_entropy_via_states(problem: OracleProblem, subset: Iterable[BitString]) -> float:
    """The same entropy drop via reduced density operators of projected output states."""
    index = _index(problem)
    out, whole = index.solved
    return whole - reduced_entropy(project_setting_subset(out, index.subset(index.mask_of(subset))), "A")


# ---------------------------------------------------------------------------
# Pairs and instances: views over the core


def enumerate_occam_pairs(
    problem: OracleProblem, b_star: BitString, config: AkConfig | None = None
) -> tuple[OccamPair, ...]:
    """All valid partial-readout pairs for one true setting.

    A pair passes when the realized subsets intersect exactly in the true
    setting, both entropy reductions are equal, and neither subset determines
    the answer alone.  Pairs are deduplicated by their realized-subset pair,
    keeping the spec pair that comes first in the canonical candidate order,
    and returned in canonical order.
    """
    config, core = _resolve(problem, config)
    i = core.index.mask_of((b_star,)).bit_length() - 1
    blocks, partners = core.partners(i, config.complementary)
    members = functools.cache(_members)  # each block's sort key, computed once per call
    first: dict[tuple[int, int], tuple] = {}
    for s, mine in blocks.items():
        for t in partners(s):
            if t < s:
                continue
            a, b = (s, t) if members(mine) <= members(blocks[t]) else (t, s)
            key = (blocks[a], blocks[b])
            rank = core.rank(s, t, config.complementary)
            if key not in first or rank < first[key][0]:
                first[key] = (rank, a, b)
    ordered = sorted(first.items(), key=lambda item: (members(item[0][0]), members(item[0][1])))
    index = core.index
    return tuple(
        OccamPair(core.spec(a), index.subset(m_a), core.spec(b), index.subset(m_b), index.epsilon(m_a))
        for (m_a, m_b), (_, a, b) in ordered
    )


def ak_instances(pairs: Iterable[OccamPair]) -> tuple[AkInstance, ...]:
    """Both subsets of every pair, deduplicated, each carrying its epsilon."""
    found: dict[frozenset[BitString], AkInstance] = {}
    for pair in pairs:
        for spec, subset in ((pair.spec_i, pair.subset_i), (pair.spec_j, pair.subset_j)):
            if subset not in found:
                found[subset] = AkInstance(subset, spec, pair.epsilon)
    return tuple(sorted(found.values(), key=lambda inst: sorted(b.value for b in inst.subset)))


def _instances(core: _Core, i: int, complementary: bool) -> dict[int, int]:
    """{block mask: spec} of every block at setting i with a partner, in spec order.

    The spec is the first one, in spec order, whose block at i is that mask
    and has a partner.
    """
    blocks, partners = core.partners(i, complementary)
    found: dict[int, int] = {}
    for s, mask in blocks.items():
        if mask not in found and next(partners(s), None) is not None:
            found[mask] = s
    return found


def setting_instances(
    problem: OracleProblem, b_star: BitString, config: AkConfig | None = None
) -> tuple[AkInstance, ...]:
    """The advance-knowledge instances of one setting.

    Streaming equivalent of ``ak_instances(enumerate_occam_pairs(...))``: each
    block is admitted at its first partner, without listing every pair.
    """
    config, core = _resolve(problem, config)
    i = core.index.mask_of((b_star,)).bit_length() - 1
    found = _instances(core, i, config.complementary)
    return tuple(
        AkInstance(core.index.subset(mask), core.spec(found[mask]), core.index.epsilon(mask))
        for mask in sorted(found, key=_members)
    )


# ---------------------------------------------------------------------------
# Adversarial decision trees


class _TreeSolver:
    """Exact minimax query counts over candidate sets, memoized on bitmasks.

    The recursion follows the textbook definition: zero when the answer is
    constant on the set, else one plus the best argument's worst observed
    branch, over arguments that split the set.  A set is decidable when no
    two of its settings share a table but not an answer; that is checked once,
    where a set enters the solver, and every subset of a decidable set is
    decidable.  On such a set a splitting query shrinks every branch, so
    |S| - 1 is an upper bound, and the pigeonhole lower bound closes
    structured cases against it without expansion.  An argument's groups are
    the blocks of its single-cell readout.
    """

    def __init__(self, index: _Index):
        self.index = index
        self.args = tuple(range(len(index.arg_groups)))
        self.solution_masks = tuple(dict.fromkeys(index.solution))
        # the table classes holding settings with different answers
        self._undecidable = tuple(block for block in dict.fromkeys(index.tables) if not index.constant(block))
        # settings x (argument, value) groups and settings x solutions, as 0/1
        # columns: one product with a batch of masks gives every part size
        n = len(index.ids)
        self._group_table = _bits([g for groups in index.arg_groups for g in groups], n).T.astype(np.float32)
        self._group_starts = np.cumsum([0] + [len(groups) for groups in index.arg_groups[:-1]])
        self._solution_table = _bits(self.solution_masks, n).T.astype(np.float32)
        self._memo: dict[int, int] = {}
        # the most values one query can show
        self.fanout = max(len(groups) for groups in index.arg_groups)

    def _answers_exceed(self, mask: int, k: int) -> bool:
        """Whether the settings in the mask have more than k distinct answers."""
        solution = self.index.solution
        while mask:
            if not k:
                return True
            mask &= ~solution[(mask & -mask).bit_length() - 1]
            k -= 1
        return False

    def _splits(self, mask: int, args: tuple[int, ...]):
        out = []
        arg_groups = self.index.arg_groups
        for a in args:
            parts = [g & mask for g in arg_groups[a] if g & mask]
            if len(parts) >= 2:
                out.append((a, parts))
        return out

    def _lower(self, mask: int, splits) -> int:
        size = mask.bit_count()
        largest_block = max((sol_mask & mask).bit_count() for sol_mask in self.solution_masks)
        best_elimination = max(
            size - max(p.bit_count() for p in parts) for _, parts in splits
        )
        return -((size - largest_block) // -best_elimination)

    def _check(self, mask: int) -> None:
        for block in self._undecidable:
            part = mask & block
            if part and not self.index.constant(part):
                raise ValueError("candidate settings are indistinguishable but disagree on the answer")

    def _cost(self, mask: int, args: tuple[int, ...]) -> int:
        """Exact minimax cost of a decidable set; args need only contain every splitter of mask.

        Branch and bound starts from |S| - 1 and stops once the best tree
        meets the pigeonhole lower bound.  Only exact costs enter the memo.
        """
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        if self.index.constant(mask):
            self._memo[mask] = 0
            return 0
        splits = self._splits(mask, args)
        lower = self._lower(mask, splits)
        best = mask.bit_count() - 1
        narrowed = tuple(a for a, _ in splits)
        for _, parts in splits:
            if best <= lower:
                break
            worst = 0
            for part in parts:
                # a tree of depth t tells at most fanout^t answers apart, so a part with
                # more answers than fanout^(best - 2) costs >= best - 1: it need not be expanded
                if self._answers_exceed(part, self.fanout ** (best - 2)):
                    worst = None
                    break
                c = self._cost(part, narrowed)
                if c >= best - 1:
                    worst = None
                    break
                worst = max(worst, c)
            if worst is not None:
                best = min(best, 1 + worst)
        self._memo[mask] = best
        return best

    def cost(self, mask: int) -> int:
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        self._check(mask)
        return self._cost(mask, self.args)

    def costs(self, masks: Iterable[int]) -> list[int]:
        """The cost of each mask; the top-node tests run for all new masks at once.

        Each new mask is checked for decidability first.  One matrix product
        then gives every argument's part sizes and every solution block's
        size in each mask.  From them comes the pigeonhole lower bound
        exactly as ``_cost`` derives it; masks closed at |S| - 1 go straight
        into the memo, and the rest take the scalar recursion, which returns
        0 for a constant mask at once.
        """
        masks = list(masks)
        fresh = [m for m in dict.fromkeys(masks) if m not in self._memo]
        if fresh:
            if self._undecidable:
                for mask in fresh:
                    self._check(mask)
            bits = _bits(fresh, len(self.index.ids)).astype(np.float32)
            size = bits.sum(axis=1)
            block = (bits @ self._solution_table).max(axis=1)
            largest = np.maximum.reduceat(bits @ self._group_table, self._group_starts, axis=1).min(axis=1)
            # lower = ceil((size - block) / (size - largest)) >= size - 1
            elimination = size - largest
            at_upper = (elimination > 0) & (size - block > (size - 2) * elimination)
            for mask, closed in zip(fresh, at_upper.tolist()):
                if closed:
                    self._memo[mask] = mask.bit_count() - 1
        return [self._cost(m, self.args) for m in masks]

    def plays(self, mask: int, args: Iterable[int], true_bit: int) -> bool:
        """Whether querying the args in turn is optimal play on the mask (see ``optimal_play``)."""
        for a in args:
            if self.index.constant(mask):
                return False  # queried after the answer was already fixed
            total = self.cost(mask)
            splits = self._splits(mask, (a,))
            if not splits or 1 + max(self.cost(part) for part in splits[0][1]) != total:
                return False
            mask = next(part for part in splits[0][1] if part & true_bit)
        return self.index.constant(mask)


def decision_tree_cost(problem: OracleProblem, candidates: Iterable[BitString]) -> int:
    """Minimum worst-case adaptive queries to pin down the answer on the set.

    Cost is zero when the answer is constant; otherwise one plus the minimum
    over splitting arguments of the maximum branch cost, against an adversary
    choosing the observed value.  One solver, and so one memo table, serves
    every call on the same problem object.
    """
    index = _index(problem)
    return index.solver.cost(index.mask_of(candidates))


def optimal_play(
    problem: OracleProblem, subset: Iterable[BitString], queries: Sequence[BitString], true_setting: BitString
) -> bool:
    """Whether the queries are optimal play on the candidate subset when true_setting is the setting.

    Each query must split the current candidates and attain the minimax cost;
    candidates are then filtered by the value the true setting returns.  The
    transcript must end with the answer determined and no query wasted.
    Every argument's width is checked before the walk.
    """
    for a in queries:
        if a.width != problem.arg_bits:
            raise ValueError(f"argument width {a.width} != arg_bits {problem.arg_bits}")
    index = _index(problem)
    mask, true_bit = index.mask_of(subset), index.mask_of((true_setting,))
    if not mask & true_bit:
        raise ValueError(f"true setting {true_setting} is not a candidate")
    return index.solver.plays(mask, [a.value for a in queries], true_bit)


# ---------------------------------------------------------------------------
# Prediction


def _translations(index: _Index) -> tuple[int, ...]:
    """The xor shifts t of the setting ids that are automorphisms of the problem.

    A shift is kept when b -> b ^ t permutes the settings, maps the outcome
    partition and the solution partition block for block onto themselves,
    and maps the multiset of argument partitions onto itself.  A shift that
    permutes the settings moves ids[0] onto some id v, so the candidates are
    ids[0] ^ v.  The kept shifts form a group, {0} when there is no
    symmetry, so one test decides a whole coset of the group found so far.
    """
    rows = index.problem.rows
    values = list(rows)
    outcome, solution = frozenset(index.outcome), frozenset(index.solution)
    args = Counter(frozenset(groups) for groups in index.arg_groups)
    kept, decided = [0], {0}
    for t in (values[0] ^ v for v in values):
        if t in decided:
            continue
        coset = [t ^ u for u in kept]
        decided.update(coset)
        perm = [rows.get(v ^ t) for v in values]
        if None in perm:
            continue

        def image(blocks: Iterable[int]) -> frozenset[int]:
            return frozenset(sum(1 << perm[i] for i in _members(block)) for block in blocks)

        if image(outcome) == outcome and image(solution) == solution:
            if Counter(image(groups) for groups in index.arg_groups) == args:
                kept += coset
    return tuple(sorted(kept))


def predict_queries(problem: OracleProblem, config: AkConfig | None = None) -> QueryReport:
    """The headline query prediction and the classical baseline for a problem.

    The prediction is the worst decision-tree cost over every setting's
    advance-knowledge instances; settings without any valid pair are reported
    rather than skipped.  Search problems additionally carry the closed-form
    count ``2^(n/2) - 1`` and the reference ``ceil(pi/4 * 2^(n/2))`` for even
    widths, and a split note for odd widths where no exact half exists.

    Settings are scanned one per orbit of the problem's xor-translation
    symmetries (``_translations``): a shift t maps every block at b onto a
    block at b ^ t with the same outcome counts, answers and decision-tree
    cost, so the report of the orbit's lowest id is copied to the rest.
    Each entropy key's epsilon comes from its least outcome-count tuple, so
    the copy is exact to the last bit.
    """
    config, core = _resolve(problem, config)
    index = core.index
    baseline = index.solver.cost(index.full)
    shifts = _translations(index)

    reports: list[SettingReport] = []
    for i, b_star in enumerate(index.ids):
        representative = min(b_star.value ^ t for t in shifts)
        if representative < b_star.value:
            # ids ascend, so the representative's report is already made
            reports.append(replace(reports[problem.rows[representative]], setting=b_star))
            continue
        instances = _instances(core, i, config.complementary)
        counts: dict[int, tuple[int, ...]] = {}
        for mask in instances:
            key, mine = index.key(mask), index.counts(mask)
            counts[key] = min(counts.get(key, mine), mine)
        reports.append(
            SettingReport(
                b_star,
                tuple(sorted(index.full_entropy - _entropy(c) for c in counts.values())),
                tuple(sorted(Counter(mask.bit_count() for mask in instances).items())),
                tuple(sorted(Counter(index.solver.costs(instances)).items())),
                not instances,
            )
        )
    predicted = max((cost for rep in reports for cost, _ in rep.instance_costs), default=None)
    missing = [rep.setting.text for rep in reports if rep.no_instance]

    notes: list[str] = []
    if missing:
        notes.append(
            f"no R=1/2 instance for {len(missing)} setting(s): " + ", ".join(missing[:8])
            + ("..." if len(missing) > 8 else "")
        )

    formula = reference = None
    n = problem.arg_bits
    if len(problem.settings) == 1 << n and problem.settings == build_grover(n).settings:
        if n % 2 == 0:
            formula = (1 << (n // 2)) - 1
            reference = math.ceil(math.pi / 4.0 * 2.0 ** (n / 2.0))
        else:
            notes.append(
                "no exact R=1/2 split: partial readouts act on whole bits; "
                f"floor/ceil splits give instance sizes {1 << (n - n // 2)} and {1 << (n // 2)} "
                f"with costs {(1 << (n - n // 2)) - 1} and {(1 << (n // 2)) - 1} "
                "(extrapolation, not a defined prediction)"
            )

    return QueryReport(
        problem=problem.name,
        family=core.family,
        complementary=config.complementary,
        baseline_queries=baseline,
        predicted_queries=predicted,
        per_setting=tuple(reports),
        grover_formula_queries=formula,
        grover_reference_queries=reference,
        notes=tuple(notes),
    )
