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
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .oracle import OracleProblem, build_grover, output_ensemble
from .qstate import BitString, project_setting_subset, reduced_entropy

MAX_LINEAR_WIDTH = 6
MAX_CELLS_POSITIONS = 16


@dataclass(frozen=True)
class AkConfig:
    """Knobs of the analysis; only half retroaction is defined."""

    retroaction: Fraction = Fraction(1, 2)
    family: str | None = None
    complementary: bool = True
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if Fraction(self.retroaction) != Fraction(1, 2):
            raise ValueError(
                f"retroaction {self.retroaction} is not supported; only 1/2 has a defined procedure"
            )
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


def linear_spec(masks: Iterable[BitString]) -> MeasurementSpec:
    """Canonicalize the masks to the reduced echelon basis of their span."""
    masks = tuple(masks)
    width = masks[0].width if masks else 0
    if any(m.width != width for m in masks):
        raise ValueError("all masks must share one width")
    basis = _rref([m.value for m in masks])
    return MeasurementSpec("linear", masks=tuple(BitString(v, width) for v in basis) if basis else ())


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


def _rref(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced echelon basis of the span, rows sorted by leading bit, descending."""
    pivots: dict[int, int] = {}
    for vector in vectors:
        current = vector
        while current:
            lead = current.bit_length() - 1
            if lead in pivots:
                current ^= pivots[lead]
            else:
                pivots[lead] = current
                break
    rows = sorted(pivots.values(), key=lambda r: -(r.bit_length()))
    for i in range(len(rows)):
        for j in range(len(rows)):
            if i != j:
                lead = rows[j].bit_length() - 1
                if (rows[i] >> lead) & 1:
                    rows[i] ^= rows[j]
    return tuple(sorted(rows, reverse=True))


def _rank(vectors: Iterable[int]) -> int:
    return len(_rref(vectors))


def _dot(mask: int, value: int) -> int:
    return bin(mask & value).count("1") & 1


def _span(basis: Iterable[int]) -> list[int]:
    vectors = [0]
    for b in basis:
        vectors += [v ^ b for v in vectors]
    return vectors


def _nullspace(basis: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Basis of {x : mask . x = 0 for all masks}, width bits."""
    # full reduction first: each pivot bit then occurs in exactly one row,
    # so the pivot coordinates of a kernel vector can be set independently
    rows = _rref(basis)
    pivot_cols = [r.bit_length() - 1 for r in rows]
    out = []
    for free in (c for c in range(width) if c not in pivot_cols):
        vec = 1 << free
        for col, row in zip(pivot_cols, rows):
            if (row >> free) & 1:
                vec ^= 1 << col
        out.append(vec)
    return tuple(out)


@functools.lru_cache(maxsize=8)
def _all_subspaces(width: int) -> tuple[tuple[int, ...], ...]:
    """Canonical bases of every subspace of GF(2)^width, the trivial one included."""
    seen: set[tuple[int, ...]] = {()}
    frontier: list[tuple[int, ...]] = [()]
    while frontier:
        next_frontier = []
        for basis in frontier:
            span = set(_span(basis))
            for vector in range(1, 1 << width):
                if vector not in span:
                    extended = _rref(list(basis) + [vector])
                    if extended not in seen:
                        seen.add(extended)
                        next_frontier.append(extended)
        frontier = next_frontier
    return tuple(sorted(seen, key=lambda b: (len(b), b)))


def _pivot_table(basis: tuple[int, ...]) -> dict[int, int]:
    pivots: dict[int, int] = {}
    for row in basis:
        current = row
        while current:
            lead = current.bit_length() - 1
            if lead in pivots:
                current ^= pivots[lead]
            else:
                pivots[lead] = current
                break
    return pivots


def _extends_to_full(pivots: dict[int, int], rows: tuple[int, ...], width: int) -> bool:
    """Whether adding the rows to the pivot table reaches full rank, independently."""
    if len(pivots) + len(rows) != width:
        return False
    merged = dict(pivots)
    for row in rows:
        current = row
        while current:
            lead = current.bit_length() - 1
            if lead in merged:
                current ^= merged[lead]
            else:
                merged[lead] = current
                break
        else:
            return False
    return len(merged) == width


# ---------------------------------------------------------------------------
# Family index: per-problem static structures for one measurement family


class _FamilyIndex:
    """Precomputed specs and realized-subset machinery for one problem/family."""

    def __init__(self, problem: OracleProblem, family: str):
        self.problem = problem
        self.family = family
        self.ids = tuple(st.id for st in problem.settings)
        self.full_entropy = _outcome_entropy(problem, self.ids)
        if family == "cells":
            positions = 1 << problem.arg_bits
            if positions > MAX_CELLS_POSITIONS:
                raise ValueError(
                    f"cells enumeration supports tables of up to {MAX_CELLS_POSITIONS} "
                    f"entries, this problem has {positions}"
                )
            self.positions = positions
            self.specs = tuple(
                cells_spec(c)
                for size in range(positions + 1)
                for c in itertools.combinations(range(positions), size)
            )
            self._groups: dict[frozenset[int], dict[tuple[int, ...], frozenset[BitString]]] = {}
        elif family == "linear":
            width = problem.setting_width
            if width > MAX_LINEAR_WIDTH:
                raise ValueError(
                    f"linear enumeration supports setting widths up to {MAX_LINEAR_WIDTH}, "
                    f"this problem has {width} bits per setting"
                )
            self.width = width
            self.specs = tuple(
                MeasurementSpec("linear", masks=tuple(BitString(v, width) for v in basis))
                for basis in _all_subspaces(width)
            )
            self._basis = {spec: tuple(m.value for m in spec.masks) for spec in self.specs}
            self._spec_by_basis = {basis: spec for spec, basis in self._basis.items()}
            self._pivots = {basis: _pivot_table(basis) for basis in self._spec_by_basis}
            self._complement: dict[tuple[int, ...], tuple[int, ...]] = {}
            self._coset_span: dict[tuple[int, ...], tuple[int, ...]] = {}
            self._by_value = {st.id.value: st.id for st in problem.settings}
        else:
            raise ValueError(f"unknown measurement family {family!r}")

    def subset(self, spec: MeasurementSpec, b_star: BitString) -> frozenset[BitString]:
        if self.family == "cells":
            groups = self._cells_groups(spec.cells)
            return groups[self._projection(spec.cells, b_star)]
        return self.subset_by_basis(tuple(m.value for m in spec.masks), b_star.value)

    def subset_by_basis(self, basis: tuple[int, ...], b_value: int) -> frozenset[BitString]:
        span = self._coset_span.get(basis)
        if span is None:
            span = tuple(_span(_nullspace(basis, self.width)))
            self._coset_span[basis] = span
        members = []
        for offset in span:
            hit = self._by_value.get(b_value ^ offset)
            if hit is not None:
                members.append(hit)
        return frozenset(members)

    def direct_sum_fast(self, basis_a: tuple[int, ...], basis_b: tuple[int, ...]) -> bool:
        if len(basis_a) + len(basis_b) != self.width:
            return False
        return _extends_to_full(self._pivots[basis_a], basis_b, self.width)

    def greedy_complement(self, basis: tuple[int, ...]) -> tuple[int, ...]:
        """One canonical direct-sum complement, completed from unit vectors."""
        cached = self._complement.get(basis)
        if cached is None:
            pivots = dict(self._pivots[basis])
            added: list[int] = []
            for col in range(self.width - 1, -1, -1):
                current = 1 << col
                while current:
                    lead = current.bit_length() - 1
                    if lead in pivots:
                        current ^= pivots[lead]
                    else:
                        pivots[lead] = current
                        added.append(1 << col)
                        break
            cached = _rref(added)
            self._complement[basis] = cached
        return cached

    def _projection(self, cells: frozenset[int], b: BitString) -> tuple[int, ...]:
        st = self.problem.setting(b)
        return tuple(st.table[q].value for q in sorted(cells))

    def _cells_groups(self, cells: frozenset[int]) -> dict[tuple[int, ...], frozenset[BitString]]:
        groups = self._groups.get(cells)
        if groups is None:
            acc: dict[tuple[int, ...], list[BitString]] = {}
            for st in self.problem.settings:
                acc.setdefault(tuple(st.table[q].value for q in sorted(cells)), []).append(st.id)
            groups = {k: frozenset(v) for k, v in acc.items()}
            self._groups[cells] = groups
        return groups

    def candidate_pairs(self, complementary: bool) -> Iterator[tuple[MeasurementSpec, MeasurementSpec]]:
        """Unordered spec pairs to test, in deterministic order."""
        if self.family == "cells":
            if complementary:
                everything = frozenset(range(self.positions))
                for spec in self.specs:
                    other = everything - spec.cells
                    if tuple(sorted(spec.cells)) <= tuple(sorted(other)):
                        yield spec, cells_spec(other)
            else:
                yield from itertools.combinations(self.specs, 2)
            return
        if complementary:
            by_dim: dict[int, list[MeasurementSpec]] = {}
            for spec in self.specs:
                by_dim.setdefault(len(spec.masks), []).append(spec)
            for p in sorted(by_dim):
                q = self.width - p
                if q < p or q not in by_dim:
                    continue
                if p == q:
                    candidates = itertools.combinations(by_dim[p], 2)
                else:
                    candidates = itertools.product(by_dim[p], by_dim[q])
                for spec_i, spec_j in candidates:
                    if self.direct_sum_fast(self._basis[spec_i], self._basis[spec_j]):
                        yield spec_i, spec_j
        else:
            yield from itertools.combinations(self.specs, 2)


@functools.lru_cache(maxsize=16)
def _family_index(problem: OracleProblem, family: str) -> _FamilyIndex:
    return _FamilyIndex(problem, family)


def _resolve_family(problem: OracleProblem, config: AkConfig | None) -> tuple[AkConfig, str]:
    config = config or AkConfig()
    return config, config.family or problem.default_family


# ---------------------------------------------------------------------------
# Entropies


def realized_subset(problem: OracleProblem, spec: MeasurementSpec, b_star: BitString) -> frozenset[BitString]:
    """Settings indistinguishable from the true one under the partial readout.

    Cells: every setting whose table agrees with the true one on the chosen
    positions.  Linear: every setting with the same parities under all masks.
    """
    problem.setting(b_star)
    if spec.family == "cells":
        if any(q >= (1 << problem.arg_bits) for q in spec.cells):
            raise ValueError("cell position out of range for this problem")
        st0 = problem.setting(b_star)
        reference = tuple(st0.table[q].value for q in sorted(spec.cells))
        return frozenset(
            st.id
            for st in problem.settings
            if tuple(st.table[q].value for q in sorted(spec.cells)) == reference
        )
    if any(m.width != problem.setting_width for m in spec.masks):
        raise ValueError("mask width does not match the setting width")
    return frozenset(
        st.id
        for st in problem.settings
        if all(_dot(m.value, st.id.value) == _dot(m.value, b_star.value) for m in spec.masks)
    )


def _outcome_entropy(problem: OracleProblem, subset: Iterable[BitString]) -> float:
    counts = Counter(problem.setting(b).a_outcome.value for b in subset)
    total = sum(counts.values())
    entropy = 0.0
    for c in counts.values():
        p = c / total
        entropy -= p * math.log2(p)
    return entropy


def delta_entropy(problem: OracleProblem, subset: Iterable[BitString]) -> float:
    """Output-register entropy drop when the setting is known to lie in the subset.

    Computed as the difference of outcome-label Shannon entropies over the
    uniform full setting set and the uniform subset; the orthogonality of the
    per-setting output states makes this equal to the von Neumann route
    (see :func:`delta_entropy_via_states`).
    """
    subset = tuple(subset)
    if not subset:
        raise ValueError("empty subset")
    return _outcome_entropy(problem, problem.setting_ids()) - _outcome_entropy(problem, subset)


def delta_entropy_via_states(problem: OracleProblem, subset: Iterable[BitString]) -> float:
    """The same entropy drop via reduced density operators of projected output states."""
    out = output_ensemble(problem)
    whole = reduced_entropy(out, "A")
    return whole - reduced_entropy(project_setting_subset(out, subset), "A")


# ---------------------------------------------------------------------------
# Pair enumeration


def _subset_key(subset: frozenset[BitString]) -> tuple[int, ...]:
    return tuple(sorted(b.value for b in subset))


def _solutions(problem: OracleProblem, subset: Iterable[BitString]) -> set[str]:
    return {problem.setting(b).solution for b in subset}


class _SettingContext:
    """Per-(setting, config) caches used while enumerating pairs."""

    def __init__(self, index: _FamilyIndex, b_star: BitString, tolerance: float):
        self.index = index
        self.b_star = b_star
        self.tolerance = tolerance
        self._subsets: dict[MeasurementSpec, frozenset[BitString]] = {}
        self._eps: dict[tuple[int, ...], float] = {}
        self._undetermined: dict[tuple[int, ...], bool] = {}

    def subset(self, spec: MeasurementSpec) -> frozenset[BitString]:
        subset = self._subsets.get(spec)
        if subset is None:
            subset = self.index.subset(spec, self.b_star)
            self._subsets[spec] = subset
        return subset

    def epsilon(self, subset: frozenset[BitString]) -> float:
        key = _subset_key(subset)
        eps = self._eps.get(key)
        if eps is None:
            eps = self.index.full_entropy - _outcome_entropy(self.index.problem, subset)
            self._eps[key] = eps
        return eps

    def undetermined(self, subset: frozenset[BitString]) -> bool:
        """Condition (no): the subset must not pin the answer down."""
        key = _subset_key(subset)
        value = self._undetermined.get(key)
        if value is None:
            value = len(_solutions(self.index.problem, subset)) >= 2
            self._undetermined[key] = value
        return value

    def pair_ok(self, s_i: frozenset[BitString], s_j: frozenset[BitString]) -> bool:
        if len(s_i & s_j) != 1:
            return False
        if not (self.undetermined(s_i) and self.undetermined(s_j)):
            return False
        return abs(self.epsilon(s_i) - self.epsilon(s_j)) <= self.tolerance


def enumerate_occam_pairs(
    problem: OracleProblem, b_star: BitString, config: AkConfig | None = None
) -> tuple[OccamPair, ...]:
    """All valid partial-readout pairs for one true setting.

    A pair passes when the realized subsets intersect exactly in the true
    setting, both entropy reductions agree within the tolerance, and neither
    subset determines the answer alone.  Pairs are deduplicated by their
    realized-subset pair and returned in canonical order.
    """
    problem.setting(b_star)
    config, family = _resolve_family(problem, config)
    index = _family_index(problem, family)
    ctx = _SettingContext(index, b_star, config.tolerance)
    found: dict[tuple, OccamPair] = {}
    for spec_i, spec_j in index.candidate_pairs(config.complementary):
        s_i = ctx.subset(spec_i)
        s_j = ctx.subset(spec_j)
        if not ctx.pair_ok(s_i, s_j):
            continue
        if _subset_key(s_j) < _subset_key(s_i):
            spec_i, s_i, spec_j, s_j = spec_j, s_j, spec_i, s_i
        key = (_subset_key(s_i), _subset_key(s_j))
        if key not in found:
            found[key] = OccamPair(spec_i, s_i, spec_j, s_j, ctx.epsilon(s_i))
    return tuple(found[key] for key in sorted(found))


def ak_instances(pairs: Iterable[OccamPair]) -> tuple[AkInstance, ...]:
    """Both subsets of every pair, deduplicated, each carrying its epsilon."""
    found: dict[tuple[int, ...], AkInstance] = {}
    for pair in pairs:
        for spec, subset in ((pair.spec_i, pair.subset_i), (pair.spec_j, pair.subset_j)):
            key = _subset_key(subset)
            if key not in found:
                found[key] = AkInstance(subset, spec, pair.epsilon)
    return tuple(found[key] for key in sorted(found))


def _setting_instances(
    index: _FamilyIndex, b_star: BitString, config: AkConfig
) -> list[AkInstance]:
    """Instances for one setting without materializing every pair.

    A spec contributes its subset as soon as one valid partner exists; this is
    the same predicate as :func:`enumerate_occam_pairs` with an early exit.
    Partner candidates are bucketed by dimension and entropy reduction so that
    large linear families stay tractable.
    """
    ctx = _SettingContext(index, b_star, config.tolerance)
    if index.family == "linear" and config.complementary:
        return _linear_complementary_instances(index, ctx, config)
    found: dict[tuple[int, ...], AkInstance] = {}
    for spec in index.specs:
        subset = ctx.subset(spec)
        key = _subset_key(subset)
        if key in found:
            continue
        if not ctx.undetermined(subset):
            continue
        if config.complementary:
            partners: Iterable[MeasurementSpec] = (
                cells_spec(frozenset(range(index.positions)) - spec.cells),
            )
        else:
            partners = (s for s in index.specs if s != spec)
        for partner in partners:
            if ctx.pair_ok(subset, ctx.subset(partner)):
                found[key] = AkInstance(subset, spec, ctx.epsilon(subset))
                break
    return [found[key] for key in sorted(found)]


def _linear_complementary_instances(
    index: _FamilyIndex, ctx: _SettingContext, config: AkConfig
) -> list[AkInstance]:
    tolerance = config.tolerance
    quantum = 8.0 * max(tolerance, 1e-12)
    b_value = ctx.b_star.value
    data: dict[tuple[int, ...], tuple[frozenset[BitString], float]] = {}
    buckets: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for spec in index.specs:
        basis = index._basis[spec]
        subset = index.subset_by_basis(basis, b_value)
        if not ctx.undetermined(subset):
            continue
        eps = ctx.epsilon(subset)
        data[basis] = (subset, eps)
        buckets.setdefault((len(basis), round(eps / quantum)), []).append(basis)
    found: dict[tuple[int, ...], AkInstance] = {}
    for basis, (subset, eps) in data.items():
        key = _subset_key(subset)
        if key in found:
            continue
        mate = index.greedy_complement(basis)
        hit = data.get(mate)
        if hit is not None and abs(hit[1] - eps) <= tolerance and len(subset & hit[0]) == 1:
            found[key] = AkInstance(subset, index._spec_by_basis[basis], eps)
            continue
        q = index.width - len(basis)
        base = round(eps / quantum)
        done = False
        for shift in (0, -1, 1):
            for candidate in buckets.get((q, base + shift), ()):
                if candidate == basis:
                    continue
                c_subset, c_eps = data[candidate]
                if abs(c_eps - eps) > tolerance:
                    continue
                if not index.direct_sum_fast(basis, candidate):
                    continue
                if len(subset & c_subset) != 1:
                    continue
                found[key] = AkInstance(subset, index._spec_by_basis[basis], eps)
                done = True
                break
            if done:
                break
    return [found[key] for key in sorted(found)]


def setting_instances(
    problem: OracleProblem, b_star: BitString, config: AkConfig | None = None
) -> tuple[AkInstance, ...]:
    """The advance-knowledge instances of one setting.

    Streaming equivalent of ``ak_instances(enumerate_occam_pairs(...))``: each
    spec's subset is admitted as soon as one valid partner is found, which
    keeps large linear families tractable.
    """
    problem.setting(b_star)
    config, family = _resolve_family(problem, config)
    index = _family_index(problem, family)
    return tuple(_setting_instances(index, b_star, config))


# ---------------------------------------------------------------------------
# Adversarial decision trees


@functools.lru_cache(maxsize=16)
def _solver_tables(problem: OracleProblem):
    ids = tuple(st.id for st in problem.settings)
    position = {b.value: i for i, b in enumerate(ids)}
    n_args = 1 << problem.arg_bits
    arg_groups: list[tuple[int, ...]] = []
    for a in range(n_args):
        groups: dict[int, int] = {}
        for i, st in enumerate(problem.settings):
            value = st.table[a].value
            groups[value] = groups.get(value, 0) | (1 << i)
        arg_groups.append(tuple(groups.values()))
    by_solution: dict[str, int] = {}
    for i, st in enumerate(problem.settings):
        by_solution[st.solution] = by_solution.get(st.solution, 0) | (1 << i)
    sol_mask_of = tuple(by_solution[st.solution] for st in problem.settings)
    return ids, position, tuple(arg_groups), tuple(by_solution.values()), sol_mask_of


class _TreeSolver:
    """Exact minimax query counts over candidate sets, memoized on bitmasks.

    The recursion follows the textbook definition: zero when the answer is
    constant on the set, else one plus the best argument's worst observed
    branch, over arguments that split the set.  Matching greedy upper and
    pigeonhole lower bounds close structured cases without expanding them.
    """

    def __init__(self, problem: OracleProblem):
        self.problem = problem
        (self.ids, self.position, self.arg_groups, self.solution_masks, self.sol_mask_of) = (
            _solver_tables(problem)
        )
        self._memo: dict[int, int] = {}
        self._greedy_memo: dict[int, int] = {}

    def mask_of(self, candidates: Iterable[BitString]) -> int:
        mask = 0
        for b in candidates:
            i = self.position.get(b.value)
            if i is None or self.ids[i] != b:
                raise ValueError(f"candidate {b} is not a setting of {self.problem.name!r}")
            mask |= 1 << i
        if mask == 0:
            raise ValueError("empty candidate set")
        return mask

    def _constant(self, mask: int) -> bool:
        first = (mask & -mask).bit_length() - 1
        return mask & ~self.sol_mask_of[first] == 0

    def _splits(self, mask: int, args: tuple[int, ...]):
        out = []
        for a in args:
            parts = [g & mask for g in self.arg_groups[a] if g & mask]
            if len(parts) >= 2:
                out.append((a, parts))
        return out

    def _greedy(self, mask: int, splits) -> int:
        cached = self._greedy_memo.get(mask)
        if cached is not None:
            return cached
        if not splits:
            raise ValueError("candidate settings are indistinguishable but disagree on the answer")
        best_parts = None
        best_largest = None
        for _, parts in splits:
            largest = max(p.bit_count() for p in parts)
            if best_largest is None or largest < best_largest:
                best_largest = largest
                best_parts = parts
        args = tuple(a for a, _ in splits)
        value = 1 + max(
            0 if self._constant(p) else self._greedy(p, self._splits(p, args)) for p in best_parts
        )
        self._greedy_memo[mask] = value
        return value

    def _lower(self, mask: int, splits) -> int:
        size = mask.bit_count()
        largest_block = max((sol_mask & mask).bit_count() for sol_mask in self.solution_masks)
        best_elimination = max(
            size - max(p.bit_count() for p in parts) for _, parts in splits
        )
        return -((size - largest_block) // -best_elimination)

    def _cost(self, mask: int, args: tuple[int, ...]) -> int:
        """Exact minimax cost; args need only contain every splitter of mask."""
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        if self._constant(mask):
            self._memo[mask] = 0
            return 0
        splits = self._splits(mask, args)
        if not splits:
            raise ValueError("candidate settings are indistinguishable but disagree on the answer")
        upper = self._greedy(mask, splits)
        lower = self._lower(mask, splits)
        if lower >= upper:
            self._memo[mask] = upper
            return upper
        best = upper
        narrowed = tuple(a for a, _ in splits)
        for _, parts in splits:
            worst = 0
            for part in parts:
                c = self._cost(part, narrowed)
                if c >= best - 1:
                    worst = None
                    break
                worst = max(worst, c)
            if worst is not None:
                best = min(best, 1 + worst)
                if best == lower:
                    break
        self._memo[mask] = best
        return best

    def cost(self, mask: int) -> int:
        return self._cost(mask, tuple(range(len(self.arg_groups))))


def decision_tree_cost(problem: OracleProblem, candidates: Iterable[BitString]) -> int:
    """Minimum worst-case adaptive queries to pin down the answer on the set.

    Cost is zero when the answer is constant; otherwise one plus the minimum
    over splitting arguments of the maximum branch cost, against an adversary
    choosing the observed value.  The memo table is confined to this call.
    """
    solver = _TreeSolver(problem)
    return solver.cost(solver.mask_of(candidates))


# ---------------------------------------------------------------------------
# Prediction


def predict_queries(problem: OracleProblem, config: AkConfig | None = None) -> QueryReport:
    """The headline query prediction and the classical baseline for a problem.

    The prediction is the worst decision-tree cost over every setting's
    advance-knowledge instances; settings without any valid pair are reported
    rather than skipped.  Search problems additionally carry the closed-form
    count ``2^(n/2) - 1`` and the reference ``ceil(pi/4 * 2^(n/2))`` for even
    widths, and a split note for odd widths where no exact half exists.
    """
    config, family = _resolve_family(problem, config)
    index = _family_index(problem, family)
    solver = _TreeSolver(problem)
    baseline = solver.cost(solver.mask_of(problem.setting_ids()))

    reports = []
    all_costs: list[int] = []
    missing: list[str] = []
    for b_star in problem.setting_ids():
        instances = _setting_instances(index, b_star, config)
        if not instances:
            missing.append(b_star.text)
            reports.append(SettingReport(b_star, (), (), (), True))
            continue
        costs = Counter()
        sizes = Counter()
        epsilons: list[float] = []
        for inst in instances:
            cost = solver.cost(solver.mask_of(inst.subset))
            costs[cost] += 1
            sizes[len(inst.subset)] += 1
            all_costs.append(cost)
            if not any(abs(inst.epsilon - e) <= config.tolerance for e in epsilons):
                epsilons.append(inst.epsilon)
        reports.append(
            SettingReport(
                b_star,
                tuple(sorted(epsilons)),
                tuple(sorted(sizes.items())),
                tuple(sorted(costs.items())),
                False,
            )
        )

    notes: list[str] = []
    if missing:
        notes.append(
            f"no R=1/2 instance for {len(missing)} setting(s): " + ", ".join(missing[:8])
            + ("..." if len(missing) > 8 else "")
        )
    predicted = max(all_costs) if all_costs else None

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
        family=family,
        complementary=config.complementary,
        baseline_queries=baseline,
        predicted_queries=predicted,
        per_setting=tuple(reports),
        grover_formula_queries=formula,
        grover_reference_queries=reference,
        notes=tuple(notes),
    )
