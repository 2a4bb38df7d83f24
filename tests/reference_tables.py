"""Hand-written ground truth used as independent oracles by the tests.

Everything here is spelled out from the problem definitions rather than
imported from the package: truth tables as literals, stage matrices built from
first principles with numpy, a plain (memo-free) minimax recursion for query
costs and its memoized twin for larger sets, and a breadth-first listing of
GF(2) subspaces.  The brute-force pair search is the one exception: it tests
every candidate spec pair with the package's definitional ``realized_subset``
and ``delta_entropy``.
"""

from __future__ import annotations

import itertools

import numpy as np

# Hidden-index search, n=2: f_b(a) = [a == b]
GROVER2_TABLES = {
    "00": (1, 0, 0, 0),
    "01": (0, 1, 0, 0),
    "10": (0, 0, 1, 0),
    "11": (0, 0, 0, 1),
}

# Constant-vs-balanced, n=2: the id string is the table
DJ2_SOLUTIONS = {
    "0000": "constant",
    "1111": "constant",
    "0011": "balanced",
    "1100": "balanced",
    "0101": "balanced",
    "1010": "balanced",
    "0110": "balanced",
    "1001": "balanced",
}

# Output labels of the H-oracle-H circuit, one per table (hand-computed)
DJ2_OUTCOMES = {
    "0000": "00",
    "1111": "00",
    "0011": "10",
    "1100": "10",
    "0101": "01",
    "1010": "01",
    "0110": "11",
    "1001": "11",
}

# Two-to-one tables with xor period h, n=2: id string is the table
SIMON2_PERIODS = {
    "0011": "01",
    "1100": "01",
    "0101": "10",
    "1010": "10",
    "0110": "11",
    "1001": "11",
}


def table_of(id_text: str, out_bits: int = 1) -> tuple[int, ...]:
    """Table entries (as ints) encoded by an id string."""
    chunks = [id_text[i : i + out_bits] for i in range(0, len(id_text), out_bits)]
    return tuple(int(c, 2) for c in chunks)


def brute_force_period(id_text: str) -> str:
    """Find h with f(a) = f(a ^ h) for all a by trying every nonzero h."""
    table = table_of(id_text)
    n = (len(table) - 1).bit_length()
    for h in range(1, len(table)):
        if all(table[a] == table[a ^ h] for a in range(len(table))):
            return format(h, f"0{n}b")
    raise AssertionError(f"no period in {id_text}")


def hadamard_matrix(width: int) -> np.ndarray:
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    out = np.array([[1.0]])
    for _ in range(width):
        out = np.kron(out, h1)
    return out


def mean_inversion_matrix(dim: int) -> np.ndarray:
    return 2.0 / dim * np.ones((dim, dim)) - np.eye(dim)


def phase_oracle_matrix(table: tuple[int, ...]) -> np.ndarray:
    return np.diag([(-1.0) ** v for v in table])


def xor_oracle_matrix(table: tuple[int, ...]) -> np.ndarray:
    """Permutation over (argument, one-bit target) with the target last."""
    dim = 2 * len(table)
    out = np.zeros((dim, dim))
    for a, value in enumerate(table):
        for v in (0, 1):
            out[2 * a + (v ^ value), 2 * a + v] = 1.0
    return out


def dj_outcome_by_walsh(id_text: str) -> str | None:
    """The sharp outcome of H . oracle . H on |0>, or None if not a basis state."""
    table = table_of(id_text)
    size = len(table)
    n = (size - 1).bit_length()
    amplitudes = []
    for d in range(size):
        total = sum(
            (-1) ** (table[a] + bin(a & d).count("1")) for a in range(size)
        )
        amplitudes.append(total / size)
    hits = [d for d, amp in enumerate(amplitudes) if abs(abs(amp) - 1.0) < 1e-12]
    if len(hits) != 1:
        return None
    return format(hits[0], f"0{n}b")


def plain_minimax_cost(tables: dict[str, tuple[int, ...]], solutions: dict[str, str], candidates) -> int:
    """Memo-free adversarial decision-tree recursion, straight from the definition."""
    candidates = tuple(sorted(candidates))
    values = {solutions[b] for b in candidates}
    if len(values) == 1:
        return 0
    n_args = len(next(iter(tables.values())))
    best = None
    for a in range(n_args):
        groups: dict[int, list[str]] = {}
        for b in candidates:
            groups.setdefault(tables[b][a], []).append(b)
        if len(groups) < 2:
            continue
        worst = max(
            plain_minimax_cost(tables, solutions, group) for group in groups.values()
        )
        if best is None or 1 + worst < best:
            best = 1 + worst
    if best is None:
        raise AssertionError("indistinguishable candidates")
    return best


def memo_minimax_cost(tables: dict[str, tuple[int, ...]], solutions: dict[str, str], candidates, memo=None) -> int:
    """The recursion of ``plain_minimax_cost``, memoized on the sorted candidate tuple.

    No bound prunes it, so it expands every set reachable by splitting; the
    memo makes that affordable on sets of a few dozen settings.
    """
    memo = {} if memo is None else memo
    candidates = tuple(sorted(candidates))
    if candidates in memo:
        return memo[candidates]
    best = None
    if len({solutions[b] for b in candidates}) == 1:
        best = 0
    else:
        for a in range(len(next(iter(tables.values())))):
            groups: dict[int, list[str]] = {}
            for b in candidates:
                groups.setdefault(tables[b][a], []).append(b)
            if len(groups) < 2:
                continue
            worst = max(memo_minimax_cost(tables, solutions, group, memo) for group in groups.values())
            if best is None or 1 + worst < best:
                best = 1 + worst
    if best is None:
        raise AssertionError("indistinguishable candidates")
    memo[candidates] = best
    return best


def plain_optimal_play(tables, solutions, candidates, queries, true_setting) -> bool:
    """Whether querying the arguments in turn is optimal play on the candidates, straight from the definition.

    ``queries`` are argument bit texts and the settings are id texts.  Each
    query must come while the answer is still open, split the candidates and
    attain their ``plain_minimax_cost``; the candidates then narrow to those
    that agree with ``true_setting`` on it.  The answer must be fixed at the
    end.  Raises ValueError for an argument of the wrong width (checked first)
    or a true setting outside the candidates; indistinguishable candidates
    raise as in ``plain_minimax_cost``.
    """
    arg_bits = (len(next(iter(tables.values()))) - 1).bit_length()
    for a in queries:
        if len(a) != arg_bits:
            raise ValueError(f"argument width {len(a)} != arg_bits {arg_bits}")
    if true_setting not in candidates:
        raise ValueError(f"true setting {true_setting} is not a candidate")
    candidates = set(candidates)
    for text in queries:
        a = int(text, 2)
        if len({solutions[b] for b in candidates}) == 1:
            return False  # queried after the answer was already fixed
        total = plain_minimax_cost(tables, solutions, candidates)
        groups: dict[int, list[str]] = {}
        for b in candidates:
            groups.setdefault(tables[b][a], []).append(b)
        if len(groups) < 2 or 1 + max(plain_minimax_cost(tables, solutions, g) for g in groups.values()) != total:
            return False
        candidates = set(groups[tables[true_setting][a]])
    return len({solutions[b] for b in candidates}) == 1


def reference_stage_matrix(
    registers, setting_register, kind, register, target=None, table=None, mapping=None, matrix=None
):
    """A stage matrix built one basis index at a time, straight from the definitions.

    ``registers`` lists (name, width) pairs in layout order; the setting
    register is left out of the state.  State basis indices are register-major
    and big-endian, the last register in the least significant bits.
    ``table`` holds f_b(a) for the branch setting.  Column i is the image of
    basis state i.
    """
    state = [(name, width) for name, width in registers if name != setting_register]
    shifts = {}
    shift = 0
    for name, width in reversed(state):
        shifts[name] = (shift, width)
        shift += width
    dim = 1 << shift

    def get(index, name):
        s, w = shifts[name]
        return (index >> s) & ((1 << w) - 1)

    def put(index, name, value):
        s, w = shifts[name]
        return (index & ~(((1 << w) - 1) << s)) | (value << s)

    d = 1 << shifts[register][1]
    if kind == "hadamard":
        block = [[(-1) ** bin(x & y).count("1") / np.sqrt(d) for y in range(d)] for x in range(d)]
    elif kind == "inversion_about_mean":
        block = [[2.0 / d - (x == y) for y in range(d)] for x in range(d)]
    else:
        block = matrix
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        v = get(i, register)
        if kind in ("hadamard", "inversion_about_mean", "custom"):
            for w in range(d):
                out[put(i, register, w), i] = block[w][v]
        elif kind == "permutation":
            out[put(i, register, mapping[v]), i] = 1.0
        elif kind == "bitwise_not":
            out[put(i, register, v ^ (d - 1)), i] = 1.0
        elif kind == "oracle_xor":
            out[put(i, target, get(i, target) ^ table[v]), i] = 1.0
        elif kind == "oracle_phase":
            out[i, i] = (-1.0) ** table[v]
        else:
            raise AssertionError(f"unknown kind {kind}")
    return out


def _register_values(registers, setting_register, setting, index):
    """Per-register values of one state basis index, the setting register reading ``setting``."""
    values = {}
    for name, width in reversed(registers):
        if name == setting_register:
            values[name] = setting
        else:
            values[name] = index & ((1 << width) - 1)
            index >>= width
    return values


def reference_outcomes(registers, setting_register, branches, measured):
    """Born-rule distribution of the measured registers, one basis index at a time.

    ``branches`` holds (setting value, weight, amplitudes) triples; outcomes
    are the measured registers' bit texts concatenated in the given order.
    """
    widths = dict(registers)
    probs = {}
    for setting, weight, amplitudes in branches:
        for index, amp in enumerate(amplitudes):
            values = _register_values(registers, setting_register, setting, index)
            text = "".join(format(values[name], f"0{widths[name]}b") for name in measured)
            probs[text] = probs.get(text, 0.0) + weight * abs(amp) ** 2
    return {text: p for text, p in probs.items() if p > 1e-15}


def reference_joint_vector(registers, setting_register, setting, amplitudes):
    """The joint vector |b>|psi> over all registers in layout order, setting included."""
    out = np.zeros(1 << sum(w for _, w in registers), dtype=np.complex128)
    for index, amp in enumerate(amplitudes):
        values = _register_values(registers, setting_register, setting, index)
        joint = 0
        for name, width in registers:
            joint = (joint << width) | values[name]
        out[joint] = amp
    return out


def gf2_rref(vectors) -> tuple[int, ...]:
    """Reduced echelon basis of the span over GF(2), rows in descending order."""
    rows: list[int] = []
    for vector in vectors:
        for row in rows:
            vector = min(vector, vector ^ row)
        if vector:
            rows = [min(row, row ^ vector) for row in rows] + [vector]
    return tuple(sorted(rows, reverse=True))


def gf2_span(vectors) -> list[int]:
    """Every vector of the span over GF(2), ascending."""
    span = {0}
    for vector in vectors:
        span |= {v ^ vector for v in span}
    return sorted(span)


def bfs_subspaces(width: int) -> tuple[tuple[int, ...], ...]:
    """Every subspace of GF(2)^width as its canonical basis, grown one vector at a time."""
    seen = {()}
    frontier = [()]
    while frontier:
        grown = []
        for basis in frontier:
            span = set(gf2_span(basis))
            for vector in range(1, 1 << width):
                if vector not in span:
                    extended = gf2_rref(basis + (vector,))
                    if extended not in seen:
                        seen.add(extended)
                        grown.append(extended)
        frontier = grown
    return tuple(sorted(seen, key=lambda b: (len(b), b)))


def reference_specs(problem, family):
    """Every readout of the family in canonical order: by size, then cells or basis."""
    from oraclelab.akrule import MeasurementSpec, cells_spec
    from oraclelab.qstate import BitString

    if family == "cells":
        positions = range(1 << problem.arg_bits)
        return [cells_spec(c) for size in range(len(positions) + 1) for c in itertools.combinations(positions, size)]
    width = problem.setting_width
    return [MeasurementSpec("linear", masks=tuple(BitString(v, width) for v in basis)) for basis in bfs_subspaces(width)]


def _candidate_pairs(problem, family, complementary):
    """Unordered spec pairs in canonical order: cells complements, linear direct sums, or any two."""
    from oraclelab.akrule import cells_spec

    specs = reference_specs(problem, family)
    if complementary and family == "cells":
        everything = frozenset(range(1 << problem.arg_bits))
        for spec in specs:
            other = everything - spec.cells
            if sorted(spec.cells) <= sorted(other):
                yield spec, cells_spec(other)
    elif complementary:
        width = problem.setting_width
        for p in range(width // 2 + 1):
            low = [s for s in specs if len(s.masks) == p]
            high = [s for s in specs if len(s.masks) == width - p]
            pairs = itertools.combinations(low, 2) if 2 * p == width else itertools.product(low, high)
            for spec_i, spec_j in pairs:
                if len(gf2_rref([m.value for m in spec_i.masks + spec_j.masks])) == width:
                    yield spec_i, spec_j
    else:
        yield from itertools.combinations(specs, 2)


def brute_force_pairs(problem, b_star, family, complementary, atol=1e-9):
    """Every valid pair for one setting, straight from the definitions.

    Returns (pairs, partnered): pairs as (spec_i, subset_i, spec_j, subset_j,
    epsilon), deduplicated by subset pair (the first spec pair in candidate
    order wins) and sorted by sorted setting values; partnered, every spec
    with at least one valid partner, in canonical spec order.
    """
    from oraclelab.akrule import delta_entropy, realized_subset

    def key(subset):
        return tuple(sorted(b.value for b in subset))

    subsets = {spec: realized_subset(problem, spec, b_star) for spec in reference_specs(problem, family)}
    undetermined = {s: len({problem.setting(b).solution for b in s}) >= 2 for s in subsets.values()}
    eps = {s: delta_entropy(problem, s) for s in subsets.values()}
    found = {}
    partnered = set()
    for spec_i, spec_j in _candidate_pairs(problem, family, complementary):
        s_i, s_j = subsets[spec_i], subsets[spec_j]
        if len(s_i & s_j) != 1 or not (undetermined[s_i] and undetermined[s_j]):
            continue
        eps_i, eps_j = eps[s_i], eps[s_j]
        if abs(eps_i - eps_j) > atol:
            continue
        partnered.update((spec_i, spec_j))
        if key(s_j) < key(s_i):
            spec_i, s_i, spec_j, s_j, eps_i = spec_j, s_j, spec_i, s_i, eps_j
        found.setdefault((key(s_i), key(s_j)), (spec_i, s_i, spec_j, s_j, eps_i))
    return [found[k] for k in sorted(found)], [s for s in reference_specs(problem, family) if s in partnered]
