"""Oracle problem families: setting sets, function tables, solution maps.

A problem is a family of functions ``f_b : {0,1}^n -> {0,1}^m`` indexed by a
hidden setting ``b``.  Each setting stores its full truth table, the coarse
answer the solver must produce (``solution``) and the fine-grained register
label a solving circuit leaves behind (``a_outcome``).  The two coincide for
the search and period problems; the constant-vs-balanced problem keeps them
apart because four distinct register labels map onto two answers.

Built-in builders cover hidden-index search (``grover``), constant-vs-balanced
tables (``dj``) and xor-period tables (``simon``); arbitrary problems load
from the JSON schema documented in the README.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .qstate import MAX_TOTAL_WIDTH, BranchEnsemble, BitString, RegisterLayout

FAMILIES = ("cells", "linear")


class ProblemFormatError(ValueError):
    """A problem document violates the schema or an invariant."""


@dataclass(frozen=True)
class Setting:
    """One hidden setting: its id, truth table, answer label and register outcome."""

    id: BitString
    table: tuple[BitString, ...]
    solution: str
    a_outcome: BitString


@dataclass(frozen=True)
class OracleProblem:
    """Settings in ascending id order.  Built with the problem: ``rows`` maps an id value
    to its row, and the read-only int array ``values`` holds f_b(a) at ``values[row(b), a]``."""

    name: str
    arg_bits: int
    out_bits: int
    settings: tuple[Setting, ...]
    default_family: str
    rows: dict[int, int] = field(init=False, repr=False, compare=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.arg_bits < 1:
            raise ValueError("arg_bits must be >= 1")
        if not 1 <= self.out_bits <= self.arg_bits:
            raise ValueError(
                f"out_bits must satisfy 1 <= m <= n, got m={self.out_bits}, n={self.arg_bits}"
            )
        if self.default_family not in FAMILIES:
            raise ValueError(f"unknown family {self.default_family!r}")
        if not self.settings:
            raise ValueError("problem needs at least one setting")
        ordered = tuple(sorted(self.settings, key=lambda s: s.id.value))
        object.__setattr__(self, "settings", ordered)
        table_len = 1 << self.arg_bits
        id_width = ordered[0].id.width
        outcome_width = ordered[0].a_outcome.width
        rows: dict[int, int] = {}
        outcome_solution: dict[int, str] = {}
        for st in ordered:
            if st.id.width != id_width:
                raise ValueError(f"setting {st.id}: id widths differ across settings")
            if st.id.value in rows:
                raise ValueError(f"duplicate setting id {st.id}")
            rows[st.id.value] = len(rows)
            if len(st.table) != table_len:
                raise ValueError(
                    f"setting {st.id}: table has {len(st.table)} entries, expected {table_len}"
                )
            for entry in st.table:
                if entry.width != self.out_bits:
                    raise ValueError(f"setting {st.id}: table entry width != out_bits")
            if st.a_outcome.width != outcome_width:
                raise ValueError(f"setting {st.id}: a_outcome widths differ across settings")
            known = outcome_solution.setdefault(st.a_outcome.value, st.solution)
            if known != st.solution:
                raise ValueError(
                    f"a_outcome {st.a_outcome} maps to both solutions "
                    f"{known!r} and {st.solution!r}"
                )
        blocks = Counter(st.a_outcome.value for st in ordered)
        sizes = set(blocks.values())
        if len(sizes) > 1:
            detail = ", ".join(str(c) for c in sorted(blocks.values()))
            raise ValueError(f"outcome blocks must have equal sizes, got sizes {detail}")
        values = np.array([[entry.value for entry in st.table] for st in ordered], dtype=np.int64)
        values.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "values", values)

    def __reduce__(self):
        # rebuild through __init__, so pickles and copies carry the fields and
        # build their own rows and values, but none of the views cached on this object
        return type(self), (self.name, self.arg_bits, self.out_bits, self.settings, self.default_family)

    @property
    def setting_width(self) -> int:
        return self.settings[0].id.width

    @property
    def outcome_width(self) -> int:
        return self.settings[0].a_outcome.width

    def setting_ids(self) -> tuple[BitString, ...]:
        return tuple(st.id for st in self.settings)

    def row(self, b: BitString) -> int:
        """The setting's row; the one check that a setting belongs to the problem."""
        i = self.rows.get(b.value)
        if i is None or self.settings[i].id.width != b.width:
            raise ValueError(f"unknown setting {b} for problem {self.name!r}")
        return i

    def setting(self, b: BitString) -> Setting:
        return self.settings[self.row(b)]


def evaluate(problem: OracleProblem, b: BitString, a: "BitString | int") -> BitString:
    """One oracle query: the table entry f_b(a)."""
    st = problem.setting(b)
    if isinstance(a, BitString):
        if a.width != problem.arg_bits:
            raise ValueError(f"argument width {a.width} != arg_bits {problem.arg_bits}")
        index = a.value
    else:
        index = int(a)
    if not 0 <= index < (1 << problem.arg_bits):
        raise ValueError(f"argument {index} out of range for {problem.arg_bits} bits")
    return st.table[index]


def build_grover(n: int) -> OracleProblem:
    """Hidden-index search: f_b(a) = 1 exactly when a = b."""
    if not 1 <= n <= 8:
        raise ValueError(f"grover supports 1 <= n <= 8, got {n}")
    size = 1 << n
    settings = []
    for value in range(size):
        b = BitString(value, n)
        table = tuple(BitString(1 if a == value else 0, 1) for a in range(size))
        settings.append(Setting(b, table, b.text, b))
    return OracleProblem("grover", n, 1, tuple(settings), "linear")


def _dj_tables(n: int) -> list[tuple[int, ...]]:
    size = 1 << n
    tables = [tuple([0] * size), tuple([1] * size)]
    for ones in itertools.combinations(range(size), size // 2):
        tables.append(tuple(1 if a in ones else 0 for a in range(size)))
    return tables


def build_dj(n: int) -> OracleProblem:
    """All constant and balanced one-bit tables; outcomes read off the solving circuit."""
    if not 1 <= n <= 3:
        raise ValueError(f"dj supports 1 <= n <= 3, got {n}")
    size = 1 << n
    provisional_settings = []
    for entries in _dj_tables(n):
        table = tuple(BitString(v, 1) for v in entries)
        bits = BitString.from_text("".join(str(v) for v in entries))
        solution = "constant" if len(set(entries)) == 1 else "balanced"
        # provisional a_outcome = id; replaced by the circuit-derived label below
        provisional_settings.append(Setting(bits, table, solution, bits))
    provisional = OracleProblem("dj", n, 1, tuple(provisional_settings), "cells")

    from .circuits import derive_a_outcome, dj_circuit_for  # deferred: circuits imports us

    circuit = dj_circuit_for(provisional)
    final = []
    for st in provisional.settings:
        try:
            outcome = derive_a_outcome(circuit, provisional, st.id)
        except ValueError as exc:
            raise ValueError(
                f"dj n={n}: table {st.id.text} leaves the answer register in a "
                "superposition, so no per-setting outcome label exists; the full "
                "constant-vs-balanced family has sharp outcomes only for n <= 2"
            ) from exc
        final.append(replace(st, a_outcome=outcome))
    return OracleProblem("dj", n, 1, tuple(final), "cells")


def build_simon(n: int) -> OracleProblem:
    """All two-to-one tables with a nonzero xor period h: f(a) = f(c) iff a = c or a = c xor h."""
    if n not in (2, 3):
        raise ValueError(f"simon supports n in {{2, 3}}, got {n}")
    m = n - 1
    size = 1 << n
    settings = []
    for h in range(1, size):
        coset_index: dict[int, int] = {}
        for a in range(size):
            if a not in coset_index:
                idx = len(set(coset_index.values()))
                coset_index[a] = idx
                coset_index[a ^ h] = idx
        n_cosets = size // 2
        for values in itertools.permutations(range(1 << m), n_cosets):
            entries = [values[coset_index[a]] for a in range(size)]
            table = tuple(BitString(v, m) for v in entries)
            bits = BitString.from_text("".join(e.text for e in table))
            h_bits = BitString(h, n)
            settings.append(Setting(bits, table, h_bits.text, h_bits))
    return OracleProblem("simon", n, m, tuple(settings), "cells")


_BUILTIN_PROBLEMS = {"grover": build_grover, "dj": build_dj, "simon": build_simon}


def serialize_problem(problem: OracleProblem) -> str:
    document = {
        "name": problem.name,
        "arg_bits": problem.arg_bits,
        "out_bits": problem.out_bits,
        "family": problem.default_family,
        "settings": [
            {
                "id": st.id.text,
                "table": [entry.text for entry in st.table],
                "solution": st.solution,
                "a_outcome": st.a_outcome.text,
            }
            for st in problem.settings
        ],
    }
    return json.dumps(document, indent=2)


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ProblemFormatError(f"{path}: {message}")


def _require_int(data: dict, key: str, low: int, high: int) -> None:
    value = data[key]
    in_range = isinstance(value, int) and not isinstance(value, bool) and low <= value <= high
    _require(in_range, key, f"expected an integer from {low} to {high}, got {value!r}")


def load_problem(document: str) -> OracleProblem:
    """Parse and validate a JSON problem document; errors carry field paths."""
    try:
        data = json.loads(document)
    except (ValueError, RecursionError) as exc:  # also over-long integers and deep nesting
        raise ProblemFormatError(f"document: not valid JSON ({exc})") from exc
    _require(isinstance(data, dict), "document", "expected a JSON object")
    for key in ("name", "arg_bits", "out_bits", "settings"):
        _require(key in data, key, "missing required field")
    _require(isinstance(data["name"], str) and data["name"] != "", "name", "expected nonempty text")
    _require_int(data, "arg_bits", 1, MAX_TOTAL_WIDTH)
    _require_int(data, "out_bits", 1, data["arg_bits"])
    family = data.get("family", "cells")
    _require(family in FAMILIES, "family", f"expected one of {FAMILIES}, got {family!r}")
    raw_settings = data["settings"]
    _require(isinstance(raw_settings, list) and raw_settings, "settings", "expected a nonempty list")

    settings = []
    seen_ids: dict[str, int] = {}
    for i, raw in enumerate(raw_settings):
        path = f"settings[{i}]"
        _require(isinstance(raw, dict), path, "expected a JSON object")
        for key in ("id", "table", "solution"):
            _require(key in raw, f"{path}.{key}", "missing required field")
        _require(isinstance(raw["id"], str), f"{path}.id", "expected a bit string")
        try:
            bits = BitString.from_text(raw["id"])
        except ValueError as exc:
            raise ProblemFormatError(f"{path}.id: {exc}") from exc
        if raw["id"] in seen_ids:
            raise ProblemFormatError(
                f"{path}.id: duplicate setting id {raw['id']!r} "
                f"(first at settings[{seen_ids[raw['id']]}])"
            )
        seen_ids[raw["id"]] = i
        table_raw = raw["table"]
        expected = 1 << data["arg_bits"]
        _require(isinstance(table_raw, list), f"{path}.table", "expected a list")
        _require(
            len(table_raw) == expected,
            f"{path}.table",
            f"expected {expected} entries, got {len(table_raw)}",
        )
        table = []
        for j, cell in enumerate(table_raw):
            _require(isinstance(cell, str), f"{path}.table[{j}]", "expected a bit string")
            try:
                entry = BitString.from_text(cell)
            except ValueError as exc:
                raise ProblemFormatError(f"{path}.table[{j}]: {exc}") from exc
            _require(
                entry.width == data["out_bits"],
                f"{path}.table[{j}]",
                f"entry width {entry.width} != out_bits {data['out_bits']}",
            )
            table.append(entry)
        solution = raw["solution"]
        _require(isinstance(solution, str) and solution != "", f"{path}.solution", "expected nonempty text")
        outcome_raw = raw.get("a_outcome", solution)
        _require(isinstance(outcome_raw, str), f"{path}.a_outcome", "expected a bit string")
        try:
            outcome = BitString.from_text(outcome_raw)
        except ValueError as exc:
            raise ProblemFormatError(
                f"{path}.a_outcome: {exc} (a_outcome defaults to the solution text)"
            ) from exc
        settings.append(Setting(bits, tuple(table), solution, outcome))
    try:
        return OracleProblem(data["name"], data["arg_bits"], data["out_bits"], tuple(settings), family)
    except ValueError as exc:
        raise ProblemFormatError(f"settings: {exc}") from exc


def split_selector(selector: str) -> tuple[str, "int | str"]:
    """The kind and argument of a selector: (kind, K) for KIND:n=K, ("file", PATH) for file:PATH."""
    kind, sep, rest = selector.partition(":")
    if not sep:
        raise ValueError(f"malformed problem selector {selector!r}")
    if kind == "file":
        return kind, rest
    if kind not in _BUILTIN_PROBLEMS:
        raise ValueError(f"unknown problem kind {kind!r} in selector {selector!r}")
    if not rest.startswith("n=") or not rest[2:].isdigit():
        raise ValueError(f"selector {selector!r} needs the form {kind}:n=K")
    return kind, int(rest[2:])


def parse_selector(selector: str) -> OracleProblem:
    """Build a problem from a selector: grover:n=K, dj:n=K, simon:n=K or file:PATH."""
    kind, arg = split_selector(selector)
    if kind == "file":
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                return load_problem(fh.read())
        except OSError as exc:
            raise ValueError(f"cannot read problem file {arg!r}: {exc}") from exc
    return _BUILTIN_PROBLEMS[kind](arg)


def problem_layout(problem: OracleProblem, include_v: bool = False) -> RegisterLayout:
    """B/A (and optionally V) register layout sized for the problem."""
    registers: list[tuple[str, int]] = [
        ("B", problem.setting_width),
        ("A", problem.outcome_width),
    ]
    if include_v:
        registers.append(("V", problem.out_bits))
    return RegisterLayout(tuple(registers), "B")


def output_ensemble(problem: OracleProblem) -> BranchEnsemble:
    """The solved form: each branch carries its setting's a_outcome in register A."""
    layout = problem_layout(problem)
    rows = np.eye(layout.state_dim)[[st.a_outcome.value for st in problem.settings]]
    return BranchEnsemble(layout, problem.setting_ids(), (1.0 / len(rows),) * len(rows), rows)
