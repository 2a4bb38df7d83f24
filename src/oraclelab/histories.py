"""Enumeration of sharp-state paths through a staged circuit.

A history is one causal sequence of basis states, one per stage boundary, with
a nonzero transition amplitude at every step; its amplitude is the product of
the stage matrix elements along the way, so the amplitudes of all histories
between two endpoints sum to the composed-unitary matrix element.  Histories
are classified against advance-knowledge instances by checking whether their
oracle queries form an optimal-play transcript for the instance's candidate
set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .akrule import AkInstance, optimal_play
from .circuits import Circuit, _check_problem
from .oracle import OracleProblem
from .qstate import BitString

AMP_FLOOR = 1e-12


@dataclass(frozen=True)
class History:
    """One basis-state path: the setting, state indices per boundary, amplitude, queries."""

    setting: BitString
    path: tuple[int, ...]
    amplitude: complex
    query_args: tuple[BitString, ...]


@dataclass(frozen=True)
class HistoryClassification:
    history: History
    consistent: tuple[AkInstance, ...]


def enumerate_histories(
    circuit: Circuit,
    problem: OracleProblem,
    b: BitString,
    v_branch: "Literal[0, 1, 'both']" = 0,
) -> tuple[History, ...]:
    """All nonzero-amplitude basis paths of the circuit run on one setting.

    ``problem`` must be the circuit's own problem.  ``v_branch`` fixes the
    initial basis state of the minus-state register (0 by default);
    ``"both"`` enumerates from both initial V values.  Stage matrix elements
    with magnitude at most ``AMP_FLOOR`` do not branch.
    """
    _check_problem(circuit, problem)
    problem.row(b)
    layout = circuit.layout
    matrices = [stage.unitary(layout, b) for stage in circuit.stages]
    if v_branch == "both":
        v_values: Sequence[int] = (0, 1)
    elif v_branch in (0, 1):
        v_values = (int(v_branch),)
    else:
        raise ValueError(f"v_branch must be 0, 1 or 'both', got {v_branch!r}")

    arg_register = None
    if circuit.query_indices:
        arg_register = circuit.stages[circuit.query_indices[0]].register

    out: list[History] = []

    def walk(boundary: int, index: int, amplitude: complex, path: list[int]) -> None:
        if boundary == len(matrices):
            queries = tuple(
                BitString(layout.extract(arg_register, path[qi]), layout.width(arg_register))
                for qi in circuit.query_indices
            )
            out.append(History(b, tuple(path), complex(amplitude), queries))
            return
        column = matrices[boundary][:, index]
        for nxt in np.nonzero(np.abs(column) > AMP_FLOOR)[0]:
            path.append(int(nxt))
            walk(boundary + 1, int(nxt), amplitude * complex(column[nxt]), path)
            path.pop()

    for v in v_values:
        start = {}
        if circuit.v_register in layout.names:
            start[circuit.v_register] = v
        elif v:
            continue
        index = layout.state_index(start)
        walk(0, index, 1.0 + 0.0j, [index])
    out.sort(key=lambda h: h.path)
    return tuple(out)


def path_sum(histories: Iterable[History], initial: int, final: int) -> complex:
    """Sum of history amplitudes between two endpoint basis indices.

    Equals the corresponding matrix element of the composed stage unitaries;
    endpoints with no connecting path sum to zero.
    """
    if initial < 0 or final < 0:
        raise ValueError("endpoint basis indices must be nonnegative")
    total = 0.0 + 0.0j
    for h in histories:
        if h.path[0] == initial and h.path[-1] == final:
            total += h.amplitude
    return total


def classify_history(
    history: History, instances: Iterable[AkInstance], problem: OracleProblem
) -> HistoryClassification:
    """The instances whose optimal strategies admit this history's queries."""
    consistent = []
    for inst in instances:
        if history.setting not in inst.subset:
            continue
        if optimal_play(problem, inst.subset, history.query_args, history.setting):
            consistent.append(inst)
    return HistoryClassification(history, tuple(consistent))


def history_record(circuit: Circuit, classification: HistoryClassification) -> dict:
    layout = circuit.layout
    h = classification.history
    return {
        "setting": h.setting.text,
        "amplitude": [round(h.amplitude.real, 9), round(h.amplitude.imag, 9)],
        "path": [layout.state_label(i) for i in h.path],
        "queries": [a.text for a in h.query_args],
        "consistent_instances": [
            sorted(b.text for b in inst.subset) for inst in classification.consistent
        ],
    }


def histories_jsonl(circuit: Circuit, classifications: Iterable[HistoryClassification]) -> str:
    return "\n".join(json.dumps(history_record(circuit, c)) for c in classifications)


def histories_dot(circuit: Circuit, histories: Iterable[History]) -> str:
    """A stage-layered lattice in DOT form, edges weighted by step amplitude."""
    layout = circuit.layout
    labels = ["in"] + [st.label for st in circuit.stages]
    histories = list(histories)
    nodes: set[tuple[int, int]] = set()
    for h in histories:
        for t, index in enumerate(h.path):
            nodes.add((t, index))
    lines = ["digraph histories {", "  rankdir=LR;"]
    for t, index in sorted(nodes):
        lines.append(
            f'  "t{t}_{index}" [label="{labels[t]}: {layout.state_label(index)}"];'
        )
    seen: set[tuple[int, int, int]] = set()
    matrices = None
    if histories:
        matrices = [st.unitary(layout, histories[0].setting) for st in circuit.stages]
    for h in histories:
        for t in range(len(h.path) - 1):
            key = (t, h.path[t], h.path[t + 1])
            if key in seen:
                continue
            seen.add(key)
            element = matrices[t][h.path[t + 1], h.path[t]]
            lines.append(
                f'  "t{t}_{h.path[t]}" -> "t{t + 1}_{h.path[t + 1]}" '
                f'[label="{element.real:+.3f}{element.imag:+.3f}i"];'
            )
    lines.append("}")
    return "\n".join(lines)
