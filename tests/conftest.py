import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")

import oraclelab as ol  # noqa: E402
from oraclelab.qstate import BitString, BranchEnsemble  # noqa: E402


def clear_caches(problem):
    """Drop the views akrule keeps on the problem, so the next call on it builds them anew."""
    vars(problem).pop("_index", None)


def solver_problem(arg_bits, out_bits, tables, answers):
    """Setting k has table tables[k] (entry a in bits out_bits * a on), answer answers[k] and outcome k."""
    width = max(1, (len(tables) - 1).bit_length())
    entry = (1 << out_bits) - 1
    settings_ = [
        ol.Setting(
            BitString(k, width),
            tuple(BitString((t >> (out_bits * a)) & entry, out_bits) for a in range(1 << arg_bits)),
            f"s{answer}",
            BitString(k, width),
        )
        for k, (t, answer) in enumerate(zip(tables, answers))
    ]
    return ol.OracleProblem("generated", arg_bits, out_bits, tuple(settings_), "cells")


def make_ensemble(layout, settings, rows, weights=None):
    """An ensemble with one state row per setting; the weights default to uniform."""
    settings = tuple(settings)
    if weights is None:
        weights = [1.0 / len(settings)] * len(settings)
    return BranchEnsemble(layout, settings, weights, rows)


@pytest.fixture(scope="session")
def grover2():
    return ol.build_grover(2)


@pytest.fixture(scope="session")
def dj2():
    return ol.build_dj(2)


@pytest.fixture(scope="session")
def simon2():
    return ol.build_simon(2)


@pytest.fixture(scope="session")
def grover_circuit():
    return ol.grover_circuit()


@pytest.fixture(scope="session")
def dj_circuit():
    return ol.dj_circuit(2)


@pytest.fixture(scope="session")
def simon_circuit():
    return ol.simon1q_circuit()
