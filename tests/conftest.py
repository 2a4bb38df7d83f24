import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")

import oraclelab as ol  # noqa: E402
from oraclelab.qstate import BranchEnsemble  # noqa: E402


def clear_caches(problem):
    """Drop the views akrule keeps on the problem, so the next call on it builds them anew."""
    vars(problem).pop("_index", None)


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
