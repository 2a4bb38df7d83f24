"""CLI outputs of the built-in circuits against stored copies.

The files under ``golden/`` hold ``simulate --stages --format json`` and
``histories --format json`` for one setting of each built-in circuit.  The
comparison requires the same keys, stage labels, basis labels and paths, and
numbers within 1e-12, since amplitudes are printed as full float reprs.
"""

import json
from pathlib import Path

import pytest

from oraclelab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [("grover:n=2", "10"), ("dj:n=1", "01"), ("dj:n=2", "0110"), ("simon:n=2", "1001")]


def assert_same(got, expected, where="output"):
    if isinstance(expected, dict):
        assert isinstance(got, dict) and got.keys() == expected.keys(), where
        for key in expected:
            assert_same(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), where
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_same(g, e, f"{where}[{i}]")
    elif isinstance(expected, float) or isinstance(got, float):
        assert abs(got - expected) <= 1e-12, f"{where}: {got!r} != {expected!r}"
    else:
        assert got == expected, f"{where}: {got!r} != {expected!r}"


def stem(selector, setting):
    return selector.replace(":", "_").replace("=", "_") + "_" + setting


def cli_output(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("selector,setting", CASES)
def test_simulate_stage_trace(capsys, selector, setting):
    out = cli_output(capsys, "simulate", "--problem", selector, "--setting", setting, "--stages", "--format", "json")
    expected = json.loads((GOLDEN / f"simulate_{stem(selector, setting)}.json").read_text())
    assert_same(json.loads(out), expected)


@pytest.mark.parametrize("selector,setting", CASES)
def test_histories_jsonl(capsys, selector, setting):
    out = cli_output(capsys, "histories", "--problem", selector, "--setting", setting, "--format", "json")
    expected = (GOLDEN / f"histories_{stem(selector, setting)}.jsonl").read_text().splitlines()
    assert_same([json.loads(line) for line in out.splitlines()], [json.loads(line) for line in expected])
