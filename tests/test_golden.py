"""CLI outputs against stored copies.

The files under ``golden/`` hold ``simulate --stages --format json`` and
``histories --format json`` for one setting of each built-in circuit, and
``ak --format json`` and ``predict --format json`` for the built-in problems,
their family and complementarity variants at n=2, ``predict --family cells``
on ``grover:n=4`` (the benchmark's cells workload), and one random file
problem (``golden/random_seed1.json``, the first document of the benchmark's
seed-1 session).  Circuit outputs must carry the same keys, stage labels,
basis labels and paths, with numbers within 1e-12, since amplitudes are
printed as full float reprs.  The ``ak`` and ``predict`` outputs round their
numbers, so they must match exactly: the same specs, subsets and order.
"""

import json
from pathlib import Path

import pytest

from oraclelab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [("grover:n=2", "10"), ("dj:n=1", "01"), ("dj:n=2", "0110"), ("simon:n=2", "1001")]
RANDOM = "file:golden/random_seed1.json"  # relative to this directory
VARIANTS = [("--family", "cells"), ("--family", "linear"), ("--no-complementary",)]
N2_CASES = [(selector, setting) for selector, setting in CASES if selector.endswith(":n=2")]
AK_CASES = (
    [(selector, setting, ()) for selector, setting in CASES]
    + [("grover:n=4", "0110", ()), ("simon:n=3", "1001011000111100", ())]
    + [(selector, setting, flags) for selector, setting in N2_CASES for flags in VARIANTS]
    + [(RANDOM, "01111", ()), (RANDOM, "01111", ("--family", "cells"))]
)
PREDICT_CASES = (
    [(selector, ()) for selector in ("grover:n=2", "grover:n=4", "dj:n=1", "dj:n=2", "simon:n=2", "simon:n=3")]
    + [(selector, flags) for selector, _ in N2_CASES for flags in VARIANTS]
    + [(RANDOM, ()), (RANDOM, ("--family", "cells"))]
    + [("grover:n=4", ("--family", "cells"))]
)


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


def stem(selector, setting=None, flags=()):
    kind, _, rest = selector.partition(":")
    name = Path(rest).stem if kind == "file" else f"{kind}_{rest.replace('=', '_')}"
    parts = [name] + ([setting] if setting is not None else []) + [f.lstrip("-") for f in flags]
    return "_".join(parts)


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


@pytest.mark.parametrize("selector,setting,flags", AK_CASES)
def test_ak_json(capsys, monkeypatch, selector, setting, flags):
    monkeypatch.chdir(Path(__file__).parent)
    out = cli_output(capsys, "ak", "--problem", selector, "--setting", setting, "--format", "json", *flags)
    expected = json.loads((GOLDEN / f"ak_{stem(selector, setting, flags)}.json").read_text())
    assert json.loads(out) == expected


@pytest.mark.parametrize("selector,flags", PREDICT_CASES)
def test_predict_json(capsys, monkeypatch, selector, flags):
    monkeypatch.chdir(Path(__file__).parent)
    out = cli_output(capsys, "predict", "--problem", selector, "--format", "json", *flags)
    expected = json.loads((GOLDEN / f"predict_{stem(selector, None, flags)}.json").read_text())
    assert json.loads(out) == expected
