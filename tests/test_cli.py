import json
import re

import pytest

import oraclelab as ol
from oraclelab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--problem", "dj:n=2", "--setting", "0000")
        assert code == 0
        assert "00  1.000000" in out
        assert "solution: constant" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--problem", "grover:n=2", "--setting", "01", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["distribution"] == {"01": 1.0}
        assert payload["solution"] == "01"

    def test_stage_trace_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--problem", "grover:n=2", "--setting", "01",
            "--format", "json", "--stages",
        )
        payload = json.loads(out)
        assert [r["stage"] for r in payload["trace"]] == ["input", "H(A)", "Uf", "Inv(A)"]
        first = payload["trace"][0]["branches"][0]
        assert first["setting"] == "01"
        # amplitudes are (label, real, imag) triples with negligible entries dropped
        assert all(len(entry) == 3 for entry in first["amplitudes"])

    def test_missing_setting_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--problem", "grover:n=2"])
        assert exc.value.code == 2

    def test_analysis_flags_are_usage_errors(self, capsys):
        # simulate runs a fixed circuit: it takes no measurement family or complementarity
        for flags in (["--family", "cells"], ["--no-complementary"]):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--problem", "grover:n=2", "--setting", "01", *flags])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_builtin_circuit(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--problem", "grover:n=4", "--setting", "0000")
        assert code == 2
        assert "n=2" in err

    def test_no_circuit_for_file_or_malformed_selectors(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--problem", "file:any.json", "--setting", "0")
        assert code == 2
        assert "no built-in circuit" in err
        code, _, err = run_cli(capsys, "histories", "--problem", "dj:n=two", "--setting", "01")
        assert code == 2
        assert "dj:n=K" in err

    def test_wrong_setting_width(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--problem", "grover:n=2", "--setting", "0011")
        assert code == 2
        assert "width" in err


class TestAk:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "ak", "--problem", "simon:n=2", "--setting", "0011", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["pairs"]) == 2
        assert len(payload["instances"]) == 4
        assert all(p["epsilon"] == 0.584963 for p in payload["pairs"])
        assert all(i["cost"] == 1 for i in payload["instances"])

    def test_text_matches_json_numbers(self, capsys):
        code, text_out, _ = run_cli(capsys, "ak", "--problem", "simon:n=2", "--setting", "0011")
        assert code == 0
        assert "eps=0.584963" in text_out

    def test_family_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "ak", "--problem", "grover:n=2", "--setting", "01",
            "--family", "cells", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["pairs"] == []


class TestPredict:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--problem", "grover:n=2")
        assert code == 0
        assert "baseline queries:  3" in out
        assert "predicted queries: 1" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--problem", "dj:n=2", "--format", "json")
        payload = json.loads(out)
        assert payload["baseline_queries"] == 3
        assert payload["predicted_queries"] == 1
        assert len(payload["per_setting"]) == 8

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "predict", "--problem", "simon:n=2", "--format", "json")
        _, second, _ = run_cli(capsys, "predict", "--problem", "simon:n=2", "--format", "json")
        assert first == second

    def test_file_problem(self, capsys, tmp_path, simon2):
        path = tmp_path / "simon.json"
        path.write_text(ol.serialize_problem(simon2))
        code, out, _ = run_cli(capsys, "predict", "--problem", f"file:{path}", "--format", "json")
        assert code == 0
        assert json.loads(out)["predicted_queries"] == 1

    def test_malformed_file_problem(self, capsys, tmp_path):
        doc = {
            "name": "tiny",
            "arg_bits": 1,
            "out_bits": 1,
            "settings": [
                {"id": "0", "table": ["1", "0"], "solution": "0", "a_outcome": 5},
                {"id": "1", "table": ["0", "1"], "solution": "1"},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "predict", "--problem", f"file:{path}")
        assert code == 2
        assert "settings[0].a_outcome" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--problem", "file:/no/such/file.json")
        assert code == 2
        assert "cannot read" in err


class TestHistories:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "histories", "--problem", "grover:n=2", "--setting", "01")
        assert code == 0
        assert "16 histories" in out
        assert "queries: 11" in out

    def test_jsonl(self, capsys):
        code, out, _ = run_cli(
            capsys, "histories", "--problem", "dj:n=2", "--setting", "0011", "--format", "json"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert len(lines) == 16
        assert all(line["setting"] == "0011" for line in lines)

    def test_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "histories", "--problem", "grover:n=2", "--setting", "01", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph")

    def test_v_branch_both(self, capsys):
        code, out, _ = run_cli(
            capsys, "histories", "--problem", "grover:n=2", "--setting", "01", "--v-branch", "both"
        )
        assert code == 0
        assert "32 histories" in out


class TestVerify:
    def test_single_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "criterion-2")
        assert code == 0
        assert out.startswith("PASS criterion-2")

    def test_check_line_ends_with_its_seconds(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "criterion-2")
        assert code == 0
        assert re.search(r" \[\d+\.\d\d s\]$", out.splitlines()[0])

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "criterion-99")
        assert code == 2
        assert "unknown check" in err

    def test_failures_exit_nonzero(self, capsys, monkeypatch):
        from oraclelab import verification

        def boom():
            raise AssertionError("synthetic failure")

        broken = verification.Check("criterion-x", "synthetic", boom)
        monkeypatch.setattr(verification, "ALL_CHECKS", (broken,))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL criterion-x" in out
        assert "synthetic failure" in out


class TestUsage:
    def test_bad_selector(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--problem", "mystery:n=2")
        assert code == 2
        assert "unknown problem kind" in err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
