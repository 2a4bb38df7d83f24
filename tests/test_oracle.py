import json
import pickle
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oraclelab as ol
from oraclelab.cli import main
from oraclelab.oracle import ProblemFormatError
from oraclelab.qstate import BitString

from reference_tables import (
    DJ2_OUTCOMES,
    DJ2_SOLUTIONS,
    GROVER2_TABLES,
    SIMON2_PERIODS,
    brute_force_period,
    dj_outcome_by_walsh,
)


def bits(text):
    return BitString.from_text(text)


class TestEvaluate:
    def test_search_indicator(self, grover2):
        assert ol.evaluate(grover2, bits("01"), bits("01")).value == 1
        assert ol.evaluate(grover2, bits("01"), bits("11")).value == 0

    def test_balanced_table_entry(self, dj2):
        assert ol.evaluate(dj2, bits("0011"), bits("10")).value == 1

    def test_period_table_entry(self, simon2):
        assert ol.evaluate(simon2, bits("0101"), bits("01")).value == 1

    def test_unknown_setting(self, grover2):
        with pytest.raises(ValueError):
            ol.evaluate(grover2, bits("0011"), bits("00"))

    def test_argument_out_of_range(self, grover2):
        with pytest.raises(ValueError):
            ol.evaluate(grover2, bits("01"), 4)
        with pytest.raises(ValueError):
            ol.evaluate(grover2, bits("01"), bits("111"))


class TestBuildGrover:
    def test_n2_matches_reference(self, grover2):
        assert len(grover2.settings) == 4
        for st in grover2.settings:
            assert tuple(e.value for e in st.table) == GROVER2_TABLES[st.id.text]
            assert st.solution == st.id.text
            assert st.a_outcome == st.id

    def test_n1_and_n4_sizes(self):
        assert len(ol.build_grover(1).settings) == 2
        p4 = ol.build_grover(4)
        assert len(p4.settings) == 16
        for st in p4.settings:
            assert sum(e.value for e in st.table) == 1

    def test_range(self):
        with pytest.raises(ValueError):
            ol.build_grover(0)
        with pytest.raises(ValueError):
            ol.build_grover(9)


class TestBuildDj:
    def test_n2_settings_and_solutions(self, dj2):
        assert {st.id.text for st in dj2.settings} == set(DJ2_SOLUTIONS)
        for st in dj2.settings:
            assert st.solution == DJ2_SOLUTIONS[st.id.text]

    def test_n2_outcomes_match_reference(self, dj2):
        for st in dj2.settings:
            assert st.a_outcome.text == DJ2_OUTCOMES[st.id.text]
            # and the reference agrees with an independent transform computation
            assert dj_outcome_by_walsh(st.id.text) == st.a_outcome.text

    def test_n1_enumeration(self):
        p1 = ol.build_dj(1)
        assert {st.id.text for st in p1.settings} == {"00", "11", "01", "10"}
        blocks = {}
        for st in p1.settings:
            blocks.setdefault(st.a_outcome.text, []).append(st.id.text)
        assert sorted(len(v) for v in blocks.values()) == [2, 2]

    def test_n3_has_no_sharp_outcomes(self):
        with pytest.raises(ValueError, match="superposition"):
            ol.build_dj(3)

    def test_range(self):
        with pytest.raises(ValueError):
            ol.build_dj(0)
        with pytest.raises(ValueError):
            ol.build_dj(4)


class TestBuildSimon:
    def test_n2_matches_reference(self, simon2):
        assert {st.id.text for st in simon2.settings} == set(SIMON2_PERIODS)
        for st in simon2.settings:
            assert st.a_outcome.text == SIMON2_PERIODS[st.id.text]
            assert st.a_outcome.text == brute_force_period(st.id.text)

    def test_specific_periods(self, simon2):
        assert simon2.setting(bits("0110")).a_outcome.text == "11"
        assert simon2.setting(bits("1010")).a_outcome.text == "10"

    def test_n3_family(self):
        p3 = ol.build_simon(3)
        assert len(p3.settings) == 168
        blocks = {}
        for st in p3.settings:
            blocks.setdefault(st.a_outcome.text, []).append(st)
        assert len(blocks) == 7 and all(len(v) == 24 for v in blocks.values())
        # exhaustive two-to-one structure check
        for st in p3.settings:
            h = st.a_outcome.value
            for a in range(8):
                for c in range(8):
                    assert (st.table[a] == st.table[c]) == (a == c or a == (c ^ h))

    def test_range(self):
        with pytest.raises(ValueError):
            ol.build_simon(1)
        with pytest.raises(ValueError):
            ol.build_simon(4)


class TestProblemInvariants:
    def test_unequal_outcome_blocks_rejected(self):
        settings = tuple(
            ol.Setting(BitString(v, 2), (BitString(v & 1, 1), BitString(v >> 1, 1),
                                         BitString(0, 1), BitString(1, 1)),
                       "x" if v else "y", BitString(0 if v else 1, 1))
            for v in range(4)
        )
        with pytest.raises(ValueError, match="equal sizes"):
            ol.OracleProblem("bad", 2, 1, settings, "cells")

    def test_outcome_must_determine_solution(self):
        settings = (
            ol.Setting(BitString(0, 1), (BitString(0, 1), BitString(0, 1)), "left", BitString(0, 1)),
            ol.Setting(BitString(1, 1), (BitString(1, 1), BitString(1, 1)), "right", BitString(0, 1)),
        )
        with pytest.raises(ValueError, match="maps to both"):
            ol.OracleProblem("bad", 1, 1, settings, "cells")

    def test_out_bits_bounded_by_arg_bits(self):
        settings = (
            ol.Setting(BitString(0, 1), (BitString(0, 2), BitString(1, 2)), "a", BitString(0, 1)),
        )
        with pytest.raises(ValueError, match="m <= n"):
            ol.OracleProblem("bad", 1, 2, settings, "cells")


class TestSerialization:
    @pytest.mark.parametrize("builder,n", [
        (ol.build_grover, 2),
        (ol.build_grover, 4),
        (ol.build_dj, 1),
        (ol.build_dj, 2),
        (ol.build_simon, 2),
        (ol.build_simon, 3),
    ])
    def test_round_trip(self, builder, n):
        problem = builder(n)
        assert ol.load_problem(ol.serialize_problem(problem)) == problem

    def test_duplicate_id_names_the_id(self, grover2):
        doc = json.loads(ol.serialize_problem(grover2))
        doc["settings"].append(dict(doc["settings"][0]))
        with pytest.raises(ProblemFormatError, match="duplicate setting id '00'"):
            ol.load_problem(json.dumps(doc))

    def test_unequal_blocks_reported(self):
        doc = {
            "name": "lopsided",
            "arg_bits": 2,
            "out_bits": 1,
            "family": "cells",
            "settings": [
                {"id": "00", "table": ["1", "0", "0", "0"], "solution": "00"},
                {"id": "01", "table": ["0", "1", "0", "0"], "solution": "00"},
                {"id": "10", "table": ["0", "0", "1", "0"], "solution": "00"},
                {"id": "11", "table": ["0", "0", "0", "1"], "solution": "11"},
            ],
        }
        with pytest.raises(ProblemFormatError, match="equal sizes"):
            ol.load_problem(json.dumps(doc))

    def test_table_length_error_carries_path(self):
        doc = {
            "name": "short",
            "arg_bits": 2,
            "out_bits": 1,
            "settings": [{"id": "00", "table": ["1", "0", "0"], "solution": "00"}],
        }
        with pytest.raises(ProblemFormatError, match=r"settings\[0\].table"):
            ol.load_problem(json.dumps(doc))

    def test_bad_json(self):
        with pytest.raises(ProblemFormatError, match="not valid JSON"):
            ol.load_problem("{nope")

    def test_a_outcome_defaults_to_solution(self):
        doc = {
            "name": "tiny",
            "arg_bits": 1,
            "out_bits": 1,
            "settings": [
                {"id": "0", "table": ["1", "0"], "solution": "0"},
                {"id": "1", "table": ["0", "1"], "solution": "1"},
            ],
        }
        problem = ol.load_problem(json.dumps(doc))
        assert [st.a_outcome.text for st in problem.settings] == ["0", "1"]

    def test_non_bit_default_outcome_is_reported(self):
        doc = {
            "name": "tiny",
            "arg_bits": 1,
            "out_bits": 1,
            "settings": [
                {"id": "0", "table": ["1", "0"], "solution": "yes"},
                {"id": "1", "table": ["0", "1"], "solution": "no"},
            ],
        }
        with pytest.raises(ProblemFormatError, match="a_outcome"):
            ol.load_problem(json.dumps(doc))


    @pytest.mark.parametrize("field,value,path", [
        ("arg_bits", -1, "arg_bits"),
        ("arg_bits", True, "arg_bits"),
        ("arg_bits", 1000000, "arg_bits"),
        ("out_bits", True, "out_bits"),
        ("a_outcome", 5, r"settings\[0\]\.a_outcome"),
    ])
    def test_malformed_field_carries_path(self, field, value, path):
        doc = {
            "name": "tiny",
            "arg_bits": 1,
            "out_bits": 1,
            "settings": [
                {"id": "0", "table": ["1", "0"], "solution": "0"},
                {"id": "1", "table": ["0", "1"], "solution": "1"},
            ],
        }
        if field == "a_outcome":
            doc["settings"][0]["a_outcome"] = value
        else:
            doc[field] = value
        with pytest.raises(ProblemFormatError, match=path):
            ol.load_problem(json.dumps(doc))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)
VALID_DOCUMENT = {
    "name": "tiny",
    "arg_bits": 1,
    "out_bits": 1,
    "family": "cells",
    "settings": [
        {"id": "0", "table": ["1", "0"], "solution": "0", "a_outcome": "0"},
        {"id": "1", "table": ["0", "1"], "solution": "1", "a_outcome": "1"},
    ],
}


@st.composite
def mutated_documents(draw):
    """The valid document with one to three fields, settings fields or cells replaced or dropped."""
    doc = json.loads(json.dumps(VALID_DOCUMENT))
    for _ in range(draw(st.integers(1, 3))):
        value = draw(JSON_VALUES)
        where = draw(st.sampled_from(["document", "setting", "cell"]))
        if where == "document":
            key = draw(st.sampled_from(sorted(VALID_DOCUMENT)))
            if draw(st.booleans()):
                doc[key] = value
            else:
                doc.pop(key, None)
            continue
        settings_ = doc.get("settings")
        if not isinstance(settings_, list) or not settings_:
            continue
        setting = settings_[draw(st.integers(0, len(settings_) - 1))]
        if not isinstance(setting, dict):
            continue
        if where == "setting":
            setting[draw(st.sampled_from(sorted(VALID_DOCUMENT["settings"][0])))] = value
        elif isinstance(setting.get("table"), list) and setting["table"]:
            setting["table"][draw(st.integers(0, len(setting["table"]) - 1))] = value
    return doc


class TestLoaderFuzz:
    @settings(deadline=None)
    @given(document=st.one_of(JSON_VALUES, mutated_documents()).map(json.dumps))
    @example(document="1" * 5000)  # past the interpreter's integer-digit limit
    @example(document="[" * 100000)  # deeper than the recursion limit
    def test_only_format_errors_escape(self, document, tmp_path_factory):
        try:
            ol.load_problem(document)
        except ProblemFormatError:
            path = tmp_path_factory.getbasetemp() / "fuzzed.json"
            path.write_text(document)
            assert main(["predict", "--problem", f"file:{path}"]) == 2


class TestProblemHash:
    def test_equal_problems_built_apart_hash_and_compare_equal(self, simon2):
        for problem, again in (
            (ol.build_grover(4), ol.build_grover(4)),
            (simon2, ol.load_problem(ol.serialize_problem(simon2))),
            (simon2, pickle.loads(pickle.dumps(simon2))),
        ):
            assert problem is not again
            assert problem == again and hash(problem) == hash(again)
        renamed = ol.OracleProblem("other", simon2.arg_bits, simon2.out_bits, simon2.settings, "cells")
        assert renamed != simon2
        # settings given in another order are sorted before the hash is taken
        shuffled = ol.OracleProblem("simon", 2, 1, simon2.settings[::-1], "cells")
        assert shuffled == simon2 and hash(shuffled) == hash(simon2)

    def test_equality_compares_the_tables_and_the_name(self):
        problem, again = ol.build_grover(6), ol.build_grover(6)
        assert problem == again and hash(problem) == hash(again)
        st = problem.settings[5]
        flipped = st.table[:40] + (BitString(1 - st.table[40].value, 1),) + st.table[41:]
        settings = problem.settings[:5] + (replace(st, table=flipped),) + problem.settings[6:]
        assert replace(problem, settings=settings) != problem
        assert replace(problem, name="other") != problem


class TestSelectors:
    def test_builtin_selectors(self):
        assert ol.parse_selector("grover:n=2").name == "grover"
        assert ol.parse_selector("dj:n=1").name == "dj"
        assert ol.parse_selector("simon:n=2").name == "simon"

    def test_file_selector(self, tmp_path, simon2):
        path = tmp_path / "problem.json"
        path.write_text(ol.serialize_problem(simon2))
        assert ol.parse_selector(f"file:{path}") == simon2

    def test_bad_selectors(self):
        for text in ("grover", "grover:n=x", "grover:k=2", "mystery:n=2", "file:/no/such/file"):
            with pytest.raises(ValueError):
                ol.parse_selector(text)

    def test_split_selector(self):
        from oraclelab.oracle import split_selector

        assert split_selector("dj:n=2") == ("dj", 2)
        assert split_selector("file:a:b.json") == ("file", "a:b.json")
        for text in ("grover", "grover:n=x", "grover:k=2", "mystery:n=2"):
            with pytest.raises(ValueError):
                split_selector(text)


class TestEnsembles:
    def test_input_ensemble_is_uniform_cleared(self, grover2):
        ensemble = ol.input_ensemble(grover2)
        assert len(ensemble.branches) == 4
        for br in ensemble.branches:
            assert abs(br.weight - 0.25) <= 1e-12
            assert br.state.amplitudes[0] == 1.0

    def test_output_ensemble_carries_outcomes(self, simon2):
        ensemble = ol.output_ensemble(simon2)
        for br in ensemble.branches:
            st = simon2.setting(br.setting)
            dist = ol.measure_register(
                ol.prepare_setting(ensemble, br.setting), "A"
            )
            assert dist.as_dict() == {st.a_outcome.text: 1.0}
