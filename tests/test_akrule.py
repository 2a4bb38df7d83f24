import copy
import json
import math
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oraclelab as ol
from oraclelab import akrule
from oraclelab.akrule import AkConfig, MeasurementSpec, cells_spec
from oraclelab.qstate import ATOL, BitString

from conftest import clear_caches, solver_problem
from reference_tables import gf2_rref, plain_minimax_cost

LOG2_3 = math.log2(3.0)


def bits(text):
    return BitString.from_text(text)


def texts(subset):
    return frozenset(b.text for b in subset)


def reference_problem_tables(problem):
    tables = {st.id.text: tuple(e.value for e in st.table) for st in problem.settings}
    solutions = {st.id.text: st.solution for st in problem.settings}
    return tables, solutions


class TestConfig:
    def test_family_validated(self):
        with pytest.raises(ValueError):
            AkConfig(family="diagonal")


class TestSpecs:
    def test_trivial_specs(self):
        assert cells_spec([]).cells == frozenset()
        assert MeasurementSpec("linear", masks=()).describe() == "masks{}"

    def test_describe(self):
        assert cells_spec([0, 1]).describe(2) == "cells{00,01}"
        assert MeasurementSpec("linear", masks=(bits("11"),)).describe() == "masks{11}"


class TestRealizedSubset:
    def test_cells_half_table(self, dj2):
        got = akrule.realized_subset(dj2, cells_spec([0, 1]), bits("0011"))
        assert texts(got) == {"0011", "0000"}

    def test_linear_parity_mask(self, grover2):
        got = akrule.realized_subset(grover2, MeasurementSpec("linear", masks=(bits("11"),)), bits("01"))
        assert texts(got) == {"01", "10"}

    def test_single_bit_masks(self, grover2):
        left = akrule.realized_subset(grover2, MeasurementSpec("linear", masks=(bits("10"),)), bits("01"))
        right = akrule.realized_subset(grover2, MeasurementSpec("linear", masks=(bits("01"),)), bits("01"))
        assert texts(left) == {"00", "01"}
        assert texts(right) == {"01", "11"}

    def test_empty_spec_realizes_everything(self, grover2, dj2):
        assert akrule.realized_subset(grover2, MeasurementSpec("linear", masks=()), bits("01")) == frozenset(
            grover2.setting_ids()
        )
        assert akrule.realized_subset(dj2, cells_spec([]), bits("0011")) == frozenset(
            dj2.setting_ids()
        )

    def test_unknown_setting(self, grover2):
        with pytest.raises(ValueError):
            akrule.realized_subset(grover2, MeasurementSpec("linear", masks=()), bits("0011"))


class TestDeltaEntropy:
    def test_half_table_drop_is_one_bit(self, dj2):
        got = akrule.delta_entropy(dj2, [bits("0011"), bits("0000")])
        assert abs(got - 1.0) <= ATOL

    def test_period_drop(self, simon2):
        got = akrule.delta_entropy(simon2, [bits("0011"), bits("0110")])
        assert abs(got - (LOG2_3 - 1.0)) <= ATOL

    def test_full_set_drops_nothing(self, grover2):
        assert abs(akrule.delta_entropy(grover2, grover2.setting_ids())) <= ATOL

    def test_singleton_drops_everything(self, grover2):
        got = akrule.delta_entropy(grover2, [bits("01")])
        assert abs(got - 2.0) <= ATOL

    def test_empty_subset(self, grover2):
        with pytest.raises(ValueError):
            akrule.delta_entropy(grover2, [])

    def test_bounds_on_random_subsets(self, dj2, simon2, grover2):
        rng = np.random.default_rng(23)
        for problem in (grover2, dj2, simon2):
            ids = problem.setting_ids()
            whole = akrule.delta_entropy(problem, [ids[0]])
            for _ in range(60):
                size = int(rng.integers(1, len(ids) + 1))
                subset = [ids[int(i)] for i in rng.choice(len(ids), size=size, replace=False)]
                drop = akrule.delta_entropy(problem, subset)
                assert -ATOL <= drop <= whole + ATOL

    def test_repeated_setting_counts_once(self, grover2):
        subset = [bits("01"), bits("01"), bits("00")]
        expected = akrule.delta_entropy_via_states(grover2, subset)
        assert abs(expected - 1.0) <= ATOL
        assert abs(akrule.delta_entropy(grover2, subset) - expected) <= ATOL

    def test_state_route_matches_counting_route(self, grover2, dj2, simon2):
        rng = np.random.default_rng(29)
        for problem in (grover2, dj2, simon2):
            ids = problem.setting_ids()
            for _ in range(40):
                size = int(rng.integers(1, len(ids) + 1))
                subset = [ids[int(i)] for i in rng.choice(len(ids), size=size, replace=False)]
                a = akrule.delta_entropy(problem, subset)
                b = akrule.delta_entropy_via_states(problem, subset)
                assert abs(a - b) <= ATOL


class TestSettingCheck:
    """Every entry point taking settings checks them through the problem index, with one message."""

    @pytest.mark.parametrize("bad", [BitString(4, 3), BitString(1, 3)], ids=["absent", "wrong-width"])
    @pytest.mark.parametrize(
        "call",
        [
            akrule.enumerate_occam_pairs,
            akrule.setting_instances,
            lambda problem, b: akrule.decision_tree_cost(problem, [b]),
            lambda problem, b: akrule.delta_entropy(problem, [b]),
            lambda problem, b: akrule.delta_entropy_via_states(problem, [bits("01"), b]),
        ],
        ids=["pairs", "instances", "tree-cost", "delta-entropy", "via-states"],
    )
    def test_unknown_setting_rejected(self, grover2, call, bad):
        with pytest.raises(ValueError, match=f"^unknown setting {bad} for problem 'grover'$"):
            call(grover2, bad)

    def test_one_index_per_problem(self, grover2):
        index = akrule._index(grover2)
        assert index is index.core("cells").index is index.core("linear").index is index.solver.index


class TestProblemViews:
    """The index and the views it owns live on the problem object, one set per object."""

    def test_one_index_per_problem_after_twenty_others(self, grover2):
        problem = ol.build_grover(3)
        index = akrule._index(problem)
        core, solver, solved = index.core("linear"), index.solver, index.solved
        for k in range(20):
            other = replace(grover2, name=f"other{k}")
            akrule.predict_queries(other)
            akrule.delta_entropy_via_states(other, other.setting_ids()[:2])
        akrule.predict_queries(problem)
        akrule.delta_entropy_via_states(problem, problem.setting_ids()[:2])
        assert akrule._index(problem) is index
        assert akrule._resolve(problem, None)[1] is core and core.index is index
        assert index.solver is solver and solver.index is index and solver._memo
        assert index.solved is solved

    def test_copies_carry_no_index(self):
        problem = ol.build_dj(2)
        akrule.predict_queries(problem)
        assert "_index" in vars(problem)
        for again in (pickle.loads(pickle.dumps(problem)), copy.copy(problem), replace(problem)):
            assert again == problem and "_index" not in vars(again)

    def test_equal_problems_get_distinct_indexes_and_equal_reports(self, dj2):
        again = ol.load_problem(ol.serialize_problem(dj2))
        assert again == dj2 and again is not dj2
        assert akrule._index(again) is not akrule._index(dj2)
        for config in (AkConfig(family="cells"), AkConfig(family="linear", complementary=False)):
            assert akrule.predict_queries(again, config) == akrule.predict_queries(dj2, config)
        b = dj2.setting_ids()[1]
        assert akrule.enumerate_occam_pairs(again, b) == akrule.enumerate_occam_pairs(dj2, b)

    def test_clear_caches_drops_one_problems_views(self):
        problem, other = ol.build_grover(2), ol.build_grover(3)
        index, kept = akrule._index(problem), akrule._index(other)
        clear_caches(problem)
        assert "_index" not in vars(problem)
        assert akrule._index(problem) is not index and akrule._index(other) is kept


class TestIndexMemo:
    """Subsets, masks and epsilons are memoized on the index without changing any answer."""

    def test_one_subset_per_mask_and_its_mask_back(self, simon2):
        index = akrule._index(simon2)
        subset = index.subset(0b1011)
        assert index.subset(0b1011) is subset
        assert index.mask_of(subset) == 0b1011
        equal = frozenset(BitString(b.value, b.width) for b in subset)
        assert equal == subset and equal is not subset
        assert index.mask_of(equal) == 0b1011
        assert index.mask_of(sorted(subset)) == 0b1011

    def test_emitted_instances_map_back_to_their_masks(self, dj2):
        index = akrule._index(dj2)
        for b in dj2.setting_ids():
            for inst in akrule.setting_instances(dj2, b):
                mask = index.mask_of(inst.subset)
                assert index.subset(mask) is inst.subset
                assert inst.epsilon == index.epsilon(mask) == akrule.delta_entropy(dj2, inst.subset)

    def test_checks_hold_after_the_memo_is_warm(self, grover2):
        index = akrule._index(grover2)
        for b in grover2.setting_ids():
            akrule.enumerate_occam_pairs(grover2, b)
        assert index._masks
        member = grover2.setting_ids()[0]
        for bad in (BitString(4, 3), BitString(1, 3)):
            message = f"^unknown setting {bad} for problem 'grover'$"
            with pytest.raises(ValueError, match=message):
                index.mask_of(frozenset({member, bad}))
            with pytest.raises(ValueError, match=message):
                akrule.decision_tree_cost(grover2, frozenset({bad}))
        with pytest.raises(ValueError, match="empty subset"):
            index.mask_of(frozenset())
        with pytest.raises(ValueError, match="empty subset"):
            akrule.delta_entropy(grover2, frozenset())

    def test_epsilon_is_memoized_and_exact(self, simon2):
        index = akrule._index(simon2)
        for mask in range(1, index.full + 1):
            expected = index.full_entropy - akrule._entropy(index.counts(mask))
            assert index.epsilon(mask) == index.epsilon(mask) == index._epsilons[mask] == expected


class TestEnumeratePairs:
    def test_search_pairs(self, grover2):
        pairs = akrule.enumerate_occam_pairs(grover2, bits("01"))
        assert len(pairs) == 3
        singles = [frozenset({"01", "00"}), frozenset({"01", "10"}), frozenset({"01", "11"})]
        got = {frozenset((texts(p.subset_i), texts(p.subset_j))) for p in pairs}
        assert got == {frozenset((a, b)) for i, a in enumerate(singles) for b in singles[i + 1 :]}
        for p in pairs:
            assert abs(p.epsilon - 1.0) <= ATOL

    def test_balanced_tables_have_one_pair(self, dj2):
        for st in dj2.settings:
            pairs = akrule.enumerate_occam_pairs(dj2, st.id)
            if st.solution != "balanced":
                continue
            assert len(pairs) == 1
            got = {texts(pairs[0].subset_i), texts(pairs[0].subset_j)}
            assert got == {
                frozenset({st.id.text, "0000"}),
                frozenset({st.id.text, "1111"}),
            }

    def test_constant_tables_have_three_pairs(self, dj2):
        for text in ("0000", "1111"):
            pairs = akrule.enumerate_occam_pairs(dj2, bits(text))
            assert len(pairs) == 3
            for p in pairs:
                assert abs(p.epsilon - 1.0) <= ATOL

    def test_period_pairs_match_good_halves(self, simon2):
        pairs = akrule.enumerate_occam_pairs(simon2, bits("0011"))
        got = {frozenset((texts(p.subset_i), texts(p.subset_j))) for p in pairs}
        assert got == {
            frozenset((frozenset({"0011", "0110"}), frozenset({"0011", "1001"}))),
            frozenset((frozenset({"0011", "0101"}), frozenset({"0011", "1010"}))),
        }

    def test_enumeration_is_deterministic(self, simon2):
        first = akrule.enumerate_occam_pairs(simon2, bits("0011"))
        second = akrule.enumerate_occam_pairs(simon2, bits("0011"))
        assert [(texts(p.subset_i), texts(p.subset_j)) for p in first] == [
            (texts(p.subset_i), texts(p.subset_j)) for p in second
        ]

    def test_research_mode_exposes_zero_epsilon_pairs(self, simon2):
        config = AkConfig(complementary=False)
        pairs = akrule.enumerate_occam_pairs(simon2, bits("0011"), config)
        assert len(pairs) > 2
        assert any(abs(p.epsilon) <= ATOL for p in pairs)

    def test_search_non_complementary_matches_complementary_at_n2(self, grover2):
        on = akrule.enumerate_occam_pairs(grover2, bits("01"))
        off = akrule.enumerate_occam_pairs(grover2, bits("01"), AkConfig(complementary=False))
        key = lambda p: (tuple(sorted(b.value for b in p.subset_i)),
                         tuple(sorted(b.value for b in p.subset_j)))
        assert sorted(map(key, on)) == sorted(map(key, off))


class TestInstances:
    def test_search_instances(self, grover2):
        instances = akrule.ak_instances(akrule.enumerate_occam_pairs(grover2, bits("01")))
        assert {texts(i.subset) for i in instances} == {
            frozenset({"01", "00"}),
            frozenset({"01", "10"}),
            frozenset({"01", "11"}),
        }

    def test_constant_table_has_six_instances(self, dj2):
        instances = akrule.ak_instances(akrule.enumerate_occam_pairs(dj2, bits("0000")))
        assert len(instances) == 6
        for partner in ("0011", "1100", "0101", "1010", "0110", "1001"):
            assert frozenset({"0000", partner}) in {texts(i.subset) for i in instances}

    def test_streaming_path_matches_pairs_path(self, grover2, dj2, simon2):
        for problem in (grover2, dj2, simon2):
            for b in problem.setting_ids():
                via_pairs = akrule.ak_instances(akrule.enumerate_occam_pairs(problem, b))
                streamed = akrule.setting_instances(problem, b)
                assert [(texts(i.subset), round(i.epsilon, 12)) for i in via_pairs] == [
                    (texts(i.subset), round(i.epsilon, 12)) for i in streamed
                ]


class TestDecisionTree:
    def test_full_set_costs(self, grover2, dj2, simon2):
        for problem, expected in ((grover2, 3), (dj2, 3), (simon2, 3)):
            assert akrule.decision_tree_cost(problem, problem.setting_ids()) == expected
            tables, solutions = reference_problem_tables(problem)
            assert plain_minimax_cost(tables, solutions, tables.keys()) == expected

    def test_pair_costs_one(self, grover2):
        assert akrule.decision_tree_cost(grover2, [bits("01"), bits("11")]) == 1

    def test_constant_answer_costs_zero(self, dj2):
        assert akrule.decision_tree_cost(dj2, [bits("0011"), bits("0101")]) == 0

    def test_affine_flat_costs_size_minus_one(self):
        problem = ol.build_grover(4)
        flat = akrule.realized_subset(
            problem, MeasurementSpec("linear", masks=(bits("1000"), bits("0100"))), BitString(0, 4)
        )
        assert len(flat) == 4
        assert akrule.decision_tree_cost(problem, flat) == 3
        tables, solutions = reference_problem_tables(problem)
        assert plain_minimax_cost(tables, solutions, [b.text for b in flat]) == 3

    def test_matches_plain_recursion_on_random_subsets(self, grover2, dj2, simon2):
        rng = np.random.default_rng(31)
        for problem in (grover2, dj2, simon2):
            tables, solutions = reference_problem_tables(problem)
            ids = problem.setting_ids()
            for _ in range(40):
                size = int(rng.integers(1, len(ids) + 1))
                subset = [ids[int(i)] for i in rng.choice(len(ids), size=size, replace=False)]
                expected = plain_minimax_cost(tables, solutions, [b.text for b in subset])
                assert akrule.decision_tree_cost(problem, subset) == expected

    def test_monotonicity(self, dj2):
        rng = np.random.default_rng(37)
        ids = dj2.setting_ids()
        for _ in range(100):
            big = int(rng.integers(1, len(ids) + 1))
            outer = [ids[int(i)] for i in rng.choice(len(ids), size=big, replace=False)]
            small = int(rng.integers(1, big + 1))
            inner = [outer[int(i)] for i in rng.choice(big, size=small, replace=False)]
            assert akrule.decision_tree_cost(dj2, inner) <= akrule.decision_tree_cost(dj2, outer)

    def test_indistinguishable_settings_rejected(self):
        settings = (
            ol.Setting(bits("0"), (bits("0"), bits("0")), "left", bits("0")),
            ol.Setting(bits("1"), (bits("0"), bits("0")), "right", bits("1")),
        )
        problem = ol.OracleProblem("stuck", 1, 1, settings, "cells")
        with pytest.raises(ValueError, match="indistinguishable"):
            akrule.decision_tree_cost(problem, problem.setting_ids())

    def test_free_bound_does_not_hide_indistinguishable_settings(self):
        # 00 and 01 share a table but not an answer; with three distinct
        # answers the pigeonhole bound alone would reach |S| - 1 = 2
        settings = (
            ol.Setting(bits("00"), (bits("0"), bits("0")), "a", bits("00")),
            ol.Setting(bits("01"), (bits("0"), bits("0")), "b", bits("01")),
            ol.Setting(bits("10"), (bits("1"), bits("0")), "c", bits("10")),
        )
        problem = ol.OracleProblem("stuck3", 1, 1, settings, "cells")
        with pytest.raises(ValueError, match="indistinguishable"):
            akrule.decision_tree_cost(problem, problem.setting_ids())
        solver = akrule._TreeSolver(akrule._Index(problem))
        with pytest.raises(ValueError, match="indistinguishable"):
            solver.costs([solver.index.mask_of(problem.setting_ids())])
        # sets without the pair are still solved
        assert akrule.decision_tree_cost(problem, [bits("00"), bits("10")]) == 1
        assert solver.costs([0b101, 0b110, 0b001]) == [1, 1, 0]

    def test_batched_costs_close_search_instances_without_expansion(self):
        problem = ol.build_grover(4)
        core = akrule._index(problem).core("linear")
        masks = list(akrule._instances(core, 5, True))
        solver = akrule._TreeSolver(core.index)
        scanned = []
        splits = solver._splits
        solver._splits = lambda mask, args: scanned.append(mask) or splits(mask, args)
        assert solver.costs(masks) == [3] * len(masks)
        # the batched bounds settled every mask: the scalar recursion never ran
        assert not scanned and sorted(solver._memo) == sorted(masks)

    @staticmethod
    def four_settings(rows):
        """A problem on settings 00..11 from (table, answer) rows; tables read left to right."""
        settings = tuple(
            ol.Setting(BitString(k, 2), tuple(bits(v) for v in table), answer, BitString(k, 2))
            for k, (table, answer) in enumerate(rows)
        )
        problem = ol.OracleProblem("cut", 2, 1, settings, "cells")
        tables, solutions = reference_problem_tables(problem)
        return problem, plain_minimax_cost(tables, solutions, tables)

    def test_non_constant_children_are_cut_off_at_cost_two(self):
        # answers x, x, y, z; argument 0 splits the set 2/2 into pairs of cost 1,
        # so best is 2 and the size-3 parts of arguments 1 and 2 cannot beat it
        problem, expected = self.four_settings([("0000", "x"), ("1100", "x"), ("0100", "y"), ("1110", "z")])
        solver = akrule._TreeSolver(akrule._Index(problem))
        assert solver._splits(0b1111, solver.args) == [(0, [0b0101, 0b1010]), (1, [0b0001, 0b1110]), (2, [0b0111, 0b1000])]
        assert solver.cost(0b1111) == expected == 2
        assert solver._memo == {0b1111: 2, 0b0101: 1, 0b1010: 1, 0b0001: 0}
        assert [solver.cost(m) for m in (0b1110, 0b0111)] == [2, 2]

    def test_parts_with_more_answers_than_one_query_shows_are_cut_off_at_cost_three(self):
        # four answers and one-bit values: at best 3 the part {00, 01, 10} of
        # argument 0 needs 2 queries to tell its 3 answers apart, so it is not expanded
        problem, expected = self.four_settings([("1111", "y"), ("1011", "x"), ("1000", "z"), ("0111", "w")])
        solver = akrule._TreeSolver(akrule._Index(problem))
        assert solver.fanout == 2
        assert solver._splits(0b1111, solver.args)[:2] == [(0, [0b0111, 0b1000]), (1, [0b1001, 0b0110])]
        assert solver.cost(0b1111) == expected == 2
        assert solver._memo == {0b1111: 2, 0b1001: 1, 0b0110: 1}
        assert solver.cost(0b0111) == 2

    def test_empty_candidates_rejected(self, grover2):
        with pytest.raises(ValueError):
            akrule.decision_tree_cost(grover2, [])


class TestPredict:
    def test_small_problems(self, grover2, dj2, simon2):
        for problem in (grover2, dj2, simon2):
            report = akrule.predict_queries(problem)
            assert report.baseline_queries == 3
            assert report.predicted_queries == 1

    def test_search_reference_counts(self, grover2):
        report = akrule.predict_queries(grover2)
        assert report.grover_formula_queries == 1
        assert report.grover_reference_queries == 2

    def test_search_formula_keyed_on_tables(self):
        tables = {"00": "0001", "01": "0011", "10": "0111", "11": "1111"}
        doc = {
            "name": "grover",
            "arg_bits": 2,
            "out_bits": 1,
            "settings": [
                {"id": b, "table": list(table), "solution": b} for b, table in tables.items()
            ],
        }
        report = akrule.predict_queries(ol.load_problem(json.dumps(doc)))
        assert report.grover_formula_queries is None
        assert report.grover_reference_queries is None

    def test_search_formula_for_renamed_search_problem(self):
        doc = json.loads(ol.serialize_problem(ol.build_grover(2)))
        doc["name"] = "hidden-index"
        report = akrule.predict_queries(ol.load_problem(json.dumps(doc)))
        assert report.grover_formula_queries == 1
        assert report.grover_reference_queries == 2

    def test_scaling_n4(self):
        report = akrule.predict_queries(ol.build_grover(4))
        assert report.baseline_queries == 15
        assert report.predicted_queries == 3
        assert report.grover_formula_queries == 3
        assert report.grover_reference_queries == 4
        for rep in report.per_setting:
            assert rep.instance_sizes == ((4, 35),)
            assert rep.instance_costs == ((3, 35),)
            assert rep.epsilons == (2.0,)

    def test_odd_width_is_flagged(self):
        report = akrule.predict_queries(ol.build_grover(3))
        assert report.predicted_queries is None
        assert all(rep.no_instance for rep in report.per_setting)
        assert any("no R=1/2 instance" in note for note in report.notes)
        assert any("no exact R=1/2 split" in note for note in report.notes)
        assert report.grover_formula_queries is None

    def test_prediction_never_beats_baseline(self, grover2, dj2, simon2):
        for problem in (grover2, dj2, simon2, ol.build_simon(3)):
            report = akrule.predict_queries(problem)
            if report.predicted_queries is not None:
                assert report.predicted_queries <= report.baseline_queries

    def test_report_round_trips_to_dict(self, simon2):
        report = akrule.predict_queries(simon2)
        payload = report.as_dict()
        assert payload["baseline_queries"] == 3
        assert payload["predicted_queries"] == 1
        assert payload["per_setting"][0]["epsilons"] == [round(LOG2_3 - 1.0, 6)]


def translations(problem):
    return akrule._translations(akrule._index(problem))


def grover_document(n):
    return json.loads(ol.serialize_problem(ol.build_grover(n)))


class TestTranslations:
    """The xor shifts of the setting ids that ``predict_queries`` transports reports along."""

    @pytest.mark.parametrize(
        "source,size",
        [
            ("grover:n=6", 64),
            ("grover:n=4", 16),
            ("simon:n=3", 4),
            ("dj:n=2", 2),
            ("simon:n=2", 2),
            ("dj:n=1", 4),
            ("random_seed1.json", 1),
        ],
    )
    def test_group_sizes(self, source, size):
        if source.endswith(".json"):
            problem = ol.load_problem((Path(__file__).parent / "golden" / source).read_text())
        else:
            problem = ol.parse_selector(source)
        shifts = translations(problem)
        assert len(shifts) == size
        assert {s ^ t for s in shifts for t in shifts} == set(shifts)

    def test_ids_not_closed_under_shifts(self):
        # relabel 11 as 111: every table, outcome and answer keeps its place,
        # but no nonzero shift maps {000, 001, 010, 111} onto itself
        doc = grover_document(2)
        for st in doc["settings"]:
            st["id"] = "111" if st["id"] == "11" else "0" + st["id"]
        assert translations(ol.load_problem(json.dumps(doc))) == (0,)

    def test_outcome_partition_broken(self):
        # outcome pairs {000,001} {010,011} {100,101} {110,111} are kept by every
        # shift; swapping the outcomes of 001 and 010 leaves pairs with
        # difference 010 inside {0xx} and difference 001 inside {1xx}
        doc = grover_document(3)
        for st in doc["settings"]:
            st["solution"] = "x"
            st["a_outcome"] = st["id"][:2]
        assert translations(ol.load_problem(json.dumps(doc))) == tuple(range(8))
        outcome = {"001": "01", "010": "00"}
        for st in doc["settings"]:
            st["a_outcome"] = outcome.get(st["id"], st["a_outcome"])
        assert translations(ol.load_problem(json.dumps(doc))) == (0, 1, 2, 3)

    def test_solution_partition_broken(self):
        # answers {00} {01} {10,11}: only the shift that swaps 10 and 11 keeps them
        doc = grover_document(2)
        for st in doc["settings"]:
            st["solution"] = {"10": "c", "11": "c"}.get(st["id"], st["id"])
        assert translations(ol.load_problem(json.dumps(doc))) == (0, 1)

    def test_argument_partitions_broken(self):
        # table of 00 permuted from 1000 to 0100: argument 0 no longer splits,
        # argument 1 splits {00,01} from {10,11}, and the singletons {10} and
        # {11} at arguments 2 and 3 are only swapped by the shift 01
        doc = grover_document(2)
        doc["settings"][0]["table"] = ["0", "1", "0", "0"]
        assert translations(ol.load_problem(json.dumps(doc))) == (0, 1)


class TestOccamAudit:
    def test_emitted_pairs_pass_all_conditions_definitionally(self, grover2, dj2, simon2):
        for problem in (grover2, dj2, simon2):
            n_positions = 1 << problem.arg_bits
            for b_star in problem.setting_ids():
                pairs = akrule.enumerate_occam_pairs(problem, b_star)
                seen = set()
                for pair in pairs:
                    key = (tuple(sorted(b.value for b in pair.subset_i)),
                           tuple(sorted(b.value for b in pair.subset_j)))
                    assert key not in seen, "duplicate subset pair"
                    seen.add(key)
                    assert pair.subset_i & pair.subset_j == {b_star}
                    for spec, subset in ((pair.spec_i, pair.subset_i), (pair.spec_j, pair.subset_j)):
                        assert akrule.realized_subset(problem, spec, b_star) == subset
                        assert len({problem.setting(x).solution for x in subset}) >= 2
                    d_i = akrule.delta_entropy(problem, pair.subset_i)
                    d_j = akrule.delta_entropy(problem, pair.subset_j)
                    assert abs(d_i - d_j) <= ATOL
                    assert abs(pair.epsilon - d_i) <= ATOL
                    # complementarity structure
                    if pair.spec_i.family == "cells":
                        assert pair.spec_j.cells == frozenset(range(n_positions)) - pair.spec_i.cells
                    else:
                        masks = [m.value for m in pair.spec_i.masks + pair.spec_j.masks]
                        assert len(masks) == problem.setting_width
                        assert len(gf2_rref(masks)) == problem.setting_width


class TestFamilyGuards:
    def test_linear_on_wide_settings_rejected(self):
        problem = ol.build_simon(3)  # 16-bit setting strings
        with pytest.raises(ValueError, match="linear"):
            akrule.enumerate_occam_pairs(problem, problem.setting_ids()[0], AkConfig(family="linear"))

    def test_search_analysis_capped_at_six_bits(self):
        problem = ol.build_grover(8)  # builds fine, analysis is the capped part
        with pytest.raises(ValueError, match="width"):
            akrule.predict_queries(problem)


def fresh_core(problem, family):
    """The core a call on the problem will use, built anew with no column formed."""
    clear_caches(problem)
    core = akrule._index(problem).core(family)
    assert not core._columns
    return core


class TestColumnsOnDemand:
    """Work counts of the partition core, not timings: the columns a call forms."""

    @pytest.mark.parametrize("selector,family", [("grover:n=4", "cells"), ("grover:n=6", "linear")])
    def test_symmetric_predict_forms_one_column(self, selector, family):
        problem = ol.parse_selector(selector)
        core = fresh_core(problem, family)
        akrule.predict_queries(problem, AkConfig(family=family))
        assert list(core._columns) == [0]

    def test_predict_without_symmetry_forms_every_column(self):
        problem = ol.load_problem((Path(__file__).parent / "golden" / "random_seed1.json").read_text())
        core = fresh_core(problem, problem.default_family)
        akrule.predict_queries(problem)
        assert sorted(core._columns) == list(range(32))

    def test_cells_predict_takes_no_exact_key(self):
        # on grover:n=4 cells the bitwise pass rules out every spec before its
        # entropy key is needed; without it, 32,768 blocks took one
        problem = ol.build_grover(4)
        core = fresh_core(problem, "cells")
        akrule.predict_queries(problem, AkConfig(family="cells"))
        assert not core.index._keys
        assert len(core._columns) == 1

    @pytest.mark.parametrize("family", ["cells", "linear"])
    @pytest.mark.parametrize("complementary", [True, False])
    @pytest.mark.parametrize("selector", ["dj:n=2", "simon:n=2", "repeated tables"])
    def test_bitwise_pass_keeps_exactly_the_specs_that_may_pair(self, selector, complementary, family):
        # a block may pair when it leaves the answer open, so the pair search
        # needs no further undetermined test; a complementary cells block also
        # needs an open complement that it meets in the true setting only,
        # which with distinct tables it always does
        if selector == "repeated tables":
            problem = solver_problem(2, 1, [0b0000, 0b0000, 0b0011, 0b0101, 0b0101, 0b0110], [0, 1, 0, 1, 0, 1])
        else:
            problem = ol.parse_selector(selector)
        core = fresh_core(problem, family)
        everything = frozenset(range(1 << problem.arg_bits))

        def open_subset(spec, b):
            subset = akrule.realized_subset(problem, spec, b)
            return subset if len({problem.setting(x).solution for x in subset}) > 1 else None

        for i, b in enumerate(problem.setting_ids()):
            expected = {}
            for s in range(len(core)):
                mine = open_subset(core.spec(s), b)
                if mine is not None and complementary and family == "cells":
                    theirs = open_subset(cells_spec(everything - core.spec(s).cells), b)
                    mine = mine if theirs is not None and mine & theirs == {b} else None
                if mine is not None:
                    expected[s] = mine
            blocks, _ = core.partners(i, complementary)
            assert {s: core.index.subset(mask) for s, mask in blocks.items()} == expected
            assert list(blocks) == sorted(blocks)

    def test_pairs_form_the_column_of_their_setting(self, simon2):
        core = fresh_core(simon2, "cells")
        akrule.enumerate_occam_pairs(simon2, simon2.setting_ids()[3])
        assert list(core._columns) == [3]

    @pytest.mark.parametrize("arg_bits", [1, 2, 3, 4])
    def test_cells_complement_is_the_reversed_spec(self, arg_bits):
        # the complementary cells partner of spec s is looked up as spec len - 1 - s
        core = akrule._Core(akrule._Index(ol.build_grover(arg_bits)), "cells")
        everything = frozenset(range(1 << arg_bits))
        for s in range(len(core)):
            assert frozenset(core.key(len(core) - 1 - s)) == everything - frozenset(core.key(s))
