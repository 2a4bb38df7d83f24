"""The partition core and the decision-tree solver against the definitions.

``brute_force_pairs`` in ``reference_tables`` tests every candidate spec pair
with ``realized_subset`` and ``delta_entropy``.  ``enumerate_occam_pairs`` and
``setting_instances`` must give the same subsets and specs, in the same
order, on the built-in n<=2 problems and on generated valid problems: equal
outcome blocks, a consistent outcome-to-solution map, at most 8 table cells
and at most 4 setting bits.  Every block the core forms in ``column(i)``
must be the ``realized_subset`` of its spec at setting i, on built-ins and
generated problems.  ``decision_tree_cost`` must equal the memo-free
``plain_minimax_cost`` on generated problems, and raise exactly where it
raises, on sets holding two settings with equal tables and different answers;
on sets of up to 24 settings, too large for the plain recursion, it must
equal ``memo_minimax_cost``.  The two entropy routes must agree on every
realized subset of generated problems.  ``predict_queries``, which scans one
setting per orbit of the problem's xor-translation symmetries, must equal a
report assembled setting by setting from ``setting_instances``,
``decision_tree_cost`` and ``delta_entropy``, epsilons included to the last
bit, on the built-ins, on generated problems and on generated problems with
a planted xor covariance.
"""

import functools
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oraclelab as ol
from oraclelab import akrule
from oraclelab.akrule import AkConfig, SettingReport
from oraclelab.qstate import ATOL, BitString

from conftest import solver_problem
from reference_tables import (
    bfs_subspaces,
    brute_force_pairs,
    gf2_span,
    memo_minimax_cost,
    plain_minimax_cost,
    plain_optimal_play,
    reference_specs,
)

MODES = [(family, complementary) for family in ("cells", "linear") for complementary in (True, False)]


def assert_matches_reference(problem, b_star, family, complementary):
    config = AkConfig(family=family, complementary=complementary)
    expected, partnered = brute_force_pairs(problem, b_star, family, complementary)
    pairs = akrule.enumerate_occam_pairs(problem, b_star, config)
    assert [(p.spec_i, p.subset_i, p.spec_j, p.subset_j) for p in pairs] == [e[:4] for e in expected]
    for pair, e in zip(pairs, expected):
        assert abs(pair.epsilon - e[4]) <= 1e-9
    # streaming: each realized subset with a partner, at the first spec that has one
    first = {}
    for spec in partnered:
        first.setdefault(akrule.realized_subset(problem, spec, b_star), spec)
    instances = akrule.setting_instances(problem, b_star, config)
    by_values = sorted(first.items(), key=lambda item: sorted(b.value for b in item[0]))
    assert [(i.subset, i.spec) for i in instances] == by_values
    for inst in instances:
        assert abs(inst.epsilon - akrule.delta_entropy(problem, inst.subset)) <= 1e-9


@pytest.mark.parametrize("width", range(7))
def test_direct_subspace_enumeration_matches_bfs(width):
    assert akrule._all_subspaces(width) == bfs_subspaces(width)


@pytest.mark.parametrize("family,complementary", MODES)
@pytest.mark.parametrize("selector", ["grover:n=2", "dj:n=1", "dj:n=2", "simon:n=2"])
def test_builtins_match_brute_force(selector, family, complementary):
    problem = ol.parse_selector(selector)
    for b_star in problem.setting_ids():
        assert_matches_reference(problem, b_star, family, complementary)


@st.composite
def generated_problems(draw, size=None):
    """A valid problem with its true setting: up to 8 cells, up to 4 setting bits.

    With ``size`` given, the problem has exactly that many settings, on 8
    one-bit cells.
    """
    if size is None:
        width = draw(st.integers(1, 4))
        arg_bits = draw(st.integers(1, 3))
        out_bits = draw(st.integers(1, min(arg_bits, 2)))
        most = min(1 << width, 1 << (out_bits << arg_bits))
        size = draw(st.integers(max(2, most // 2), most))
    else:
        width, arg_bits, out_bits = (size - 1).bit_length(), 3, 1
    n_tables = 1 << (out_bits << arg_bits)
    ids = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=size, max_size=size, unique=True))
    tables = draw(st.lists(st.integers(0, n_tables - 1), min_size=size, max_size=size, unique=True))
    n_outcomes = draw(st.sampled_from([d for d in range(2, size + 1) if size % d == 0]))
    order = draw(st.permutations(range(size)))
    # at least two answers, each the image of one or more outcomes
    n_answers = draw(st.integers(2, n_outcomes))
    answer = [a % n_answers for a in draw(st.permutations(range(n_outcomes)))]
    outcome_width = max(1, (n_outcomes - 1).bit_length())
    entry = (1 << out_bits) - 1
    settings_ = []
    for k, (b, t) in enumerate(zip(ids, tables)):
        outcome = order[k] % n_outcomes
        table = tuple(BitString((t >> (out_bits * a)) & entry, out_bits) for a in range(1 << arg_bits))
        settings_.append(
            ol.Setting(BitString(b, width), table, f"s{answer[outcome]}", BitString(outcome, outcome_width))
        )
    problem = ol.OracleProblem("generated", arg_bits, out_bits, tuple(settings_), "cells")
    return problem, problem.settings[draw(st.integers(0, size - 1))].id


@pytest.mark.parametrize("family,complementary", MODES)
@settings(deadline=None)
@given(case=generated_problems())
def test_generated_problems_match_brute_force(case, family, complementary):
    problem, b_star = case
    assert_matches_reference(problem, b_star, family, complementary)


@settings(deadline=None)
@given(case=generated_problems())
def test_generated_problems_entropy_routes_agree(case):
    problem, b_star = case
    subsets = {
        akrule.realized_subset(problem, spec, b_star)
        for family in ("cells", "linear")
        for spec in reference_specs(problem, family)
    }
    for subset in subsets:
        assert abs(akrule.delta_entropy(problem, subset) - akrule.delta_entropy_via_states(problem, subset)) <= ATOL


def assert_columns_match(problem, family, positions=None):
    """Spec s's block in column i is the realized subset of spec s at setting i."""
    core = akrule._Core(akrule._Index(problem), family)
    assert [core.spec(s) for s in range(len(core))] == reference_specs(problem, family)
    for i in range(len(core.index.ids)) if positions is None else positions:
        column = akrule._ints(core.column(i))
        assert len(column) == len(core)
        for s, mask in enumerate(column):
            assert core.index.subset(mask) == akrule.realized_subset(problem, core.spec(s), core.index.ids[i]), (i, s)


@pytest.mark.parametrize(
    "selector,family,positions",
    [(selector, family, None) for selector in ("grover:n=2", "dj:n=1", "dj:n=2", "simon:n=2")
     for family in ("cells", "linear")]
    + [("simon:n=3", "cells", range(0, 168, 8)), ("grover:n=4", "linear", None), ("grover:n=4", "cells", (0, 9)),
       ("grover:n=6", "linear", (0, 63))],
)
def test_columns_match_realized_subsets_on_builtins(selector, family, positions):
    assert_columns_match(ol.parse_selector(selector), family, positions)


@pytest.mark.parametrize("family", ["cells", "linear"])
@settings(deadline=None)
@given(case=generated_problems())
def test_columns_match_realized_subsets_on_generated_problems(case, family):
    problem, _ = case
    assert_columns_match(problem, family)


@pytest.mark.parametrize("size", [63, 64, 65])
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_columns_match_realized_subsets_at_word_boundaries(size, data):
    # a column row is one uint64 word up to 64 settings: 63 leave the top bit
    # clear, 64 fill it, and at 65 the last setting is bit 0 of a second word
    problem, _ = data.draw(generated_problems(size))
    assert_columns_match(problem, "cells", [i for i in (0, 1, 62, 63, 64) if i < size])


@st.composite
def solver_problems(draw):
    """A problem whose tables may repeat, with or without a shared answer, and candidate masks.

    Each setting has its own outcome, so any answers are valid; tables come
    from a small pool so that equal tables are common.  Half the draws give
    every setting its own table and its own answer instead: a set's cost is
    then the depth that tells all its settings apart, and so it rests on the
    solver's cut-off for parts with more than fanout ** (best - 2) answers.
    """
    arg_bits = draw(st.integers(1, 3))
    out_bits = draw(st.integers(1, min(arg_bits, 2)))
    size = draw(st.integers(1, 9))
    n_tables = 1 << (out_bits << arg_bits)
    if draw(st.booleans()):
        size = min(size, n_tables)
        tables = draw(st.lists(st.integers(0, n_tables - 1), min_size=size, max_size=size, unique=True))
        answers = list(range(size))
    else:
        pool = draw(st.integers(1, min(size + 2, n_tables)))
        tables = draw(st.lists(st.integers(0, pool - 1), min_size=size, max_size=size))
        n_answers = draw(st.integers(1, size))
        answers = draw(st.lists(st.integers(0, n_answers - 1), min_size=size, max_size=size))
    masks = draw(st.lists(st.integers(1, (1 << size) - 1), min_size=1, max_size=8))
    return solver_problem(arg_bits, out_bits, tables, answers), masks


def definitions(problem):
    """Tables and answers keyed by id text, the form the reference minimax takes."""
    tables = {st.id.text: tuple(e.value for e in st.table) for st in problem.settings}
    return tables, {st.id.text: st.solution for st in problem.settings}


def reference_cost(problem, mask):
    """plain_minimax_cost on the mask's settings, or ValueError where it finds indistinguishable ones."""
    tables, solutions = definitions(problem)
    candidates = [st.id.text for k, st in enumerate(problem.settings) if mask >> k & 1]
    try:
        return plain_minimax_cost(tables, solutions, candidates)
    except AssertionError:
        return ValueError


def outcome(solve, *args):
    """What solve returns, or ValueError where it rejects indistinguishable settings."""
    try:
        return solve(*args)
    except ValueError as exc:
        assert "indistinguishable" in str(exc)
        return ValueError


@settings(deadline=None)
@given(case=solver_problems())
def test_solver_matches_plain_minimax(case):
    problem, masks = case
    ids = problem.setting_ids()
    for mask in masks:
        expected = reference_cost(problem, mask)
        subset = [b for k, b in enumerate(ids) if mask >> k & 1]
        assert outcome(akrule.decision_tree_cost, problem, subset) == expected
        assert outcome(akrule._TreeSolver(akrule._Index(problem)).cost, mask) == expected


@settings(deadline=None)
@given(case=solver_problems())
# tables 00, 00, 10, 11 with answers x, x, y, x cost 2, and every depth-2
# tree leaves a part with two answers after its first query
@example(case=(solver_problem(1, 1, [0, 0, 1, 3], [0, 0, 1, 0]), [0b1111]))
def test_batched_costs_match_scalar_costs(case):
    problem, masks = case
    scalar = akrule._TreeSolver(akrule._Index(problem))
    expected = [outcome(scalar.cost, mask) for mask in masks]
    assert expected == [reference_cost(problem, mask) for mask in masks]
    if ValueError in expected:
        with pytest.raises(ValueError, match="indistinguishable"):
            akrule._TreeSolver(akrule._Index(problem)).costs(masks)
        singles = [outcome(akrule._TreeSolver(akrule._Index(problem)).costs, [mask]) for mask in masks]
        assert [c if c is ValueError else c[0] for c in singles] == expected
    else:
        assert akrule._TreeSolver(akrule._Index(problem)).costs(masks) == expected


@st.composite
def play_cases(draw):
    """A solver problem, a candidate mask, a true setting, a transcript of argument texts and
    whether the transcript is optimal by construction.

    Half the transcripts are walks that end with the answer fixed: while it is
    open, each query is drawn from the arguments that split the candidates (in
    half of the walks, only from those that attain the plain minimax cost, so
    the walk is optimal by construction), and the candidates narrow to the true
    setting's part.  The rest are random, may hold an argument one bit too wide,
    and may come with a true setting outside the candidates.  The mask is the
    first one whose answer is still open, if any, so that most transcripts are
    not empty.
    """
    problem, masks = draw(solver_problems())
    ids, (tables, solutions) = problem.setting_ids(), definitions(problem)
    texts_of = {mask: [b.text for k, b in enumerate(ids) if mask >> k & 1] for mask in masks}
    mask = next((m for m in masks if len({solutions[b] for b in texts_of[m]}) > 1), masks[0])
    members = texts_of[mask]
    n_args, texts = 1 << problem.arg_bits, lambda args: [format(a, f"0{problem.arg_bits}b") for a in args]
    if draw(st.booleans()):
        optimal = draw(st.booleans())
        true, candidates, queries = draw(st.sampled_from(members)), members, []
        try:
            while len({solutions[b] for b in candidates}) > 1:
                total = plain_minimax_cost(tables, solutions, candidates)
                moves = []
                for a in range(n_args):
                    groups: dict[int, list[str]] = {}
                    for b in candidates:
                        groups.setdefault(tables[b][a], []).append(b)
                    cost = 1 + max(plain_minimax_cost(tables, solutions, g) for g in groups.values())
                    if len(groups) > 1 and (cost == total or not optimal):
                        moves.append((a, groups[tables[true][a]]))
                a, candidates = draw(st.sampled_from(moves))
                queries.append(a)
            return problem, mask, true, texts(queries), optimal
        except AssertionError:  # indistinguishable candidates: no walk fixes the answer
            pass
    true = draw(st.sampled_from([b.text for b in ids] if draw(st.booleans()) else members))
    queries = texts(draw(st.lists(st.integers(0, n_args - 1), max_size=4)))
    if queries and draw(st.booleans()):
        queries[draw(st.integers(0, len(queries) - 1))] += "0"
    return problem, mask, true, queries, False


def verdict(play, *args):
    """What play returns, or the message it raises with; both sides' indistinguishable errors match."""
    try:
        return play(*args)
    except (ValueError, AssertionError) as exc:
        return "indistinguishable" if "indistinguishable" in str(exc) else str(exc)


@settings(deadline=None)
@given(case=play_cases())
# a walk that fixes the answer, but whose first query leaves a costlier part the true setting avoids
@example(case=(solver_problem(2, 1, [14, 7, 10, 6], [0, 1, 2, 3]), 0b1111, "00", ["10", "11"], False))
def test_optimal_play_matches_plain_optimal_play(case):
    problem, mask, true, queries, optimal = case
    tables, solutions = definitions(problem)
    subset = [b for k, b in enumerate(problem.setting_ids()) if mask >> k & 1]
    expected = verdict(plain_optimal_play, tables, solutions, [b.text for b in subset], queries, true)
    assert expected is True or not optimal
    args = [BitString.from_text(q) for q in queries]
    assert verdict(akrule.optimal_play, problem, subset, args, BitString.from_text(true)) == expected


@pytest.mark.parametrize("source", ["simon:n=3", "random_seed1.json"])
def test_solver_matches_memoized_minimax_on_large_sets(source):
    if source.endswith(".json"):
        problem = ol.load_problem((Path(__file__).parent / "golden" / source).read_text())
    else:
        problem = ol.parse_selector(source)
    tables, solutions = definitions(problem)
    ids = problem.setting_ids()
    solver = akrule._TreeSolver(akrule._Index(problem))
    memo = {}
    rng = random.Random(20240517)
    for _ in range(100):
        subset = rng.sample(ids, rng.randint(1, min(24, len(ids))))
        expected = memo_minimax_cost(tables, solutions, [b.text for b in subset], memo)
        assert solver.cost(solver.index.mask_of(subset)) == expected
        assert akrule.decision_tree_cost(problem, subset) == expected


def unreduced_report(problem, config, settings_):
    """The baseline and the settings' reports from the definitional paths, one setting at a time.

    Each entropy key's epsilon is taken from its least ascending
    outcome-count tuple, the canonical choice ``predict_queries`` makes.
    """
    baseline = akrule.decision_tree_cost(problem, problem.setting_ids())
    reports = []
    for b_star in settings_:
        instances = akrule.setting_instances(problem, b_star, config)
        least = {}
        for inst in instances:
            counts = tuple(sorted(Counter(problem.setting(b).a_outcome.value for b in inst.subset).values()))
            key = akrule._entropy_key(counts)
            if key not in least or counts < least[key][0]:
                least[key] = (counts, inst.subset)
        costs = Counter(akrule.decision_tree_cost(problem, inst.subset) for inst in instances)
        reports.append(
            SettingReport(
                b_star,
                tuple(sorted(akrule.delta_entropy(problem, subset) for _, subset in least.values())),
                tuple(sorted(Counter(len(inst.subset) for inst in instances).items())),
                tuple(sorted(costs.items())),
                not instances,
            )
        )
    return baseline, tuple(reports)


def assert_reduction_exact(problem, family, complementary, stride=1):
    """predict_queries against the unreduced reports of every stride-th setting."""
    config = AkConfig(family=family, complementary=complementary)
    report = outcome(akrule.predict_queries, problem, config)
    expected = outcome(unreduced_report, problem, config, problem.setting_ids()[::stride])
    if report is ValueError or expected is ValueError:
        assert report is expected
        return
    baseline, reports = expected
    assert report.baseline_queries == baseline
    assert report.per_setting[::stride] == reports
    costs = [c for rep in report.per_setting for c, _ in rep.instance_costs]
    assert report.predicted_queries == max(costs, default=None)


# grover:n=4 cells without complementarity is left out: its unreduced
# report alone takes minutes (16 settings of 65,536 specs, every pair).
# On grover:n=6 every ninth setting is checked, 8 of 64, which keeps the
# unreduced path to about a second per case.
STRIDE = {"grover:n=6": 9}
REDUCTION_CASES = [
    (selector, family, complementary)
    for selector, families in [
        ("grover:n=1", ("cells", "linear")),
        ("grover:n=2", ("cells", "linear")),
        ("grover:n=3", ("cells", "linear")),
        ("grover:n=4", ("cells", "linear")),
        ("grover:n=5", ("linear",)),
        ("grover:n=6", ("linear",)),
        ("dj:n=1", ("cells", "linear")),
        ("dj:n=2", ("cells", "linear")),
        ("simon:n=2", ("cells", "linear")),
        ("simon:n=3", ("cells",)),
    ]
    for family in families
    for complementary in (True, False)
    if (selector, family, complementary) != ("grover:n=4", "cells", False)
]


@functools.lru_cache(maxsize=None)
def builtin(selector):
    # one object per selector, so the cases of a selector share its views
    return ol.parse_selector(selector)


@pytest.mark.parametrize("selector,family,complementary", REDUCTION_CASES)
def test_orbit_reduced_predict_matches_unreduced_on_builtins(selector, family, complementary):
    assert_reduction_exact(builtin(selector), family, complementary, STRIDE.get(selector, 1))


@pytest.mark.parametrize("family,complementary", MODES)
@settings(deadline=None)
@given(case=generated_problems())
def test_orbit_reduced_predict_matches_unreduced_on_generated_problems(case, family, complementary):
    problem, _ = case
    assert_reduction_exact(problem, family, complementary)


@st.composite
def covariant_problems(draw):
    """A decidable problem with a planted group T of xor shifts, and the group.

    Ids are a union of T-cosets; t acts on arguments by xor with its low
    arg_bits bits, p(t), and each coset's tables are one drawn table moved
    along it: T_(r^t)(a) = T_r(a ^ p(t)), so T_(b^t)(a ^ p(t)) = T_b(a).
    Outcomes are the cosets of a subgroup U of T, answers the cosets of a
    subgroup containing U, so every shift in T keeps both partitions.  The
    group is returned empty when two settings then swap their tables, their
    answers and outcomes, or their outcomes under one answer: that may
    break some of the planted shifts.
    """
    arg_bits = draw(st.integers(2, 3))
    out_bits = draw(st.integers(1, min(arg_bits, 2)))
    width = draw(st.integers(arg_bits, 4))
    vectors = st.integers(1, (1 << width) - 1)
    low = (1 << arg_bits) - 1

    swap = draw(st.sampled_from(["", "table", "answer", "outcome"]))
    shifts = gf2_span(draw(st.lists(vectors, min_size=1, max_size=width)))
    # an answer swap breaks only the answer partition when outcomes are single
    # settings; an outcome swap needs answers holding several outcomes
    outcome_group = gf2_span(draw(st.lists(st.sampled_from(shifts), max_size=0 if swap == "answer" else 1)))
    # shifts with p(t) = 0 repeat a table, so they join the answer group
    answer_group = gf2_span(
        outcome_group
        + [t for t in shifts if not t & low]
        + draw(st.lists(vectors, min_size=swap == "outcome", max_size=1))
    )
    reps = {min(v ^ t for t in shifts) for v in range(1 << width)}
    chosen = draw(st.lists(st.sampled_from(sorted(reps)), min_size=1, max_size=len(reps), unique=True))
    entry = (1 << out_bits) - 1

    def coset(v, group):
        return min(v ^ u for u in group)

    settings_ = []
    for r in chosen:
        table = draw(st.lists(st.integers(0, entry), min_size=1 << arg_bits, max_size=1 << arg_bits))
        for t in shifts:
            p = t & low
            settings_.append(
                ol.Setting(
                    BitString(r ^ t, width),
                    tuple(BitString(table[a ^ p], out_bits) for a in range(1 << arg_bits)),
                    f"s{coset(r ^ t, answer_group)}",
                    BitString(coset(r ^ t, outcome_group), width),
                )
            )
    if swap:
        i = draw(st.integers(0, len(settings_) - 1))
        x = settings_[i]
        differ = {
            "table": lambda y: y.table != x.table,
            "answer": lambda y: y.solution != x.solution,
            "outcome": lambda y: y.solution == x.solution and y.a_outcome != x.a_outcome,
        }[swap]
        others = [j for j, y in enumerate(settings_) if differ(y)]
        if others:
            j = draw(st.sampled_from(others))
            y = settings_[j]
            if swap == "table":
                settings_[i], settings_[j] = replace(x, table=y.table), replace(y, table=x.table)
            elif swap == "answer":
                settings_[i] = replace(x, solution=y.solution, a_outcome=y.a_outcome)
                settings_[j] = replace(y, solution=x.solution, a_outcome=x.a_outcome)
            else:
                settings_[i], settings_[j] = replace(x, a_outcome=y.a_outcome), replace(y, a_outcome=x.a_outcome)
        shifts = []
    # equal tables must share an answer, or every prediction raises
    answers = {}
    assume(all(answers.setdefault(s.table, s.solution) == s.solution for s in settings_))
    return ol.OracleProblem("covariant", arg_bits, out_bits, tuple(settings_), "cells"), shifts


@pytest.mark.parametrize("family,complementary", MODES)
@settings(deadline=None)
@given(case=covariant_problems())
def test_orbit_reduced_predict_matches_unreduced_with_planted_symmetry(case, family, complementary):
    problem, shifts = case
    found = akrule._translations(akrule._index(problem))
    assert set(shifts) <= set(found)
    assert_reduction_exact(problem, family, complementary)
