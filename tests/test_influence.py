"""Separation thresholds, difference-constraint queries, ranking-set analysis."""

from __future__ import annotations

import itertools
import logging
import random
import sqlite3
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coiquery.influence as influence
from oracles import (
    delta_query_oracle,
    delta_star_oracle,
    delta_star_solutions_oracle,
    forward_reduction_oracle,
    longest_paths_oracle,
    position_windows_oracle,
    satisfying_orders_backtrack_oracle,
    satisfying_orders_oracle,
)

from coiquery import (
    BiasFunction,
    ConfigurationError,
    DeltaQuery,
    DomainError,
    InfeasibleQueryError,
    RankingSetKind,
    RankingSetSummary,
    RelativeRankConstraint,
    SearchBudgetError,
    WeakOrder,
    base_query,
    build_delta_query,
    classify_ranking_set,
    delta_star_for_gap,
    gsd_values,
    order_by_case_sketch,
)


# --------------------------------------------------------------------------- #
# Separation search steps (first in the file: a search that loops fails here
# instead of hanging the first test that builds a query)
# --------------------------------------------------------------------------- #


class _CountedLookups(dict):
    """A separation memo that fails past ``limit`` lookups."""

    def __init__(self, limit):
        super().__init__()
        self.limit, self.lookups = limit, 0

    def __getitem__(self, separation):
        self.lookups += 1
        if self.lookups > self.limit:
            raise AssertionError(f"more than {self.limit} threshold lookups")
        return super().__getitem__(separation)


@pytest.mark.parametrize("z", [2, 3, 10, 64, 1000, 10**11, 10**300])
def test_least_reaching_takes_logarithmic_steps_per_target(z):
    # Gallop then bisect: at most 2 * ceil(log2 z) + 4 lookups per target.
    rng = random.Random(z)
    denominator = rng.randint(1, 100)

    def threshold_floor(separation):  # largest target the separation reaches
        gap, _, scale = influence._threshold_numerators(z, separation)
        return gap * denominator // scale

    targets = [threshold_floor(1) - 5, threshold_floor(z - 1) + 1]
    for _ in range(10):
        targets.append(threshold_floor(rng.randrange(1, z)) + rng.choice([-1, 0, 1]))
    targets.sort()
    evaluated = _CountedLookups((2 * (z - 1).bit_length() + 4) * len(targets))
    answers = influence._least_reaching(z, targets, denominator, evaluated)
    assert answers[0] == 1 and answers[-1] == z
    for target, answer in zip(targets, answers):
        assert answer == z or target <= threshold_floor(answer)
        assert answer == 1 or target > threshold_floor(answer - 1)


# --------------------------------------------------------------------------- #
# Constraints and complements
# --------------------------------------------------------------------------- #


def test_exactly_one_of_constraint_and_complement_holds():
    # ``build_delta_query`` writes the complement of (a, b, g) on integer
    # ranks as (b, a, 1 - g).
    keys = ["a", "b", "c", "d", "e"]
    constraint = RelativeRankConstraint("a", "b", 2)
    flipped = RelativeRankConstraint("b", "a", -1)
    for ranks in itertools.permutations(range(1, 6)):
        order = WeakOrder.total(
            [key for _, key in sorted(zip(ranks, keys))]
        )
        assert constraint.satisfied_by(order) != flipped.satisfied_by(order)


# --------------------------------------------------------------------------- #
# Minimal forcing separation
# --------------------------------------------------------------------------- #


def test_threshold_windows_at_z_ten():
    assert delta_star_for_gap(Fraction(1, 2), 10) == 1
    assert delta_star_for_gap(2, 10) == 5
    assert delta_star_for_gap(10, 10) is None
    assert delta_star_for_gap(0, 10) == 1
    assert delta_star_for_gap(Fraction(-1, 4), 10) == 1
    assert delta_star_for_gap(-2, 10) is None


def test_a_one_position_universe_has_no_separation_to_solve():
    with pytest.raises(DomainError, match="universe of size >= 2"):
        delta_star_for_gap(1, 1)
    two_keys = WeakOrder.total(["e1", "e2"])
    with pytest.raises(DomainError, match="universe of size >= 2"):
        build_delta_query(two_keys, BiasFunction({"e1": 1}), 1)


def test_bias_gap_is_subject_minus_rival():
    bias = BiasFunction({"s": Fraction(1)})
    assert delta_star_for_gap(bias("s") - bias("r"), 4) == 2
    # swapped roles give gap -1, below every window
    assert delta_star_for_gap(bias("r") - bias("s"), 4) is None
    shallow = BiasFunction({"s": Fraction(1, 4)})
    # gap -1/4 is in the first window
    assert delta_star_for_gap(shallow("r") - shallow("s"), 4) == 1


def _covering(gap, z):
    """Every separation covering ``gap``: from the least reaching ``gap``
    to, excluding, the least reaching ``gap + 1``, in one solver sweep."""
    numerator, denominator = Fraction(gap).as_integer_ratio()
    targets = [numerator, numerator + denominator]
    return tuple(range(*influence._least_reaching(z, targets, denominator, {})))


def test_all_solutions_listed_ascending_and_smallest_returned():
    solutions = _covering(1, 4)
    assert solutions == (2, 3)
    assert delta_star_for_gap(1, 4) == solutions[0]


def test_returned_separation_satisfies_its_window():
    rng = random.Random(3)
    for _ in range(200):
        z = rng.randint(2, 64)
        gap = Fraction(rng.randint(-40, 40), 10)
        result = delta_star_for_gap(gap, z)
        assert result == delta_star_oracle(gap, z)
        if result is None:
            for separation in range(1, z):
                window = gsd_values(z, separation)
                assert not (window.gap - 1 < gap <= window.gap)
        else:
            window = gsd_values(z, result)
            assert window.gap - 1 < gap <= window.gap


def test_multiplicity_is_logged_at_debug(caplog):
    with caplog.at_level(logging.DEBUG, logger="coiquery.influence"):
        assert delta_star_for_gap(1, 4) == 2
    assert any(
        "2 separations" in record.message
        and "smallest" in record.message
        and record.levelno == logging.DEBUG
        for record in caplog.records
    )
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="coiquery.influence"):
        assert delta_star_for_gap(0, 10) == 1
    assert not caplog.records


def test_all_solutions_match_the_scan_over_the_bias_sweep():
    for z in range(2, 129):
        for cents in range(-600, 601):
            gap = Fraction(cents, 100)
            assert _covering(gap, z) == delta_star_solutions_oracle(gap, z), (z, cents)


def test_huge_universes_are_solved_without_a_table():
    z = 10**11
    # Covered gaps only: the scan stops at its first hit.
    for gap in (Fraction(-1, 4), Fraction(1, 2), Fraction(7, 3), 40):
        assert delta_star_for_gap(gap, z) == delta_star_oracle(gap, z)
    assert delta_star_for_gap(Fraction(-1, 3), z) is None  # gap(1) - 1 = -1/3
    covering = _covering(40, z)
    assert covering and covering[0] == delta_star_for_gap(40, z)


@settings(max_examples=150, deadline=None)
@given(
    z=st.integers(2, 64) | st.just(10**11),
    denominator=st.integers(1, 100),
    numerators=st.lists(st.integers(-300, 300), min_size=1, max_size=12),
)
def test_one_sweep_solves_every_gap_like_the_scan(z, denominator, numerators):
    numerators = numerators + numerators[::2]  # duplicates, out of order
    solved = influence._smallest_coverings(z, numerators, denominator)
    for numerator in numerators:
        gap = Fraction(numerator, denominator)
        if z > 64 and gap <= Fraction(-1, 3):
            # Below the first window (threshold(1) - 1 = -1/3 at this z),
            # where the scan would run through all 10^11 separations.
            assert solved[numerator] is None
        else:
            assert solved[numerator] == delta_star_oracle(gap, z), gap


def test_astronomical_universes_answer_at_once():
    z = 10**300
    gaps = (Fraction(1, 2), Fraction(7, 3), 40)
    started = time.perf_counter()
    answers = [delta_star_for_gap(gap, z) for gap in gaps]
    assert time.perf_counter() - started < 1.0
    for gap, separation in zip(gaps, answers):
        assert gsd_values(z, separation).gap - 1 < gap <= gsd_values(z, separation).gap
        assert separation == 1 or gsd_values(z, separation - 1).gap < gap


# --------------------------------------------------------------------------- #
# Window relaxation
# --------------------------------------------------------------------------- #


def _drawn_constraints(n, low, high):
    """Up to 3n gaps in ``low..high`` between distinct keys of 1..n, one a pair."""
    return st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n), st.integers(low, high)),
        max_size=3 * n,
        unique_by=lambda c: (c[0], c[1]),
    ).map(lambda cs: [c for c in cs if c[0] != c[1]])


class _CountedRows(list):
    """An adjacency list that counts how often ``_settle`` iterates one, and
    fails once a call iterates more than its moves allow."""

    def __init__(self, row, tally, limit):
        super().__init__(row)
        self.tally, self.limit = tally, limit

    def __iter__(self):
        self.tally[0] += 1
        assert self.tally[0] <= self.limit, "relaxation passed its move bound"
        return super().__iter__()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            _drawn_constraints(n, -4, 4),
            st.sampled_from([1, 2, influence._COUNT_CAP]),
        )
    )
)
@example((3, [(1, 2, 1), (2, 1, -1)], 1))  # a zero-weight cycle, always tried
def test_settle_lowers_no_window_below_its_floor(case):
    # ``_settle`` has no emptiness test in its falling half: this is why.
    # It also ends: bounds stay in 1..n and each move shifts one by at least
    # 1, so a half pops at most n + n(n - 1) keys, each reading one adjacency
    # list.  A relaxation that loops fails here instead of hanging the search
    # below, so this runs before the first test that searches.
    size, picked, cap = case
    universe = [f"e{i}" for i in range(1, size + 1)]
    query = _query([(f"e{a}", f"e{b}", gap) for a, b, gap in picked], universe)
    settle = influence._settle

    def checked(after, before, lo, hi, rising, falling):
        start, tally = hi[:], [0]
        after, before = (
            [_CountedRows(row, tally, 2 * size * size) for row in rows]
            for rows in (after, before)
        )
        moved = settle(after, before, lo, hi, rising, falling)
        assert all(lo[k] <= hi[k] for k in range(size) if hi[k] < start[k])
        return moved

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(influence, "_settle", checked)
        influence._search(query, cap)


# --------------------------------------------------------------------------- #
# Building forcing queries
# --------------------------------------------------------------------------- #


def test_forward_constraint_kept_when_the_intent_already_separates_enough():
    intent = WeakOrder.total(["e2", "eA", "e3", "eB"])
    bias = BiasFunction({"e2": Fraction(1)})
    query = build_delta_query(intent, bias, 4)
    assert RelativeRankConstraint("e2", "e3", 2) in query.constraints
    assert RelativeRankConstraint("eA", "e2", -1) in query.constraints
    assert query.satisfied_by(intent)


def test_pairs_without_a_forcing_separation_stay_unconstrained():
    intent = WeakOrder.total(["a", "b"])
    heavy_rival = build_delta_query(intent, BiasFunction({"b": Fraction(2)}), 10)
    assert heavy_rival.constraints == ()
    oversized_gap = build_delta_query(intent, BiasFunction({"a": Fraction(10)}), 10)
    assert oversized_gap.constraints == ()


def test_tied_intent_keys_are_never_constrained_against_each_other():
    intent = WeakOrder.of(["a", "b"], ["c"])
    query = build_delta_query(intent, BiasFunction({}), 5)
    assert query.constraints == (
        RelativeRankConstraint("a", "c", 1),
        RelativeRankConstraint("b", "c", 1),
    )
    summary = classify_ranking_set(query)
    assert summary.count == 2  # only the tied pair may swap


def test_equal_biases_pin_the_full_intent_order():
    intent = WeakOrder.total(["e3", "e1", "e4", "e2"])
    query = build_delta_query(intent, BiasFunction({}, default=Fraction(1)), 4)
    summary = classify_ranking_set(query)
    assert summary.kind is RankingSetKind.SINGLETON
    assert base_query(query) == intent


def test_built_queries_are_satisfied_by_their_intent():
    rng = random.Random(41)
    for _ in range(100):
        z = rng.randint(2, 10)
        keys = [f"e{i}" for i in range(1, z + 1)]
        rng.shuffle(keys)
        blocks = []
        start = 0
        while start < len(keys):
            width = rng.randint(1, len(keys) - start)
            blocks.append(keys[start : start + width])
            start += width
        intent = WeakOrder.of(*blocks)
        bias = BiasFunction(
            {k: Fraction(rng.randint(0, 30), 10) for k in keys}
        )
        query = build_delta_query(intent, bias, z)
        assert query.satisfied_by(intent)


_DENOMINATORS = (1, 2, 3, 7, 10, 100, 10**6)


def _random_intent(rng, keys, tie_chance):
    blocks: list[list[str]] = []
    for key in keys:
        if blocks and rng.random() < tie_chance:
            blocks[-1].append(key)
        else:
            blocks.append([key])
    return WeakOrder.of(*blocks)


def _random_bias(rng, keys):
    """Biases in [-3, 3], over one shared or per-key mixed denominators."""
    shared = rng.choice(_DENOMINATORS)
    entries = {}
    for key in keys:
        den = shared if rng.random() < 0.5 else rng.choice(_DENOMINATORS)
        entries[key] = Fraction(rng.randint(-3 * den, 3 * den), den)
    return BiasFunction(entries)


def test_built_queries_match_the_pairwise_oracle():
    rng = random.Random(53)
    for trial in range(400):
        n = rng.randint(2, 9)
        keys = [f"e{i}" for i in range(1, n + 1)]
        rng.shuffle(keys)
        intent = _random_intent(rng, keys, rng.choice((0.0, 0.3, 0.6)))
        bias = _random_bias(rng, keys)
        z = rng.choice((n, n + 1, 2 * n, 3 * n, 64, 500, 5000))
        query = build_delta_query(intent, bias, z)
        expected = forward_reduction_oracle(delta_query_oracle(intent, bias, z), intent)
        assert [tuple(c) for c in query.constraints] == expected, trial
        assert query.universe == intent.keys()


def test_built_queries_match_the_oracle_in_a_huge_universe():
    # Biases never rise along the intent, so every gap is >= 0 and the
    # oracle's scan stops within a few hundred separations.
    rng = random.Random(59)
    z = 10**9 + 7
    for trial in range(20):
        n = rng.randint(2, 9)
        keys = [f"e{i}" for i in range(1, n + 1)]
        rng.shuffle(keys)
        intent = _random_intent(rng, keys, 0.3)
        values = sorted(
            (Fraction(rng.randint(-300, 300), rng.choice(_DENOMINATORS[:6]))
             for _ in keys),
            reverse=True,
        )
        bias = BiasFunction(dict(zip(intent.keys(), values)))
        query = build_delta_query(intent, bias, z)
        expected = delta_query_oracle(intent, bias, z)
        assert [tuple(c) for c in query.constraints] == expected, trial


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.permutations([f"e{i}" for i in range(1, n + 1)]),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            st.integers(max(n, 2), 4 * n),
        )
    )
)
def test_built_queries_are_the_forward_reduction_of_the_pairwise_query(case):
    keys, tied, tenths, z = case
    blocks: list[list[str]] = []
    for key, joins in zip(keys, tied):
        if blocks and joins:
            blocks[-1].append(key)
        else:
            blocks.append([key])
    intent = WeakOrder.of(*blocks)
    bias = BiasFunction({key: Fraction(t, 10) for key, t in zip(keys, tenths)})
    full = delta_query_oracle(intent, bias, z)
    kept = [tuple(c) for c in build_delta_query(intent, bias, z).constraints]
    universe = intent.keys()
    assert list(satisfying_orders_oracle(kept, universe)) == list(
        satisfying_orders_oracle(full, universe)
    )
    forward = [c for c in kept if intent.rank_of(c[0]) < intent.rank_of(c[1])]
    for subject, rival, gap in set(full) - set(kept):
        assert longest_paths_oracle(forward, subject)[rival] >= gap
    assert forward_reduction_oracle(kept, intent) == kept
    complements = [c for c in full if intent.rank_of(c[0]) > intent.rank_of(c[1])]
    assert set(complements) <= set(kept)


class _Started(Exception):
    """Stops a search once its first relaxation has set the windows."""


@pytest.fixture()
def start_windows(monkeypatch):
    """The windows a query's search starts from, keyed like the oracle's."""
    settle, first = influence._settle, []

    def settle_once(after, before, lo, hi, rising, falling):
        moved = settle(after, before, lo, hi, rising, falling)
        first.append(None if moved is None else list(zip(lo, hi)))
        raise _Started

    monkeypatch.setattr(influence, "_settle", settle_once)

    def windows(query):
        first.clear()
        with pytest.raises(_Started):
            next(influence._iter_satisfying(query, [0]))
        keys = sorted(query.universe, key=influence._key_order_token)
        return None if first[0] is None else dict(zip(keys, first[0]))

    return windows


def test_position_windows_match_the_bellman_ford_oracle(start_windows):
    rng = random.Random(61)
    outcomes = {"feasible": 0, "infeasible": 0}
    for trial in range(1500):
        n = rng.randint(1, 8)
        universe = [f"e{i}" for i in range(1, n + 1)]
        pairs = [(a, b) for a in universe for b in universe if a != b]
        rng.shuffle(pairs)
        picked = pairs[: rng.randint(0, min(len(pairs), 2 * n))]
        query = _query(
            [(a, b, rng.randint(-3, 3)) for a, b in picked], universe
        )
        windows = start_windows(query)
        assert windows == position_windows_oracle(query.constraints, universe), trial
        outcomes["feasible" if windows else "infeasible"] += 1
    assert min(outcomes.values()) > 100


def test_position_windows_of_built_queries_match_the_oracle(start_windows):
    rng = random.Random(67)
    for trial in range(300):
        n = rng.randint(2, 9)
        keys = [f"e{i}" for i in range(1, n + 1)]
        rng.shuffle(keys)
        intent = _random_intent(rng, keys, 0.25)
        query = build_delta_query(intent, _random_bias(rng, keys), n)
        expected = position_windows_oracle(query.constraints, query.universe)
        assert start_windows(query) == expected, trial


@pytest.mark.parametrize(
    "constraints, universe",
    [
        ([("e1", "e2", 1), ("e2", "e1", 0)], ["e1", "e2"]),  # positive cycle
        ([("e1", "e2", 2), ("e2", "e3", 2)], ["e1", "e2", "e3"]),  # too wide
        ([("e1", "e2", -1), ("e2", "e1", -1), ("e3", "e1", 3)], ["e1", "e2", "e3"]),
    ],
)
def test_infeasible_windows_are_none(constraints, universe):
    query = _query(constraints, universe)
    summary = classify_ranking_set(query)
    assert (summary.kind, summary.nodes) == (RankingSetKind.EMPTY, 0)
    assert position_windows_oracle(query.constraints, universe) is None


# --------------------------------------------------------------------------- #
# Ranking-set classification and the base ranking
# --------------------------------------------------------------------------- #


def _query(constraints, universe):
    return DeltaQuery(
        tuple(RelativeRankConstraint(*c) for c in constraints), tuple(universe)
    )


def test_two_independent_pairs_leave_six_orders():
    query = _query(
        [("e1", "e2", 1), ("e3", "e4", 1)], ["e1", "e2", "e3", "e4"]
    )
    summary = classify_ranking_set(query)
    assert summary.kind is RankingSetKind.MULTIPLE
    assert summary.count == 6
    assert summary.lower_bound == 6
    assert base_query(query) == WeakOrder.total(["e1", "e2", "e3", "e4"])


def test_a_chain_of_unit_gaps_is_singleton():
    query = _query(
        [("e1", "e2", 1), ("e2", "e3", 1), ("e3", "e4", 1)],
        ["e1", "e2", "e3", "e4"],
    )
    summary = classify_ranking_set(query)
    assert summary.kind is RankingSetKind.SINGLETON
    assert base_query(query) == WeakOrder.total(["e1", "e2", "e3", "e4"])


@pytest.mark.parametrize("size", [1200, 3000])
def test_long_chains_are_singletons_without_recursion(size):
    # Far past Python's recursion limit: the search keeps its own stack.
    keys = [f"e{i}" for i in range(1, size + 1)]
    query = _query([(a, b, 1) for a, b in zip(keys, keys[1:])], keys)
    summary = classify_ranking_set(query)
    assert (summary.kind, summary.nodes) == (RankingSetKind.SINGLETON, size)
    assert base_query(query) == WeakOrder.total(keys)


def test_pinned_chain_search_holds_linear_memory():
    # Each depth's last candidate takes its parent's windows, so a chain
    # never copies them: 1,200 keys stay far below the O(n²) of copying.
    keys = [f"e{i}" for i in range(1, 1201)]
    query = _query([(a, b, 1) for a, b in zip(keys, keys[1:])], keys)
    tracemalloc.start()
    try:
        summary = classify_ranking_set(query)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.kind is RankingSetKind.SINGLETON
    assert peak < 5 * 2**20


def _chain(keys):
    return [(a, b, 1) for a, b in zip(keys, keys[1:])]


_SIX = [f"e{i}" for i in range(1, 7)]

#: Queries whose windows come to pin every key: a unit-gap chain at the
#: root; a free pair ahead of a chain once the pair's first key is
#: placed; and a chain longer than the budget its test sets.
_PINNED = {
    "at-the-root": (_chain(_SIX), _SIX),
    "after-the-first-placement": (
        [("e1", "e3", 1), ("e2", "e3", 1), *_chain(_SIX[2:])],
        _SIX,
    ),
    "past-the-budget": (_chain(_SIX + ["e7"]), _SIX + ["e7"]),
}


@pytest.mark.parametrize("name", _PINNED)
def test_pinned_windows_are_a_leaf_charged_a_node_per_position(name):
    constraints, universe = _PINNED[name]
    orders = list(satisfying_orders_backtrack_oracle(constraints, universe))
    query = _query(constraints, universe)
    first = influence._search(query, 1)
    assert (first.base, first.nodes) == (WeakOrder.total(orders[0]), len(universe))
    summary = classify_ranking_set(query)
    assert summary.base == first.base
    # No dead branch: each order costs one node per position.
    assert (summary.count, summary.nodes) == (
        len(orders), len(orders) * len(universe)
    )


def test_a_pinned_chain_past_the_budget_stops_at_the_budget(monkeypatch):
    constraints, universe = _PINNED["past-the-budget"]
    query = _query(constraints, universe)
    monkeypatch.setattr(influence, "_SEARCH_NODE_BUDGET", 6)
    summary = classify_ranking_set(query)
    assert (summary.kind, summary.reason, summary.nodes, summary.base) == (
        RankingSetKind.UNKNOWN, "node_budget", 6, None
    )
    with pytest.raises(SearchBudgetError, match="node budget of 6"):
        base_query(query)
    monkeypatch.setattr(influence, "_SEARCH_NODE_BUDGET", 7)
    summary = classify_ranking_set(query)
    assert (summary.kind, summary.count, summary.nodes) == (
        RankingSetKind.SINGLETON, 1, 7
    )
    # The pair ahead of the chain: the first order fits 11 nodes, the second not.
    monkeypatch.setattr(influence, "_SEARCH_NODE_BUDGET", 11)
    summary = classify_ranking_set(_query(*_PINNED["after-the-first-placement"]))
    assert (summary.kind, summary.lower_bound, summary.reason, summary.nodes) == (
        RankingSetKind.UNKNOWN, 1, "node_budget", 11
    )


def test_a_gap_wider_than_the_universe_is_empty():
    query = _query([("e1", "e2", 4)], ["e1", "e2", "e3", "e4"])
    summary = classify_ranking_set(query)
    assert summary.kind is RankingSetKind.EMPTY
    assert summary.count == 0
    with pytest.raises(InfeasibleQueryError):
        base_query(query)


def test_base_ranking_is_lexicographically_smallest_by_key_index():
    query = _query(
        [("e2", "e1", 1), ("e4", "e3", 1)], ["e1", "e2", "e3", "e4"]
    )
    # e2 must precede e1 and e4 precede e3; among the six satisfying
    # orders the smallest by key index starts with e2 (e1 cannot lead).
    assert base_query(query) == WeakOrder.total(["e2", "e1", "e4", "e3"])


def test_large_universe_counts_become_lower_bounds():
    universe = [f"e{i}" for i in range(1, 14)]
    summary = classify_ranking_set(_query([], universe))
    assert summary.kind is RankingSetKind.MULTIPLE
    assert summary.count is None
    assert summary.lower_bound >= 2


def test_probe_budget_exhaustion_reports_unknown(monkeypatch):
    monkeypatch.setattr(influence, "_SEARCH_NODE_BUDGET", 3)
    universe = [f"e{i}" for i in range(1, 30)]
    summary = classify_ranking_set(_query([], universe))
    assert summary.kind is RankingSetKind.UNKNOWN
    assert summary.count is None
    assert summary.reason == "node_budget"
    assert summary.nodes == 3
    assert summary.lower_bound == 0


def test_base_query_budget_exhaustion_raises_instead_of_settling(monkeypatch):
    query = _query([], [f"e{i}" for i in range(1, 30)])
    monkeypatch.setattr(influence, "_SEARCH_NODE_BUDGET", 28)
    with pytest.raises(SearchBudgetError, match="node budget of 28"):
        base_query(query)
    monkeypatch.setattr(influence, "_SEARCH_NODE_BUDGET", 29)
    assert base_query(query) == WeakOrder.total(query.universe)


def test_exact_counts_saturate_at_the_count_cap():
    universe = [f"e{i}" for i in range(1, 9)]
    summary = classify_ranking_set(_query([], universe))
    assert summary == RankingSetSummary(
        RankingSetKind.MULTIPLE,
        None,
        influence._COUNT_CAP,
        "count_cap",
        summary.nodes,
        WeakOrder.total(universe),
    )
    assert summary.nodes <= influence._SEARCH_NODE_BUDGET
    free = classify_ranking_set(_query([], ["e1", "e2", "e3", "e4", "e5", "e6"]))
    assert (free.count, free.reason) == (720, None)
    # The largest universe still counted exactly: 13 keys get the probe.
    twelve = classify_ranking_set(_query([], [f"e{i}" for i in range(1, 13)]))
    assert (twelve.lower_bound, twelve.reason) == (influence._COUNT_CAP, "count_cap")


def test_probe_stops_at_the_second_order():
    universe = [f"e{i}" for i in range(1, 14)]
    summary = classify_ranking_set(_query([], universe))
    assert summary == RankingSetSummary(
        RankingSetKind.MULTIPLE,
        None,
        2,
        "count_cap",
        summary.nodes,
        WeakOrder.total(universe),
    )
    chain = [(f"e{i}", f"e{i + 1}", 1) for i in range(1, 13)]
    pinned = classify_ranking_set(_query(chain, [f"e{i}" for i in range(1, 14)]))
    assert (pinned.kind, pinned.count, pinned.reason) == (
        RankingSetKind.SINGLETON, 1, None
    )
    assert pinned.nodes == 13


def test_sketch_lists_base_ranks_and_constraint_comments():
    query = _query([("e2", "e1", 1)], ["e1", "e2"])
    base = base_query(query)
    sketch = order_by_case_sketch(query, base)
    assert sketch == (
        "ORDER BY CASE key\n"
        "  WHEN 'e2' THEN 1\n"
        "  WHEN 'e1' THEN 2\n"
        "END\n"
        "-- requires r(e1) - r(e2) >= 1"
    )


def test_sketch_quotes_keys_and_keeps_each_comment_on_its_line():
    query = _query([("a'b", "c\nd", 1)], ["a'b", "c\nd"])
    sketch = order_by_case_sketch(query, base_query(query))
    assert sketch == (
        "ORDER BY CASE key\n"
        "  WHEN 'a''b' THEN 1\n"
        "  WHEN 'c\nd' THEN 2\n"
        "END\n"
        "-- requires r(c\\nd) - r(a'b) >= 1"
    )
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE t (key TEXT)")
    db.executemany("INSERT INTO t VALUES (?)", [("c\nd",), ("a'b",)])
    assert db.execute(f"SELECT key FROM t {sketch}").fetchall() == [("a'b",), ("c\nd",)]
    db.close()


# --------------------------------------------------------------------------- #
# The propagating search against the oracles
# --------------------------------------------------------------------------- #


def _random_constraints(rng, universe, gaps=(-3, 4)):
    pairs = [(a, b) for a in universe for b in universe if a != b]
    rng.shuffle(pairs)
    picked = pairs[: rng.randint(0, min(len(pairs), 2 * len(universe)))]
    return [(a, b, rng.randint(*gaps)) for a, b in picked]


def _conflict_query(rng, size):
    """A δ-query shaped like the influence benchmark's: a shuffled total
    intent, biases in tenths on [0, 3], z in [n, 3n]."""
    keys = [f"e{i}" for i in range(1, size + 1)]
    rng.shuffle(keys)
    bias = BiasFunction({key: Fraction(rng.randint(0, 30), 10) for key in keys})
    return build_delta_query(WeakOrder.total(keys), bias, rng.randint(size, 3 * size))


def test_search_matches_the_permutation_oracle_up_to_eight_keys():
    rng = random.Random(71)
    cap = influence._COUNT_CAP
    outcomes = {"none": 0, "one": 0, "many": 0, "capped": 0}
    for trial in range(400):
        universe = [f"e{i}" for i in range(1, rng.randint(1, 8) + 1)]
        constraints = _random_constraints(rng, universe)
        expected = list(satisfying_orders_oracle(constraints, universe))
        query = _query(constraints, universe)
        found = itertools.islice(influence._iter_satisfying(query, [0]), cap)
        assert list(found) == expected[:cap], trial
        summary = classify_ranking_set(query)
        if len(expected) >= cap:
            assert (summary.lower_bound, summary.reason) == (cap, "count_cap"), trial
        else:
            assert (summary.count, summary.reason) == (len(expected), None), trial
        assert summary.nodes <= influence._SEARCH_NODE_BUDGET
        size = min(len(expected), 2) + (len(expected) >= cap)
        outcomes[("none", "one", "many", "capped")[size]] += 1
    assert min(outcomes.values()) >= 10


def test_base_matches_the_backtracking_oracle_up_to_ten_keys():
    rng = random.Random(79)
    for trial in range(400):
        universe = [f"e{i}" for i in range(1, rng.randint(2, 10) + 1)]
        rng.shuffle(universe)
        constraints = _random_constraints(rng, universe, gaps=(-4, 3))
        expected = next(satisfying_orders_backtrack_oracle(constraints, universe), None)
        query = _query(constraints, universe)
        if expected is None:
            with pytest.raises(InfeasibleQueryError):
                base_query(query)
        else:
            assert base_query(query) == WeakOrder.total(expected), trial


def test_base_matches_the_backtracking_oracle_on_built_queries():
    rng = random.Random(83)
    for trial in range(60):
        query = _conflict_query(rng, rng.randint(8, 24))
        constraints = [tuple(c) for c in query.constraints]
        expected = next(satisfying_orders_backtrack_oracle(constraints, query.universe))
        assert base_query(query) == WeakOrder.total(expected), trial


def _probe(query):
    """``classify_ranking_set`` with exact counting off: it stops at a second order."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(influence, "_ENUMERATION_LIMIT", 1)
        return classify_ranking_set(query)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(st.just(n), _drawn_constraints(n, -3, 4))
    )
)
def test_search_agrees_with_the_permutation_oracle(case):
    size, picked = case
    universe = [f"e{i}" for i in range(1, size + 1)]
    constraints = [(f"e{a}", f"e{b}", gap) for a, b, gap in picked]
    orders = list(satisfying_orders_oracle(constraints, universe))
    query = _query(constraints, universe)
    if orders:
        assert base_query(query) == WeakOrder.total(orders[0])
    else:
        with pytest.raises(InfeasibleQueryError):
            base_query(query)
    kind = (RankingSetKind.EMPTY, RankingSetKind.SINGLETON, RankingSetKind.MULTIPLE)[
        min(len(orders), 2)
    ]
    capped = len(orders) >= influence._COUNT_CAP
    summary = classify_ranking_set(query)
    assert summary.kind is kind
    assert summary.count == (None if capped else len(orders))
    assert summary.lower_bound == min(len(orders), influence._COUNT_CAP)
    assert summary.reason == ("count_cap" if capped else None)
    probe = _probe(query)
    assert probe.kind is kind
    assert probe.lower_bound == min(len(orders), 2)


#: Constraint sets no total order meets: a positive cycle, a gap wider
#: than the universe, and two keys whose windows both hold only position 1.
_INFEASIBLE = [
    ([("e1", "e2", 1), ("e2", "e1", 1)], 3),
    ([("e2", "e1", 5)], 5),
    ([("e1", "e3", 3), ("e2", "e4", 3)], 4),
]


def _summary_oracle_cases(rng):
    """Queries over at most seven keys, as (constraints, universe)."""
    biases = [0, 1, 3, "1/3", "5/2", "9/10", "27/10", "13/10"]
    for trial in range(150):
        size = rng.randint(1, 7)
        keys = [f"e{i}" for i in range(1, size + 1)]
        if trial % 5 == 4:
            yield _random_constraints(rng, keys), keys
            continue
        rng.shuffle(keys)
        blocks: list[list[str]] = []
        for key in keys:
            if blocks and rng.random() < 0.35:
                blocks[-1].append(key)
            else:
                blocks.append([key])
        bias = BiasFunction({key: rng.choice(biases) for key in keys})
        z = rng.randint(size, 3 * size)
        query = build_delta_query(WeakOrder.of(*blocks), bias, z)
        yield [tuple(c) for c in query.constraints], query.universe
    for constraints, size in _INFEASIBLE:
        yield constraints, [f"e{i}" for i in range(1, size + 1)]
    yield from _PINNED.values()


def test_summary_base_is_the_least_order_under_every_budget(monkeypatch):
    seen = {"empty": 0, "found": 0, "budget": 0}
    for constraints, universe in _summary_oracle_cases(random.Random(89)):
        orders = satisfying_orders_oracle(constraints, universe)
        least = next(orders, None)
        expected = None if least is None else WeakOrder.total(least)
        query = _query(constraints, universe)
        summary = classify_ranking_set(query)
        assert summary.base == expected, constraints
        if expected is None:
            seen["empty"] += 1
            with pytest.raises(InfeasibleQueryError):
                base_query(query)
        else:
            seen["found"] += 1
            assert base_query(query) == expected
        # Past the probe's node count (all of it for an empty set) the
        # first order is found or the search is over: no budget differs.
        probe = _probe(query)
        for budget in range(1, probe.nodes + 2):
            monkeypatch.setattr(influence, "_SEARCH_NODE_BUDGET", budget)
            bounded = classify_ranking_set(query)
            assert bounded.base in (None, expected)
            try:
                assert base_query(query) == bounded.base == expected
            except SearchBudgetError:
                seen["budget"] += 1
                assert bounded.base is None and bounded.reason == "node_budget"
            except InfeasibleQueryError:
                assert expected is None and bounded.reason is None
        monkeypatch.undo()
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("size, seed, nodes", [(48, 48, 120), (64, 64, 160)])
def test_large_conflict_intents_stay_within_a_small_node_count(
    monkeypatch, size, seed, nodes
):
    query = _conflict_query(random.Random(seed), size)
    monkeypatch.setattr(influence, "_SEARCH_NODE_BUDGET", nodes)
    base = base_query(query)
    assert query.satisfied_by(base)
    summary = classify_ranking_set(query)
    assert summary.kind is RankingSetKind.MULTIPLE
    assert summary.nodes <= nodes


def test_empty_intents_are_rejected():
    with pytest.raises(ConfigurationError):
        build_delta_query(WeakOrder.total([]), BiasFunction({}), 4)
