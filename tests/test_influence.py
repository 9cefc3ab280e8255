"""Separation thresholds, difference-constraint queries, ranking-set analysis."""

from __future__ import annotations

import itertools
import logging
import random
from fractions import Fraction

import pytest

import coiquery.influence as influence
from coiquery import (
    BiasFunction,
    ConfigurationError,
    DeltaQuery,
    InfeasibleQueryError,
    RankingSetKind,
    RelativeRankConstraint,
    WeakOrder,
    base_query,
    build_delta_query,
    classify_ranking_set,
    complement_constraint,
    delta_star,
    delta_star_for_gap,
    delta_star_solutions,
    gsd_values,
    order_by_case_sketch,
)


# --------------------------------------------------------------------------- #
# Constraints and complements
# --------------------------------------------------------------------------- #


def test_complement_flips_subject_and_negates_the_gap():
    constraint = RelativeRankConstraint("e", "ep", 2)
    assert complement_constraint(constraint) == RelativeRankConstraint(
        "ep", "e", -1
    )
    assert complement_constraint(complement_constraint(constraint)) == constraint


def test_exactly_one_of_constraint_and_complement_holds():
    keys = ["a", "b", "c", "d", "e"]
    constraint = RelativeRankConstraint("a", "b", 2)
    flipped = complement_constraint(constraint)
    for ranks in itertools.permutations(range(1, 6)):
        order = WeakOrder.total(
            [key for _, key in sorted(zip(ranks, keys))]
        )
        query = DeltaQuery((constraint,), tuple(keys))
        other = DeltaQuery((flipped,), tuple(keys))
        assert query.satisfied_by(order) != other.satisfied_by(order)


def test_query_json_round_trip():
    query = DeltaQuery(
        (RelativeRankConstraint("a", "b", 1), RelativeRankConstraint("b", "c", -2)),
        ("a", "b", "c"),
    )
    payload = query.as_jsonable()
    assert payload == {
        "constraints": [
            {"e": "a", "eprime": "b", "delta": 1},
            {"e": "b", "eprime": "c", "delta": -2},
        ]
    }
    again = DeltaQuery.from_jsonable(payload, ("a", "b", "c"))
    assert again.constraints == query.constraints
    assert again.universe == query.universe


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


def test_bias_gap_is_subject_minus_rival():
    bias = BiasFunction({"s": Fraction(1)})
    assert delta_star("s", "r", bias, 4) == 2
    # swapped roles give gap -1, below every window
    assert delta_star("r", "s", bias, 4) is None
    shallow = BiasFunction({"s": Fraction(1, 4)})
    assert delta_star("r", "s", shallow, 4) == 1  # gap -1/4 is in the first window


def test_all_solutions_listed_ascending_and_smallest_returned():
    bias = BiasFunction({"s": Fraction(1)})
    solutions = delta_star_solutions("s", "r", bias, 4)
    assert solutions == (2, 3)
    assert delta_star("s", "r", bias, 4) == solutions[0]


def test_returned_separation_satisfies_its_window():
    rng = random.Random(3)
    for _ in range(200):
        z = rng.randint(2, 64)
        gap = Fraction(rng.randint(-40, 40), 10)
        result = delta_star_for_gap(gap, z)
        linear = delta_star_for_gap(gap, z, strategy="linear")
        assert result == linear
        if result is None:
            for separation in range(1, z):
                window = gsd_values(z, separation)
                assert not (window.gap - 1 < gap <= window.gap)
        else:
            window = gsd_values(z, result)
            assert window.gap - 1 < gap <= window.gap


def test_multiplicity_is_surfaced_as_a_warning(caplog):
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


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigurationError):
        delta_star_for_gap(1, 10, strategy="??")


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
    monkeypatch.setattr(influence, "_PROBE_NODE_BUDGET", 3)
    universe = [f"e{i}" for i in range(1, 30)]
    summary = classify_ranking_set(_query([], universe))
    assert summary.kind is RankingSetKind.UNKNOWN
    assert summary.count is None


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
