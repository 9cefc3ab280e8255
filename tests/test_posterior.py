"""Posterior region means, best responses, block utilities, interpretation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coiquery import (
    BiasFunction,
    DomainError,
    RegionSide,
    UtilityContext,
    UtilityKind,
    WeakOrder,
    best_response_rank,
    block_expected_user_utility,
    gsd_values,
    interpret_query,
    region_means,
)
from oracles import brute_best_rank, brute_block_utility, region_means_oracle

FAVORED = RegionSide.FAVORED
COMPLEMENT = RegionSide.COMPLEMENT


# --------------------------------------------------------------------------- #
# Region means
# --------------------------------------------------------------------------- #


def test_region_means_small_universe_values():
    favored = region_means(4, 1, FAVORED)
    assert favored.mean_subject_rank == Fraction(5, 3)
    assert favored.mean_rival_rank == Fraction(10, 3)
    assert favored.support_count == 6

    complement = region_means(4, 1, COMPLEMENT)
    assert complement.mean_subject_rank == 3
    assert complement.mean_rival_rank == 2
    assert complement.support_count == 10


def test_region_means_wider_separation():
    favored = region_means(4, 2, FAVORED)
    assert favored.mean_subject_rank == Fraction(4, 3)
    assert favored.mean_rival_rank == Fraction(11, 3)
    assert favored.support_count == 3


def test_favored_support_is_triangular_number():
    for z in (3, 7, 11):
        for separation in range(1, z):
            side = region_means(z, separation, FAVORED)
            width = z - separation
            assert side.support_count == width * (width + 1) // 2


def test_the_two_regions_partition_all_rank_pairs():
    for z in (2, 5, 9):
        for separation in range(1, z):
            favored = region_means(z, separation, FAVORED)
            complement = region_means(z, separation, COMPLEMENT)
            assert favored.support_count + complement.support_count == z * z


def test_complement_mean_gap_equals_shift_threshold():
    for z in (4, 7, 10):
        for separation in range(1, z):
            complement = region_means(z, separation, COMPLEMENT)
            thresholds = gsd_values(z, separation)
            gap = complement.mean_subject_rank - complement.mean_rival_rank
            assert gap == thresholds.shift


def test_closed_form_matches_enumeration_for_small_universes():
    for z in range(2, 13):
        for separation in range(1, z):
            for side in (FAVORED, COMPLEMENT):
                assert region_means(z, separation, side) == region_means_oracle(
                    z, separation, side
                )


def test_out_of_range_separation_rejected():
    with pytest.raises(DomainError):
        region_means(4, 0, FAVORED)
    with pytest.raises(DomainError):
        region_means(4, 4, FAVORED)


# --------------------------------------------------------------------------- #
# Best responses
# --------------------------------------------------------------------------- #


def test_best_response_shifts_by_bias_then_projects():
    assert best_response_rank("19/4", 2, 10) == 3
    assert best_response_rank("3/2", 0, 10) == 1
    assert best_response_rank(1, 3, 4) == 1


def test_projected_best_response_matches_full_scan():
    rng = random.Random(23)
    for _ in range(300):
        z = rng.randint(2, 20)
        mean = Fraction(rng.randint(2, 2 * z), 2)
        bias = Fraction(rng.randint(-40, 40), 10)
        assert best_response_rank(mean, bias, z) == brute_best_rank(mean, bias, z)


# --------------------------------------------------------------------------- #
# Block expected utility
# --------------------------------------------------------------------------- #


def _ctx(**kwargs):
    defaults = dict(
        universe_size=4, top_k=4, bias=BiasFunction({}), omitted_rank=5
    )
    defaults.update(kwargs)
    return UtilityContext(**defaults)


def test_block_utility_examples():
    ctx = _ctx()
    assert block_expected_user_utility(3, 3, 0, ctx) == 0
    assert block_expected_user_utility(2, 3, 0, ctx) == Fraction(-1, 2)
    assert block_expected_user_utility(1, 4, 2, ctx) == Fraction(-7, 2)


def test_block_utility_rejects_bad_span():
    with pytest.raises(DomainError):
        block_expected_user_utility(3, 2, 0, _ctx())


def test_block_utility_matches_longhand_average():
    rng = random.Random(31)
    for _ in range(200):
        z = rng.randint(2, 12)
        top_k = rng.randint(1, z)
        ctx = _ctx(universe_size=z, top_k=top_k, omitted_rank=z + 1)
        start = rng.randint(1, z)
        end = rng.randint(start, z)
        bias = Fraction(rng.randint(-30, 30), 10)
        assert block_expected_user_utility(
            start, end, bias, ctx
        ) == brute_block_utility(start, end, bias, ctx)


# --------------------------------------------------------------------------- #
# Interpreting a returned answer
# --------------------------------------------------------------------------- #


def _sales_ctx():
    return UtilityContext(
        4,
        3,
        BiasFunction({}, default=Fraction(19, 10)),
        omitted_rank=5,
        kind_user=UtilityKind.PRODUCT_USER,
        kind_source=UtilityKind.PRODUCT_SOURCE_BIASED,
    )


def test_product_source_returns_only_the_sub_threshold_top_of_a_total_order():
    query = WeakOrder.total(["e3", "e2", "e1", "e4"])
    assert interpret_query(query, _sales_ctx()) == WeakOrder.of(["e3"])


def test_tying_the_top_two_drops_both_posteriors_below_the_threshold():
    query = WeakOrder.of(["e3", "e2"], ["e1"], ["e4"])
    assert interpret_query(query, _sales_ctx()) == WeakOrder.of(["e3", "e2"])


def test_tying_everything_pushes_every_posterior_past_the_threshold():
    query = WeakOrder.of(["e3", "e2", "e1", "e4"])
    assert interpret_query(query, _sales_ctx()) == WeakOrder.of()


def test_quadratic_interpretation_groups_by_assigned_rank():
    ctx = _ctx(bias=BiasFunction({}, default=Fraction(1)), top_k=3)
    query = WeakOrder.of(["a", "b"], ["c"], ["d"])
    assert interpret_query(query, ctx) == WeakOrder.of(["a", "b"], ["c"], ["d"])


def test_interpretation_never_invents_keys():
    rng = random.Random(47)
    keys = [f"e{i}" for i in range(1, 7)]
    for trial in range(40):
        shuffled = keys[:]
        rng.shuffle(shuffled)
        blocks = []
        start = 0
        while start < len(shuffled):
            width = rng.randint(1, len(shuffled) - start)
            blocks.append(shuffled[start : start + width])
            start += width
        query = WeakOrder.of(*blocks)
        bias = BiasFunction({}, default=Fraction(rng.randint(0, 30), 10))
        ctx = UtilityContext(6, rng.randint(1, 6), bias)
        result = interpret_query(query, ctx)
        assert result.key_set <= query.key_set
