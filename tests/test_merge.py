"""Merge queries, super-rank checks, interval scores, the interval DP."""

from __future__ import annotations

import math
import random
from array import array
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coiquery.merge as merge
from coiquery import (
    BiasFunction,
    DomainError,
    UtilityContext,
    UtilityKind,
    WeakOrder,
    block_expected_user_utility,
    brute_force_merge_opt,
    count_super_ranks,
    interval_score,
    is_super_rank,
    maximize_merge_dp,
)
from coiquery.merge import _score12_table
from oracles import brute_block_utility, iter_coarsenings, iter_weak_orders


# --------------------------------------------------------------------------- #
# The super-rank relation
# --------------------------------------------------------------------------- #


def test_collapsing_everything_into_one_set_is_a_super_rank():
    base = WeakOrder.of(["e1", "e3"], ["e4"], ["e2"])
    candidate = WeakOrder.of(["e1", "e3", "e4", "e2"])
    assert is_super_rank(candidate, base)


def test_appending_below_all_originals_is_a_super_rank():
    base = WeakOrder.of(["e1", "e3"], ["e4"], ["e2"])
    candidate = WeakOrder.of(["e1", "e3"], ["e4"], ["e2"], ["e5"])
    assert is_super_rank(candidate, base)


def test_every_ranking_is_a_super_rank_of_itself():
    order = WeakOrder.of(["a", "b"], ["c"])
    assert is_super_rank(order, order)


def test_violations_name_what_went_wrong():
    base = WeakOrder.of(["a", "b"], ["c"], ["d"])
    dropped = is_super_rank(WeakOrder.of(["a", "b"], ["c"]), base)
    assert not dropped and "drops" in dropped.violation
    broken_tie = is_super_rank(WeakOrder.total(["a", "b", "c", "d"]), base)
    assert not broken_tie and "tie" in broken_tie.violation
    reversed_pair = is_super_rank(WeakOrder.of(["d"], ["a", "b"], ["c"]), base)
    assert not reversed_pair and "reversed" in reversed_pair.violation
    inserted = is_super_rank(WeakOrder.of(["a", "b"], ["x"], ["c"], ["d"]), base)
    assert not inserted and "below" in inserted.violation


def test_merges_are_always_super_ranks():
    rng = random.Random(19)
    for _ in range(50):
        size = rng.randint(1, 8)
        base = WeakOrder.total([f"e{i}" for i in range(1, size + 1)])
        start = rng.randint(1, size)
        end = rng.randint(start, size)
        blocks = base.blocks
        tied = sum(blocks[start - 1 : end], ())
        merged = WeakOrder(blocks[: start - 1] + (tied,) + blocks[end:])
        assert is_super_rank(merged, base)


# --------------------------------------------------------------------------- #
# Counting super-ranks
# --------------------------------------------------------------------------- #


def test_counts_factor_into_coarsenings_times_weak_orders():
    assert count_super_ranks(3, 0) == 4
    assert count_super_ranks(1, 3) == 13
    assert count_super_ranks(2, 2) == 6
    assert [count_super_ranks(1, r) for r in range(6)] == [1, 1, 3, 13, 75, 541]


def test_count_matches_filtering_all_weak_orders():
    base_keys = ("b1", "b2", "b3")
    appended = ("x1", "x2")
    base = WeakOrder.total(base_keys)
    matches = sum(
        1
        for blocks in iter_weak_orders(base_keys + appended)
        if is_super_rank(WeakOrder.of(*blocks), base)
    )
    assert matches == count_super_ranks(3, 2) == 12


def test_count_bounds_enforced():
    with pytest.raises(DomainError):
        count_super_ranks(0, 0)
    with pytest.raises(DomainError):
        count_super_ranks(1, -1)
    assert count_super_ranks(4096, 0) == 2**4095
    with pytest.raises(DomainError):
        count_super_ranks(4097, 0)
    assert count_super_ranks(1, 300) > count_super_ranks(1, 299)
    with pytest.raises(DomainError):
        count_super_ranks(1, 301)


# --------------------------------------------------------------------------- #
# Interval scores
# --------------------------------------------------------------------------- #


def _quad_ctx(entries, z=4, top_k=None, default=0):
    return UtilityContext(
        z,
        top_k or z,
        BiasFunction({k: Fraction(v) for k, v in entries.items()},
                     default=Fraction(default)),
    )


def test_singleton_interval_with_no_bias_scores_zero():
    base = WeakOrder.total(["a", "b", "c", "d"])
    assert interval_score(3, 3, _quad_ctx({}), base) == 0
    with pytest.raises(DomainError, match="interval 0..1 outside 1..4"):
        interval_score(0, 1, _quad_ctx({}), base)


def test_two_tuple_interval_doubles_the_block_utility():
    base = WeakOrder.total(["a", "b", "c", "d"])
    assert interval_score(2, 3, _quad_ctx({}), base) == -1


def test_heterogeneous_interval_is_the_per_tuple_sum():
    base = WeakOrder.total(["a", "b", "c", "d"])
    ctx = _quad_ctx({"b": "1/2", "c": 2})
    expected = block_expected_user_utility(
        2, 3, Fraction(1, 2), ctx
    ) + block_expected_user_utility(2, 3, Fraction(2), ctx)
    assert interval_score(2, 3, ctx, base) == expected


def test_interval_scores_respect_existing_tie_blocks():
    base = WeakOrder.of(["a", "b"], ["c"])
    ctx = _quad_ctx({}, z=3)
    # merging blocks 1..2 spans original positions 1..3
    expected = 3 * block_expected_user_utility(1, 3, 0, ctx)
    assert interval_score(1, 2, ctx, base) == expected


def test_interval_score_matches_longhand_average():
    rng = random.Random(29)
    for _ in range(60):
        size = rng.randint(1, 8)
        keys = [f"e{i}" for i in range(1, size + 1)]
        base = WeakOrder.total(keys)
        ctx = _quad_ctx(
            {k: Fraction(rng.randint(-20, 20), 10) for k in keys}, z=size
        )
        start = rng.randint(1, size)
        end = rng.randint(start, size)
        expected = sum(
            brute_block_utility(start, end, ctx.bias(key), ctx)
            for key in keys[start - 1 : end]
        )
        assert interval_score(start, end, ctx, base) == expected


# --------------------------------------------------------------------------- #
# The sales-assistant instance
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


SALES_BASE = ("e3", "e2", "e1", "e4")

SALES_SCORES = {
    (1, 1): -1,
    (2, 2): -10,
    (3, 3): -15,
    (4, 4): -20,
    (1, 2): -3,
    (2, 3): -25,
    (3, 4): -35,
    (1, 3): -30,
    (2, 4): -45,
    (1, 4): -50,
}


def test_sales_interval_scores_frozen():
    base = WeakOrder.total(SALES_BASE)
    ctx = _sales_ctx()
    for (start, end), value in SALES_SCORES.items():
        assert interval_score(start, end, ctx, base) == value


def test_sales_dp_merges_the_top_two():
    intent = WeakOrder.total(SALES_BASE)
    result = maximize_merge_dp(intent, _sales_ctx(), base=intent)
    assert result.opt_value == -38
    assert result.partition.intervals == ((1, 2), (3, 3), (4, 4))
    assert result.partition.size == 4  # the block count the benchmark's trace reads
    assert result.ranking == WeakOrder.of(["e3", "e2"], ["e1"], ["e4"])


def test_sales_dp_through_the_query_pipeline():
    # equal biases make the derived base reproduce the intent exactly
    intent = WeakOrder.total(SALES_BASE)
    result = maximize_merge_dp(intent, _sales_ctx())
    assert result.opt_value == -38
    assert result.ranking == WeakOrder.of(["e3", "e2"], ["e1"], ["e4"])


def test_sales_brute_force_agrees_including_the_tie_rule():
    intent = WeakOrder.total(SALES_BASE)
    dp = maximize_merge_dp(intent, _sales_ctx(), base=intent)
    brute = brute_force_merge_opt(intent, _sales_ctx(), base=intent)
    assert brute.opt_value == dp.opt_value
    assert brute.partition.intervals == dp.partition.intervals


# --------------------------------------------------------------------------- #
# DP properties
# --------------------------------------------------------------------------- #


def test_zero_bias_keeps_every_singleton():
    intent = WeakOrder.total(["a", "b", "c", "d", "e"])
    result = maximize_merge_dp(intent, _quad_ctx({}, z=5), base=intent)
    assert result.opt_value == 0
    assert result.partition.intervals == tuple((i, i) for i in range(1, 6))
    assert result.ranking == intent


def test_dp_never_loses_to_the_identity_partition():
    rng = random.Random(37)
    for _ in range(40):
        size = rng.randint(1, 9)
        keys = [f"e{i}" for i in range(1, size + 1)]
        intent = WeakOrder.total(keys)
        ctx = _quad_ctx(
            {k: Fraction(rng.randint(-25, 25), 10) for k in keys}, z=size
        )
        result = maximize_merge_dp(intent, ctx, base=intent)
        identity = sum(
            interval_score(i, i, ctx, intent) for i in range(1, size + 1)
        )
        assert result.opt_value >= identity


_USER_KINDS = (UtilityKind.QUADRATIC_USER, UtilityKind.PRODUCT_USER)
_SOURCE_KINDS = (
    UtilityKind.QUADRATIC_SOURCE_BIASED,
    UtilityKind.PRODUCT_SOURCE_BIASED,
)


def _random_instance(rng, kind_user, kind_source, max_size):
    """A random base (each key ties with the one before it w.p. 0.3) and context.

    Bias denominators of 1 and 2 put span midpoints exactly on a bias,
    which reaches the indifferent branch of a product source.
    """
    size = rng.randint(1, max_size)
    keys = [f"e{i}" for i in range(1, size + 1)]
    blocks: list[list[str]] = []
    for key in keys:
        if blocks and rng.random() < 0.3:
            blocks[-1].append(key)
        else:
            blocks.append([key])
    denominator = rng.choice((1, 2, 10))
    bias = BiasFunction(
        {
            k: Fraction(rng.randint(-denominator, 2 * size * denominator), denominator)
            for k in keys
        }
    )
    z = rng.randint(size, size + 2)
    ctx = UtilityContext(
        z,
        rng.randint(1, z),
        bias,
        kind_user=kind_user,
        kind_source=kind_source,
    )
    return WeakOrder.of(*blocks), ctx


def test_dp_matches_brute_force_on_random_instances():
    rng = random.Random(43)
    for kind_user, kind_source, _ in product(_USER_KINDS, _SOURCE_KINDS, range(25)):
        base, ctx = _random_instance(rng, kind_user, kind_source, 8)
        dp = maximize_merge_dp(base, ctx, base=base)
        brute = brute_force_merge_opt(base, ctx, base=base)
        assert dp.opt_value == brute.opt_value
        assert dp.partition.intervals == brute.partition.intervals


def test_dp_handles_tied_base_blocks():
    base = WeakOrder.of(["a", "b"], ["c"], ["d"])
    ctx = _quad_ctx({"a": 2, "b": 2, "c": 2, "d": 2}, z=4)
    dp = maximize_merge_dp(base, ctx, base=base)
    brute = brute_force_merge_opt(base, ctx, base=base)
    assert dp.opt_value == brute.opt_value
    assert dp.partition.intervals == brute.partition.intervals


def _cell(table, start, end):
    """Cell (start, end) of the column-major upper triangle, as a score."""
    return Fraction(table[end * (end - 1) // 2 + start - 1], 12)


def _assert_cells_are_interval_scores(table, base, ctx):
    blocks = len(base.blocks)
    assert len(table) == blocks * (blocks + 1) // 2
    for start in range(1, blocks + 1):
        for end in range(start, blocks + 1):
            assert _cell(table, start, end) == interval_score(start, end, ctx, base)


def test_integer_table_reproduces_exact_interval_scores():
    rng = random.Random(53)
    for kind_user, kind_source, _ in product(_USER_KINDS, _SOURCE_KINDS, range(60)):
        base, ctx = _random_instance(rng, kind_user, kind_source, 10)
        _assert_cells_are_interval_scores(_score12_table(base, ctx), base, ctx)


@pytest.mark.parametrize(
    "omitted, storage", [(None, array), (10**12, list), (10**300, list)]
)
def test_table_storage_follows_the_cell_bound(omitted, storage):
    # Small top-k cutoffs send most responses to the omitted rank, so
    # with a huge omitted rank the largest cells far exceed 64 bits.
    rng = random.Random(61)
    largest = 0
    for kind_user, kind_source, _ in product(_USER_KINDS, _SOURCE_KINDS, range(15)):
        base, ctx = _random_instance(rng, kind_user, kind_source, 8)
        ctx = UtilityContext(
            ctx.universe_size,
            rng.randint(1, min(2, ctx.universe_size)),
            ctx.bias,
            omitted,
            kind_user=kind_user,
            kind_source=kind_source,
        )
        table = _score12_table(base, ctx)
        assert type(table) is storage
        largest = max(largest, *map(abs, table))
        _assert_cells_are_interval_scores(table, base, ctx)
    assert (largest >= 2**63) == (storage is list)


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.sampled_from(_USER_KINDS),
    st.sampled_from((None, 10**12)),
)
def test_product_source_cells_are_twelve_interval_scores(data, kind_user, omitted):
    # Denominators 1 and 2 put doubled biases on span midpoints; biases
    # run from -2 (answering z from the start) to m + 2 (never crossing),
    # and are drawn from a few levels so several keys cross at one s.
    size = data.draw(st.integers(1, 8))
    keys = data.draw(st.permutations([f"e{i}" for i in range(1, size + 1)]))
    ties = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    denominator = data.draw(st.sampled_from((1, 2, 10)))
    span = st.integers(-2 * denominator, (size + 2) * denominator)
    levels = data.draw(st.lists(span, min_size=1, max_size=size))
    numerators = data.draw(
        st.lists(st.sampled_from(levels), min_size=size, max_size=size)
    )
    z = data.draw(st.integers(size, size + 2))
    top_k = data.draw(st.sampled_from((1, z)) | st.integers(1, z))
    blocks: list[list[str]] = []
    for key, tied in zip(keys, ties):
        if blocks and tied:
            blocks[-1].append(key)
        else:
            blocks.append([key])
    bias = BiasFunction(
        {key: Fraction(n, denominator) for key, n in zip(keys, numerators)}
    )
    ctx = UtilityContext(
        z,
        top_k,
        bias,
        omitted,
        kind_user=kind_user,
        kind_source=UtilityKind.PRODUCT_SOURCE_BIASED,
    )
    base = WeakOrder.of(*blocks)
    table = _score12_table(base, ctx)
    assert type(table) is (array if omitted is None else list)
    _assert_cells_are_interval_scores(table, base, ctx)


@pytest.mark.parametrize("kind_user", _USER_KINDS)
@pytest.mark.parametrize("top_k", [1, 4])
@pytest.mark.parametrize("halves", range(-1, 10))
def test_product_source_keys_crossing_together_at_each_midpoint(
    kind_user, top_k, halves
):
    # Four keys share one bias, so all cross at the same s, from s = 2
    # (bias 1/2 and below answer z from the start) to s = 2m = 8 (bias
    # 4 defers only there; 9/2 never crosses).
    base = WeakOrder.total(["e2", "e4", "e1", "e3"])
    ctx = UtilityContext(
        4,
        top_k,
        BiasFunction({}, default=Fraction(halves, 2)),
        kind_user=kind_user,
        kind_source=UtilityKind.PRODUCT_SOURCE_BIASED,
    )
    _assert_cells_are_interval_scores(_score12_table(base, ctx), base, ctx)


def _one_key_table(omitted):
    """One key pushed past top-1: its only cell is ``-12 (omitted - 1)^2``."""
    base = WeakOrder.total(["e1"])
    ctx = UtilityContext(2, 1, BiasFunction({"e1": -1}), omitted)
    table = _score12_table(base, ctx)
    assert _cell(table, 1, 1) == interval_score(1, 1, ctx, base)
    assert table[0] == -12 * (omitted - 1) ** 2
    return table


def test_table_cells_on_either_side_of_64_bits():
    # The largest omitted rank the bound (m = 1) still stores in 64 bits.
    highest = math.isqrt((2**63 - 2) // 12) - 1
    assert 1 + 12 * (1 + highest) ** 2 < 2**63
    assert type(_one_key_table(highest)) is array
    # The cell itself sits just below 2^63, then just above it, where
    # an array cell would raise OverflowError.
    below = 1 + math.isqrt((2**63 - 1) // 12)
    assert 12 * (below - 1) ** 2 < 2**63 < 12 * below**2
    _one_key_table(below)
    assert type(_one_key_table(below + 1)) is list


def test_partition_scores_decompose_into_interval_scores():
    rng = random.Random(59)
    for _ in range(10):
        size = rng.randint(2, 8)
        keys = [f"e{i}" for i in range(1, size + 1)]
        base = WeakOrder.total(keys)
        ctx = _quad_ctx(
            {k: Fraction(rng.randint(-20, 20), 10) for k in keys}, z=size
        )
        for blocks in iter_coarsenings(keys):
            total = Fraction(0)
            position = 1
            for block in blocks:
                start, end = position, position + len(block) - 1
                total += sum(
                    brute_block_utility(start, end, ctx.bias(key), ctx)
                    for key in block
                )
                position = end + 1
            intervals = []
            cursor = 1
            for block in blocks:
                intervals.append((cursor, cursor + len(block) - 1))
                cursor += len(block)
            assert total == sum(
                interval_score(i, j, ctx, base) for i, j in intervals
            )


def test_brute_force_enumeration_limit(monkeypatch):
    keys = [f"e{i}" for i in range(1, 16)]
    intent = WeakOrder.total(keys)
    ctx = _quad_ctx({}, z=15)
    with pytest.raises(DomainError, match="15 blocks exceed the enumeration limit 14"):
        brute_force_merge_opt(intent, ctx, base=intent)
    fourteen = WeakOrder.total(keys[:14])
    assert brute_force_merge_opt(fourteen, ctx, base=fourteen).opt_value == 0
    monkeypatch.setattr(merge, "_BRUTE_LIMIT", 15)
    assert brute_force_merge_opt(intent, ctx, base=intent).opt_value == 0


def test_empty_base_rejected():
    ctx = _quad_ctx({}, z=2)
    with pytest.raises(DomainError):
        maximize_merge_dp(WeakOrder.of(), ctx, base=WeakOrder.of())
    with pytest.raises(DomainError, match="base ranking is empty"):
        brute_force_merge_opt(WeakOrder.of(), ctx, base=WeakOrder.of())
