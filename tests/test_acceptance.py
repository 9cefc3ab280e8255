"""Release gate: one end-to-end guarantee per test, spanning every module.

Each check either reproduces a closed form against a naive oracle, replays
a worked example exactly, or bounds the scaling of a hot path.  Keep these
independent of each other; a failure here blocks a release.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from oracles import (
    delta_star_oracle,
    has_intent_independent_response,
    iter_coarsenings,
    iter_weak_orders,
    region_means_oracle,
    trust_baseline_flags,
)

from coiquery import (
    BiasFunction,
    UtilityContext,
    WeakOrder,
    build_delta_query,
    detect_trustworthy,
    gsd_values,
    interpret_query,
    maximize_merge_dp,
)
from coiquery.bench import run_dp_suite, run_trust_suite
from coiquery.equilibrium import (
    EquilibriumClass,
    FiniteGame,
    commission_game,
    enumerate_pure_equilibria,
    influential_witness,
)
from coiquery.influence import delta_star_for_gap
from coiquery.merge import (
    brute_force_merge_opt,
    count_super_ranks,
    is_super_rank,
)
from coiquery.posterior import RegionSide, region_means
from coiquery.utility import SaturationOutcome, UtilityKind, saturation_check


def test_region_means_closed_forms_match_brute_enumeration():
    started = time.monotonic()
    for z in range(2, 31):
        for separation in range(1, z):
            for side in RegionSide:
                closed = region_means(z, separation, side)
                brute = region_means_oracle(z, separation, side)
                assert closed == brute, (z, separation, side)
    assert time.monotonic() - started < 10.0


def test_complement_mean_difference_equals_the_shift_threshold():
    for z in range(2, 31):
        for separation in range(1, z):
            summary = region_means(z, separation, RegionSide.COMPLEMENT)
            difference = summary.mean_subject_rank - summary.mean_rival_rank
            assert difference == gsd_values(z, separation).shift, (z, separation)


def test_unit_separation_gap_is_two_thirds_at_every_universe_size():
    for z in range(2, 201):
        assert gsd_values(z, 1).gap == Fraction(2, 3), z


def test_trust_filter_matches_the_instance_aware_baseline():
    rng = random.Random(23)
    for trial in range(200):
        z = rng.randint(2, 12)
        top_k = rng.randint(1, z)
        keys = [f"e{i}" for i in range(1, z + 1)]
        high = Fraction(rng.randint(1, 30), 10)
        bias = BiasFunction(
            {key: Fraction(rng.randint(0, int(high * 10)), 10) for key in keys},
            lower=Fraction(0),
            upper=high,
        )
        ctx = UtilityContext(z, top_k, bias)
        order = list(keys)
        rng.shuffle(order)
        beta = WeakOrder.total(order)
        report = detect_trustworthy(beta, ctx)
        expected = trust_baseline_flags(beta, ctx)
        assert set(report.flagged) == expected, trial
        assert set(report.trustworthy) == set(keys) - expected, trial


def test_separation_solver_strategies_agree_across_the_bias_sweep():
    for z in range(2, 129):
        for cents in range(-600, 601):
            gap = Fraction(cents, 100)
            solved = delta_star_for_gap(gap, z)
            scanned = delta_star_oracle(gap, z)
            assert solved == scanned, (z, gap)


def test_generated_queries_are_satisfied_by_their_own_intent():
    rng = random.Random(29)
    for trial in range(1000):
        size = rng.randint(2, 8)
        keys = [f"e{i}" for i in range(1, size + 1)]
        rng.shuffle(keys)
        blocks: list[list[str]] = []
        for key in keys:
            if blocks and rng.random() < 0.25:
                blocks[-1].append(key)
            else:
                blocks.append([key])
        intent = WeakOrder.of(*blocks)
        bias = BiasFunction(
            {key: Fraction(rng.randint(0, 30), 10) for key in keys}
        )
        query = build_delta_query(intent, bias, size)
        assert query.satisfied_by(intent), trial


def test_merge_dp_matches_brute_force_on_random_instances():
    rng = random.Random(17)
    single = time.monotonic()
    keys = [f"e{i}" for i in range(1, 13)]
    rng.shuffle(keys)
    bias = BiasFunction({k: Fraction(rng.randint(0, 20), 10) for k in keys})
    intent = WeakOrder.total(keys)
    brute_force_merge_opt(intent, UtilityContext(12, 6, bias), base=intent)
    assert time.monotonic() - single < 5.0

    for m in (4, 8, 12):
        for trial in range(100):
            keys = [f"e{i}" for i in range(1, m + 1)]
            rng.shuffle(keys)
            bias = BiasFunction(
                {k: Fraction(rng.randint(0, 20), 10) for k in keys}
            )
            ctx = UtilityContext(m, max(1, m // 2), bias)
            intent = WeakOrder.total(keys)
            fast = maximize_merge_dp(intent, ctx, base=intent)
            slow = brute_force_merge_opt(intent, ctx, base=intent)
            assert fast.opt_value == slow.opt_value, (m, trial)


def test_sales_walkthrough_reproduces_end_to_end():
    ctx = UtilityContext(
        4,
        3,
        BiasFunction({}, default=Fraction(19, 10)),
        omitted_rank=5,
        kind_user=UtilityKind.PRODUCT_USER,
        kind_source=UtilityKind.PRODUCT_SOURCE_BIASED,
    )
    intent = WeakOrder.total(["e3", "e2", "e1", "e4"])
    # A fully ordered query only returns the top item ...
    assert interpret_query(intent, ctx) == WeakOrder.of(["e3"])
    # ... tying the top two recovers both ...
    merged = WeakOrder.of(["e3", "e2"], ["e1"], ["e4"])
    assert interpret_query(merged, ctx) == WeakOrder.of(["e3", "e2"])
    # ... and tying everything returns nothing at all.
    assert interpret_query(WeakOrder.of(list(intent.keys())), ctx) == WeakOrder.of()
    # The merge optimizer discovers the top-two merge on its own.
    result = maximize_merge_dp(intent, ctx, base=intent)
    assert result.opt_value == -38
    assert result.partition.intervals == ((1, 2), (3, 3), (4, 4))
    assert result.ranking == merged


def test_saturated_biases_pin_the_response_and_near_saturated_do_not():
    for k in range(2, 7):
        saturating = Fraction(2 * k - 3, 2)  # == k - 3/2
        assert has_intent_independent_response(k, saturating), k
        ctx = UtilityContext(
            k, k, BiasFunction({f"e{i}": saturating for i in range(1, k + 1)})
        )
        assert (
            saturation_check(ctx)
            is SaturationOutcome.NON_INFLUENTIAL_BY_COROLLARY
        ), k
    for k in range(2, 7):
        shy = Fraction(k) - Fraction(8, 5)  # just below the threshold
        assert not has_intent_independent_response(k, shy), k
        ctx = UtilityContext(
            k, k, BiasFunction({f"e{i}": shy for i in range(1, k + 1)})
        )
        assert (
            saturation_check(ctx)
            is not SaturationOutcome.NON_INFLUENTIAL_BY_COROLLARY
        ), k


def test_witness_search_agrees_with_equilibrium_enumeration():
    rng = random.Random(31)
    for trial in range(500):
        game = FiniteGame.build(
            ("t1", "t2"),
            ("q1", "q2"),
            ("b1", "b2"),
            payoff_user=[
                [rng.randint(-3, 3) for _ in range(2)] for _ in range(2)
            ],
            payoff_source=[
                [rng.randint(-3, 3) for _ in range(2)] for _ in range(2)
            ],
            prior=(Fraction(1, 2), Fraction(1, 2)),
            set_equivalent=True,
        )
        has_witness = influential_witness(game) is not None
        has_influential = any(
            entry.classification is not EquilibriumClass.NON_INFLUENTIAL
            for entry in enumerate_pure_equilibria(game)
        )
        assert has_witness == has_influential, trial

    cheap = commission_game(1, 2)
    assert influential_witness(cheap) is not None
    cheap_classes = [
        e.classification for e in enumerate_pure_equilibria(cheap)
    ]
    assert cheap_classes.count(EquilibriumClass.INFLUENTIAL) == 2
    assert cheap_classes.count(EquilibriumClass.NON_INFLUENTIAL) == 2

    dear = commission_game(3, 2)
    assert influential_witness(dear) is None
    assert all(
        e.classification is EquilibriumClass.NON_INFLUENTIAL
        for e in enumerate_pure_equilibria(dear)
    )


def test_super_rank_counts_match_exhaustive_enumeration():
    ordered_bell = [
        sum(1 for _ in iter_weak_orders(range(r))) for r in range(6)
    ]
    assert ordered_bell == [1, 1, 3, 13, 75, 541]
    for m in range(1, 7):
        base_keys = [f"b{i}" for i in range(1, m + 1)]
        base = WeakOrder.total(base_keys)
        for r in range(0, 6):
            expected = count_super_ranks(m, r)
            appended = [f"n{j}" for j in range(1, r + 1)]
            # Constructive sweep: every coarsening of the base followed by
            # every ordering of the appended keys must be a distinct
            # super-rank, and there must be exactly ``expected`` of them.
            built = set()
            for coarse in iter_coarsenings(base_keys):
                for tail in iter_weak_orders(appended):
                    candidate = WeakOrder.of(*(list(coarse) + list(tail)))
                    assert is_super_rank(candidate, base), (m, r, candidate)
                    built.add(candidate)
            assert len(built) == expected, (m, r)
            if m + r <= 7:
                # Small enough to filter the whole weak-order space instead.
                filtered = sum(
                    1
                    for blocks in iter_weak_orders(base_keys + appended)
                    if is_super_rank(WeakOrder.of(*blocks), base)
                )
                assert filtered == expected, (m, r)


def test_wall_time_scaling_stays_within_budget():
    trust_rows = run_trust_suite(
        (10_000, 100_000, 1_000_000), seed=1, runs=1
    )
    for before, after in zip(trust_rows, trust_rows[1:]):
        ratio = after.millis / before.millis
        # 10x the universe may cost at most ~linear time (plus slack).
        assert ratio <= 13.5, (before.size, after.size, ratio)

    dp_rows = run_dp_suite((250, 500, 1000), seed=1, runs=3)
    for before, after in zip(dp_rows, dp_rows[1:]):
        ratio = after.millis / before.millis
        assert 3.0 <= ratio <= 6.0, (before.size, after.size, ratio)
