"""Per-tuple utilities, their sums and supermodularity, saturation.

The per-tuple utilities, their sums and the supermodularity check are
oracles in ``tests/oracles.py``; the saturation screen is checked
against a grid scan built on them.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coiquery import (
    BiasFunction,
    ConfigurationError,
    SaturationOutcome,
    UtilityContext,
    UtilityKind,
    WeakOrder,
    saturation_check,
)
from coiquery.utility import _has_common_response
from oracles import (
    aggregate_utility,
    check_supermodular,
    common_response_oracle,
    per_tuple_utility,
    saturation_oracle,
)

QU = UtilityKind.QUADRATIC_USER
QSB = UtilityKind.QUADRATIC_SOURCE_BIASED
PU = UtilityKind.PRODUCT_USER
PSB = UtilityKind.PRODUCT_SOURCE_BIASED


# --------------------------------------------------------------------------- #
# Per-tuple values
# --------------------------------------------------------------------------- #


def test_quadratic_user_is_zero_on_exact_match():
    assert per_tuple_utility(QU, 3, 3) == 0


def test_quadratic_user_penalizes_squared_displacement():
    assert per_tuple_utility(QU, 1, 4) == -9
    # the user never sees the bias; passing one must not change anything
    assert per_tuple_utility(QU, 1, 4, 7) == -9


def test_quadratic_source_measures_bias_shifted_displacement():
    assert per_tuple_utility(QSB, 1, 3, 2) == -16


def test_product_user_is_negated_rank_product():
    assert per_tuple_utility(PU, 2, 3) == -6


def test_product_source_weights_rank_by_intent_minus_bias():
    assert per_tuple_utility(PSB, 1, 1, "19/10") == Fraction(-9, 10)


# --------------------------------------------------------------------------- #
# Aggregates
# --------------------------------------------------------------------------- #


def _ctx(**kwargs):
    defaults = dict(
        universe_size=4, top_k=4, bias=BiasFunction({}), omitted_rank=5
    )
    defaults.update(kwargs)
    return UtilityContext(**defaults)


def test_aggregate_is_zero_when_response_matches_intent():
    tau = WeakOrder.total(["a", "b", "c", "d"])
    assert aggregate_utility(tau, tau, _ctx(), "user") == 0


def test_aggregate_of_full_reversal():
    tau = WeakOrder.total(["a", "b", "c", "d"])
    reverse = WeakOrder.total(["d", "c", "b", "a"])
    assert aggregate_utility(tau, reverse, _ctx(), "user") == -20


def test_omitted_tuple_contributes_squared_gap_to_omission_rank():
    tau = WeakOrder.total(["a", "b", "c", "d"])
    partial = WeakOrder.total(["b", "c", "d"])
    total = aggregate_utility(tau, partial, _ctx(), "user")
    # a sits at omission rank 5 against intent rank 1: -(1-5)^2 = -16;
    # the survivors each slide up one position for -1 apiece.
    assert total == -19
    assert total == -16 + 3 * -1


def test_source_aggregate_reads_the_bias_function():
    tau = WeakOrder.total(["a", "b", "c", "d"])
    ctx = _ctx(bias=BiasFunction({"a": Fraction(1)}))
    assert aggregate_utility(tau, tau, ctx, "source") == -1


def test_product_aggregates():
    tau = WeakOrder.total(["a", "b"])
    swapped = WeakOrder.total(["b", "a"])
    user_ctx = UtilityContext(2, 2, BiasFunction({}), kind_user=PU)
    assert aggregate_utility(tau, swapped, user_ctx, "user") == -4
    source_ctx = UtilityContext(
        2,
        2,
        BiasFunction({"a": Fraction(19, 10)}),
        kind_user=PU,
        kind_source=PSB,
    )
    assert aggregate_utility(tau, tau, source_ctx, "source") == Fraction(31, 10)


# --------------------------------------------------------------------------- #
# Supermodularity
# --------------------------------------------------------------------------- #


def test_both_quadratic_kinds_are_supermodular():
    for kind in (QU, QSB):
        outcome = check_supermodular(kind, 6, [-2, 0, 2])
        assert outcome.holds
        assert outcome.witness is None


def test_adversarial_shape_fails_with_a_witness():
    def convex_reward(intent_rank, response_rank, bias):
        return (Fraction(intent_rank) - response_rank) ** 2

    outcome = check_supermodular(convex_reward, 5, [0])
    assert not outcome.holds
    witness = outcome.witness
    assert witness is not None
    assert 1 <= witness.low_response < witness.high_response <= 5
    assert 1 <= witness.intent_rank <= 5


def test_failed_check_is_falsy_and_tiny_universe_rejected():
    def flat(intent_rank, response_rank, bias):
        return Fraction(0)

    def convex_reward(intent_rank, response_rank, bias):
        return (Fraction(intent_rank) - response_rank) ** 2

    assert check_supermodular(flat, 3, [0])  # constant gains pass
    assert not check_supermodular(convex_reward, 5, [0])
    with pytest.raises(ConfigurationError):
        check_supermodular(QU, 1, [0])


def test_omitted_rank_must_lie_past_the_universe():
    bias = BiasFunction({})
    assert UtilityContext(5, 3, bias, omitted_rank=6).omitted_rank == 6
    assert UtilityContext(5, 3, bias).omitted_rank == 6
    with pytest.raises(ConfigurationError, match=r"\(5 <= 5\)"):
        UtilityContext(5, 3, bias, omitted_rank=5)


# --------------------------------------------------------------------------- #
# Saturation
# --------------------------------------------------------------------------- #


def test_large_uniform_bias_saturates_by_the_threshold_rule():
    ctx = _ctx(bias=BiasFunction({}, default=Fraction(5, 2)))
    # |bias| = top_k - 3/2 exactly: equality passes
    assert saturation_check(ctx) is SaturationOutcome.NON_INFLUENTIAL_BY_COROLLARY


def test_small_uniform_bias_is_symmetric_but_influential():
    ctx = _ctx(bias=BiasFunction({}, default=Fraction(7, 10)))
    assert saturation_check(ctx) is SaturationOutcome.SYMMETRIC_BIAS_INFLUENTIAL


def test_mixed_moderate_biases_are_inconclusive():
    bias = BiasFunction(
        {"a": Fraction(2, 5), "b": Fraction(2), "c": Fraction(1, 10)}
    )
    ctx = UtilityContext(3, 3, bias)
    assert saturation_check(ctx, keys=("a", "b", "c")) is (
        SaturationOutcome.INCONCLUSIVE
    )


def test_product_source_with_small_bias_saturates_by_common_argmax():
    # every intent-minus-bias coefficient is positive, so pushing to the
    # bottom is optimal regardless of intent: saturated without the
    # threshold rule firing.
    ctx = _ctx(
        bias=BiasFunction({}, default=Fraction(1, 2)),
        kind_user=PU,
        kind_source=PSB,
    )
    assert saturation_check(ctx) is (
        SaturationOutcome.NON_INFLUENTIAL_BY_CONVEX_SATURATION
    )


def test_keys_argument_restricts_the_bias_values_considered():
    bias = BiasFunction({"a": Fraction(5, 2), "b": Fraction(1, 10)})
    ctx = UtilityContext(4, 4, bias)
    assert saturation_check(ctx) is SaturationOutcome.INCONCLUSIVE
    assert saturation_check(ctx, keys=("a",)) is (
        SaturationOutcome.NON_INFLUENTIAL_BY_COROLLARY
    )


# Biases n/d near and beyond both rules' boundaries, which sit at
# half-integers for the quadratic source and integers for the product one.
def _biases(z):
    return st.builds(Fraction, st.integers(-4 * z - 8, 4 * z + 8), st.integers(1, 4))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([QSB, PSB]), st.integers(1, 9), st.data())
def test_common_response_rule_matches_the_grid_scan(kind, z, data):
    value = data.draw(_biases(z))
    assert _has_common_response(kind, z, value) == common_response_oracle(
        kind, z, value
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QSB, PSB]), st.integers(1, 7), st.data())
def test_saturation_matches_the_grid_oracle(kind, z, data):
    top_k = data.draw(st.integers(1, z))
    values = data.draw(st.lists(_biases(z), min_size=1, max_size=3))
    bias = BiasFunction({f"e{i}": v for i, v in enumerate(values)})
    user = QU if kind is QSB else PU
    ctx = UtilityContext(z, top_k, bias, kind_user=user, kind_source=kind)
    assert saturation_check(ctx) is saturation_oracle(ctx)


def test_saturation_answers_at_once_in_a_huge_universe():
    z = 10**300
    half = Fraction(1, 2)
    outcome = SaturationOutcome
    for kind, entries, expected in [
        (QSB, {"a": half}, outcome.SYMMETRIC_BIAS_INFLUENTIAL),
        (QSB, {"a": half, "b": 1}, outcome.INCONCLUSIVE),
        (PSB, {"a": half, "b": 1}, outcome.NON_INFLUENTIAL_BY_CONVEX_SATURATION),
        (PSB, {"a": half, "b": z}, outcome.NON_INFLUENTIAL_BY_CONVEX_SATURATION),
        (PSB, {"a": half, "b": 2}, outcome.INCONCLUSIVE),
        (PSB, {"a": 2, "b": z}, outcome.NON_INFLUENTIAL_BY_COROLLARY),
    ]:
        user = QU if kind is QSB else PU
        bias = BiasFunction(entries)
        ctx = UtilityContext(z, 3, bias, kind_user=user, kind_source=kind)
        timings = []
        for _ in range(3):
            started = time.perf_counter()
            assert saturation_check(ctx) is expected, (kind, entries)
            timings.append(time.perf_counter() - started)
        assert min(timings) < 0.01
