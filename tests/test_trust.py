"""Displacement thresholds, the feasible windows, and the trust filter."""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coiquery import (
    BiasFunction,
    DomainError,
    TrustWitness,
    UtilityContext,
    WeakOrder,
    detect_trustworthy,
    gsd_values,
)
import coiquery.cli
import coiquery.core
import coiquery.trust
import coiquery.utility
from coiquery.cli import run_command
from coiquery.trust import _first_where, _floor_pivot, _threshold_numerators
from oracles import (
    _feasible_windows,
    closed_form_gap_shift,
    trust_baseline_flags,
    trust_report_jsonable,
    trust_witness_oracle,
)


# --------------------------------------------------------------------------- #
# Closed-form thresholds
# --------------------------------------------------------------------------- #


def test_threshold_values_small_universe():
    two = gsd_values(2, 1)
    assert (two.gap, two.shift, two.denom) == (Fraction(2, 3), Fraction(1, 3), 18)

    for separation, gap, shift in (
        (1, Fraction(2, 3), Fraction(1)),
        (2, Fraction(43, 39), Fraction(7, 13)),
        (3, Fraction(8, 5), Fraction(1, 5)),
    ):
        entry = gsd_values(4, separation)
        assert (entry.gap, entry.shift) == (gap, shift)


def test_threshold_values_z_ten():
    assert gsd_values(10, 4).gap == Fraction(455, 237)
    assert gsd_values(10, 4).shift == Fraction(357, 237)
    five = gsd_values(10, 5)
    assert five.gap == Fraction(1220, 510)
    assert five.shift == Fraction(570, 510)
    assert five.denom == 510


def test_unit_separation_gap_is_constant():
    for z in (2, 17, 64, 200):
        assert gsd_values(z, 1).gap == Fraction(2, 3)


def test_denominator_positive_and_separation_range_enforced():
    for z in (2, 9, 33):
        for separation in range(1, z):
            assert gsd_values(z, separation).denom > 0
    with pytest.raises(DomainError):
        gsd_values(5, 0)
    with pytest.raises(DomainError):
        gsd_values(5, 5)
    with pytest.raises(DomainError, match="universe of size >= 2"):
        gsd_values(1, 1)


def test_thresholds_match_longhand_formulas():
    for z in (3, 8, 21):
        for separation in range(1, z):
            entry = gsd_values(z, separation)
            gap, shift = closed_form_gap_shift(z, separation)
            assert (entry.gap, entry.shift) == (gap, shift)


# --------------------------------------------------------------------------- #
# Feasible separations
# --------------------------------------------------------------------------- #


def _feasible_windows_reported(z):
    """``(separation, floor, gap)`` of every feasible window, from
    ``gsd_values``: those whose floor ``max(gap - 1, shift)`` is below gap."""
    windows = []
    for separation in range(1, z):
        gap, shift, _ = gsd_values(z, separation)
        if max(gap - 1, shift) < gap:
            windows.append((separation, max(gap - 1, shift), gap))
    return windows


def test_feasible_table_tiny_universe():
    assert _feasible_windows_reported(2) == [(1, Fraction(1, 3), Fraction(2, 3))]


def test_feasible_table_excludes_unit_separation_at_z_four():
    windows = _feasible_windows_reported(4)
    assert [separation for separation, _, _ in windows] == [2, 3]
    assert windows[0][1:] == (Fraction(7, 13), Fraction(43, 39))
    assert windows[1][1:] == (Fraction(3, 5), Fraction(8, 5))


def test_feasible_table_z_ten():
    windows = _feasible_windows_reported(10)
    assert [separation for separation, _, _ in windows] == [4, 5, 6, 7, 8, 9]
    assert windows[1] == (5, Fraction(71, 51), Fraction(122, 51))


def test_feasible_entries_follow_the_strict_window_rule():
    for z in (2, 6, 12, 30):
        windows = _feasible_windows_reported(z)
        assert windows == [(d, floor, gap) for d, gap, floor in _feasible_windows(z)]
        present = {separation: (floor, gap) for separation, floor, gap in windows}
        for separation in range(1, z):
            gap, shift = closed_form_gap_shift(z, separation)
            assert (max(gap - 1, shift) < gap) == (separation in present)
            if separation in present:
                assert present[separation] == (max(gap - 1, shift), gap)


def _forward_differences(z, d):
    """Cross-multiplied forward differences of gap, shift and gap - shift.

    Each is positive exactly when the quantity increases from d to d + 1.
    """
    gap, shift, scale = _threshold_numerators(z, d)
    gap_next, shift_next, scale_next = _threshold_numerators(z, d + 1)
    return (
        gap_next * scale - gap * scale_next,
        shift_next * scale - shift * scale_next,
        (gap_next - shift_next) * scale - (gap - shift) * scale_next,
    )


def test_forward_differences_have_nonnegative_coefficients():
    sympy = pytest.importorskip("sympy")
    u, t = sympy.symbols("u t")
    d = 1 + u
    for difference, sign in zip(_forward_differences(d + 2 + t, d), (1, -1, 1)):
        poly = sympy.Poly(sympy.expand(sign * difference), u, t)
        assert all(coefficient >= 0 for coefficient in poly.coeffs())
        assert poly.coeff_monomial(1) > 0


def test_gap_and_its_excess_over_shift_rise_by_less_than_one_per_step():
    # The module docstring's step bounds, and a feasible last separation:
    # together they keep every tie of the pivot search from moving a witness.
    sympy = pytest.importorskip("sympy")
    u, t, w = sympy.symbols("u t w")
    d = 1 + u
    z = d + 2 + t
    gap_up, _, excess_up = _forward_differences(z, d)
    scales = _threshold_numerators(z, d)[2] * _threshold_numerators(z, d + 1)[2]
    gap, shift, _ = _threshold_numerators(2 + w, 1 + w)  # d = z - 1
    for positive, variables in (
        (scales - gap_up, (u, t)),
        (scales - excess_up, (u, t)),
        (gap - shift, (w,)),
    ):
        poly = sympy.Poly(sympy.expand(positive), *variables)
        assert all(coefficient >= 0 for coefficient in poly.coeffs())
        assert poly.coeff_monomial(1) > 0


def test_monotonicity_facts_hold_on_sampled_large_universes():
    rng = random.Random(29)
    for _ in range(200):
        z = rng.randint(3, 10**12)
        for d in {1, z - 2, rng.randint(1, z - 2), rng.randint(1, min(z - 2, 10**4))}:
            gap_up, shift_up, excess_up = _forward_differences(z, d)
            assert gap_up > 0
            assert shift_up <= 0
            assert excess_up > 0


# --------------------------------------------------------------------------- #
# The trust filter
# --------------------------------------------------------------------------- #


def _detect_ctx(z, entries, low, high, top_k=None):
    bias = BiasFunction(
        {k: Fraction(v) for k, v in entries.items()},
        lower=Fraction(low),
        upper=Fraction(high),
    )
    return UtilityContext(z, top_k or z, bias)


def test_zero_bias_key_is_trustworthy_at_z_ten():
    beta = WeakOrder.total(["e"])
    report = detect_trustworthy(beta, _detect_ctx(10, {"e": 0}, 0, 3))
    assert report.trustworthy == ("e",)
    assert not report.flagged


def test_max_bias_key_is_flagged_with_the_least_floor_witness():
    # Every feasible gap clears 3 - 3 = 0, so the witness is the pivot:
    # separation 5 has the least floor (71/51 against 4's 119/79).
    beta = WeakOrder.total(["e"])
    report = detect_trustworthy(beta, _detect_ctx(10, {"e": 3}, 0, 3))
    assert report.trustworthy == ()
    assert report.flagged["e"] == TrustWitness(5, Fraction(31, 51), Fraction(82, 51))


def test_unbiased_answers_are_certified_wholesale():
    beta = WeakOrder.total(["a", "b", "c", "d"])
    ctx = _detect_ctx(4, {}, 0, 3)
    report = detect_trustworthy(beta, ctx)
    assert set(report.trustworthy) == {"a", "b", "c", "d"}


def test_mixed_biases_at_z_four_flag_through_the_wide_separations():
    # unit separation is infeasible at z=4, but separations 2 and 3 are
    # live: only the zero-bias key survives.
    beta = WeakOrder.total(["a", "b", "c", "d"])
    ctx = _detect_ctx(4, {"a": 3, "b": 1, "c": 0, "d": 2}, 0, 3)
    report = detect_trustworthy(beta, ctx)
    assert report.trustworthy == ("c",)
    assert set(report.flagged) == {"a", "b", "d"}


def test_point_bias_range_never_flags():
    beta = WeakOrder.total(["e"])
    report = detect_trustworthy(beta, _detect_ctx(10, {"e": 3}, 3, 3))
    assert report.trustworthy == ("e",)


def test_default_reports_match_the_witness_oracle_on_small_universes():
    rng = random.Random(7)
    for _ in range(10):
        z = rng.randint(50, 200)
        keys = [f"e{i}" for i in range(1, 41)]
        entries = {k: Fraction(rng.randint(0, 30), 10) for k in keys}
        ctx = _detect_ctx(z, entries, 0, 3, top_k=40)
        report = detect_trustworthy(WeakOrder.total(keys), ctx)
        for key in keys:
            expected = trust_witness_oracle(entries[key], z, Fraction(0), Fraction(3))
            assert report.flagged.get(key) == expected
            assert (key in report.trustworthy) == (expected is None)


class _Pivot(NamedTuple):
    separation: int
    gap: Fraction
    floor: Fraction  # max(gap - 1, shift)


def _pivot(z):
    """The pivot's separation, with its gap and window floor read off
    the longhand thresholds."""
    separation = _floor_pivot(z)
    gap, shift = closed_form_gap_shift(z, separation)
    return _Pivot(separation, gap, max(gap - 1, shift))


def test_first_where_matches_a_linear_scan_on_every_small_range():
    for lo in (-3, 0, 7):
        for size in range(41):
            hi = lo + size
            for threshold in range(lo - 1, hi + 2):
                tested = []

                def holds(d):
                    tested.append(d)
                    return d >= threshold

                expected = next((d for d in range(lo, hi) if d >= threshold), hi)
                assert _first_where(lo, hi, holds) == expected, (lo, hi, threshold)
                assert len(tested) == size.bit_length()
                assert all(lo <= d <= hi for d in tested)


def test_past_pivot_search_matches_the_scan_oracle_exactly():
    rng = random.Random(23)
    universes = [2, 3, 4, 10, 97, 4096, 4097, 20_000]
    universes += [rng.randint(5, 4096) for _ in range(4)]
    universes += [rng.randint(4098, 19_999) for _ in range(2)]
    searched = 0
    for z in universes:
        high = Fraction(rng.choice([3, max(1, 3 * z // 10)]))
        keys = [f"e{i}" for i in range(1, 9)]
        entries = {k: Fraction(rng.randint(0, int(high) * 10), 10) for k in keys[:4]}
        # Keys without an entry take a default above the range, so some
        # need a gap past the pivot's and exercise the per-key search.
        default = high + Fraction(rng.randint(1, 10 * z), 20)
        bias = BiasFunction(entries, default=default, lower=Fraction(0), upper=high)
        ctx = UtilityContext(z, z, bias)
        report = detect_trustworthy(WeakOrder.total(keys), ctx)
        for key in keys:
            expected = trust_witness_oracle(bias(key), z, Fraction(0), high)
            assert report.flagged.get(key) == expected
            assert (key in report.trustworthy) == (expected is None)
            searched += expected is not None and bias(key) - high >= _pivot(z).gap
    assert searched > 0


def test_a_default_past_the_pivot_is_searched_once_per_request():
    # At z=10^300 one search past the pivot takes tens of milliseconds;
    # 1,000 keys that each searched again would take tens of seconds.
    z = 10**300
    keys = [f"e{i}" for i in range(1, 1001)]
    bias = BiasFunction({"e0": 1}, default=2 * 10**299, lower=0, upper=3)
    ctx = UtilityContext(z, z, bias)
    assert bias.default - bias.upper >= _pivot(z).gap
    alone = detect_trustworthy(WeakOrder.total(keys[:1]), ctx).flagged[keys[0]]
    started = time.perf_counter()
    report = detect_trustworthy(WeakOrder.total(keys), ctx)
    assert time.perf_counter() - started < 1.0
    assert report.flagged == dict.fromkeys(keys, alone)


def _range_and_biases(rng, z):
    """A bias range of a random shape and key biases inside and beyond it."""
    shape = rng.choice(["wide", "point", "negative", "narrow"])
    if shape == "wide":
        low, high = Fraction(0), Fraction(rng.choice([3, max(1, 3 * z // 10)]))
    elif shape == "point":
        low = high = Fraction(rng.randint(-30, 30), 10)
    elif shape == "negative":
        low = Fraction(-rng.randint(1, 40), 10)
        high = low + Fraction(rng.randint(0, 30), 10)
    else:
        low = Fraction(rng.randint(0, 30), 10)
        high = low + Fraction(rng.randint(1, 5), 10)
    width = high - low
    entries = [low + width * Fraction(rng.randint(0, 20), 20) for _ in range(3)]
    # Keys without an entry take the default, which lies above the range.
    default = high + Fraction(rng.randint(1, 10 * z), 20)
    return low, high, entries, default


def test_default_reports_match_the_oracle_on_every_range_shape():
    rng = random.Random(31)
    universes = list(range(2, 301)) + [rng.randint(301, 20_000) for _ in range(4)]
    reported = 0
    for z in universes:
        low, high, values, default = _range_and_biases(rng, z)
        keys = ["a", "b", "c", "out"]
        bias = BiasFunction(
            dict(zip(keys, values)), default=default, lower=low, upper=high
        )
        report = detect_trustworthy(WeakOrder.total(keys), UtilityContext(z, z, bias))
        for key in keys:
            witness = trust_witness_oracle(bias(key), z, low, high)
            assert report.flagged.get(key) == witness, (z, key)
            assert (key in report.trustworthy) == (witness is None)
            reported += witness is not None
    assert reported > 100


def _screen_one(value, z, low, high, *, as_default=False):
    """Witness of one key of bias ``value``, or None when it is trustworthy.

    The key has an entry when ``value`` lies in the range; otherwise, or
    when asked, it takes ``value`` as the default beside an in-range entry.
    """
    if as_default or not low <= value <= high:
        bias = BiasFunction({"in": low}, default=value, lower=low, upper=high)
    else:
        bias = BiasFunction({"k": value}, default=high + 1, lower=low, upper=high)
    report = detect_trustworthy(WeakOrder.total(["k"]), UtilityContext(z, z, bias))
    witness = report.flagged.get("k")
    assert ("k" in report.trustworthy) == (witness is None)
    return witness


def _witness_near_pivot(value, z, low, high):
    """The default witness of a bias near the two cuts, read off the
    longhand thresholds from the pivot up to the first gap that clears
    ``value - high``: a few separations when ``value`` is near the cuts."""
    for separation in range(_floor_pivot(z), z):
        gap, shift = closed_form_gap_shift(z, separation)
        if gap > value - high:
            floor = max(gap - 1, shift)
            if not floor < value - low:
                return None
            return TrustWitness(separation, value - gap, value - floor)
    return None


@pytest.mark.parametrize("z", [2, 3, 4, 10, 4097, 10**6])
def test_biases_on_and_beside_the_two_cuts(z):
    pivot = _pivot(z)
    step = Fraction(1, 10**15)
    ranges = [
        (Fraction(0), Fraction(3)),
        (Fraction(-5, 3), Fraction(3 * z, 10) + Fraction(1, 7)),
        (1 - pivot.floor, 3 + z // 10 - pivot.gap),  # both cuts are integers
        (Fraction(1, 3), Fraction(1, 3)),  # a point range flags nothing
    ]
    for low, high in ranges:
        low_cut, high_cut = low + pivot.floor, high + pivot.gap
        offsets = (-step, 0, step)
        values = [cut + offset for cut in (low_cut, high_cut) for offset in offsets]
        # An ``int`` bias meets the cuts as the greatest integers at or
        # below the low cut and below the high one.
        low_int, high_int = math.floor(low_cut), math.ceil(high_cut) - 1
        values += [low_int, low_int + 1, high_int, high_int + 1]
        for value in values:
            found = {
                _screen_one(value, z, low, high, as_default=as_default)
                for as_default in (False, True)
            }
            assert len(found) == 1, (z, value)
            (witness,) = found
            if low == high:
                assert witness is None
                continue
            assert witness == _witness_near_pivot(value, z, low, high)
            if value <= low_cut:
                assert witness is None
            elif value < high_cut:
                assert witness is not None
                assert witness.separation == pivot.separation
            else:
                assert witness is None or witness.separation > pivot.separation
            if z <= 4097:  # the scan oracle takes ~17 s per call at z=10**6
                assert witness == trust_witness_oracle(value, z, low, high)
    low, high = ranges[2]
    assert (low + pivot.floor).denominator == (high + pivot.gap).denominator == 1


@pytest.mark.parametrize("z", [10, 97, 4097])
def test_defaults_exactly_at_a_gap_or_a_floor_past_the_pivot(z):
    # Defaults at or above the high cut, so searched past the pivot.  One at
    # ``high + gap(d)`` is not cleared by ``d`` (the gap must exceed
    # ``bias - high``).  One at ``low + floor(d)`` is cleared left of ``d``,
    # where the floor lies below ``bias - low`` (module docstring).
    pivot = _pivot(z)
    low, high = Fraction(0), Fraction(1, 3)
    searched = {"gap": 0, "floor": 0}
    for separation in range(pivot.separation + 1, min(z, pivot.separation + 6)):
        gap, shift = closed_form_gap_shift(z, separation)
        for kind, value in ("gap", high + gap), ("floor", low + max(gap - 1, shift)):
            if value - high >= pivot.gap:
                expected = trust_witness_oracle(value, z, low, high)
                assert _screen_one(value, z, low, high) == expected, (z, value)
                searched[kind] += 1
    assert all(searched.values()), searched


_rationals = st.one_of(
    st.fractions(-100, 100, max_denominator=10**6),
    st.floats(-100, 100, allow_nan=False).map(Fraction),
)
_unit = st.one_of(st.fractions(0, 1, max_denominator=1000), st.floats(0, 1).map(Fraction))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 300),
    _rationals,
    st.one_of(st.just(Fraction(0)), _rationals.map(abs)),
    st.lists(_unit, min_size=1, max_size=4),
    _rationals,
    st.booleans(),
)
def test_default_reports_match_the_oracle_on_drawn_inputs(
    z, low, width, spots, offset, above
):
    high = low + width
    entries = {f"k{i}": low + width * spot for i, spot in enumerate(spots)}
    # A default either anywhere or above the range, where keys that need
    # the past-pivot search live.
    default = high + abs(offset) if above else offset
    bias = BiasFunction(entries, default=default, lower=low, upper=high)
    keys = [*entries, "out"]
    report = detect_trustworthy(WeakOrder.total(keys), UtilityContext(z, z, bias))
    for key in keys:
        expected = trust_witness_oracle(bias(key), z, low, high)
        assert report.flagged.get(key) == expected
        assert (key in report.trustworthy) == (expected is None)


def test_report_partitions_the_returned_keys():
    rng = random.Random(13)
    for _ in range(20):
        z = rng.randint(4, 16)
        keys = [f"e{i}" for i in range(1, z + 1)]
        entries = {k: Fraction(rng.randint(0, 30), 10) for k in keys}
        ctx = _detect_ctx(z, entries, 0, 3)
        report = detect_trustworthy(WeakOrder.total(keys), ctx)
        flagged = set(report.flagged)
        assert flagged.isdisjoint(report.trustworthy)
        assert flagged | set(report.trustworthy) == set(keys)


def test_filter_agrees_with_witness_search_smoke():
    rng = random.Random(17)
    for _ in range(25):
        z = rng.randint(4, 12)
        keys = [f"e{i}" for i in range(1, rng.randint(2, z) + 1)]
        entries = {k: Fraction(rng.randint(0, 30), 10) for k in keys}
        ctx = _detect_ctx(z, entries, 0, 3)
        beta = WeakOrder.total(keys)
        report = detect_trustworthy(beta, ctx)
        assert set(report.flagged) == trust_baseline_flags(beta, ctx)


def test_report_serialization_shape():
    beta = WeakOrder.total(["e", "f"])
    ctx = _detect_ctx(10, {"e": 3, "f": 0}, 0, 3)
    payload = json.loads(detect_trustworthy(beta, ctx).as_json())
    assert payload["trustworthy"] == ["f"]
    (entry,) = payload["flagged"]
    assert entry["key"] == "e"
    assert entry["delta"] == 5
    low, high = entry["interval"]
    assert low == pytest.approx(31 / 51)
    assert high == pytest.approx(82 / 51)


# Keys that JSON must escape, or writes as escapes under ``ensure_ascii``.
_AWKWARD_KEYS = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\u2028é€\ud800\U0001f600'),
        st.characters(),
    ),
    max_size=6,
)
_ENDS = st.one_of(
    st.integers(-(10**6), 10**6), st.just(0), st.integers(-(10**45), 10**45)
)


@st.composite
def _written_reports(draw):
    """A report of drawn keys and integer witnesses, some beyond the floats."""
    keys = draw(st.lists(_AWKWARD_KEYS, unique=True, max_size=6))
    split = draw(st.integers(0, len(keys)))
    bounds = {}
    for key in keys[split:]:
        den = draw(st.integers(1, 10**40))
        low, high = sorted((draw(_ENDS), draw(_ENDS)))
        if draw(st.integers(0, 19)) == 0:  # past the largest float
            high = den * 10**309
        bounds[key] = (draw(st.integers(1, 10**6)), low, high, den)
    return coiquery.trust.TrustReport(tuple(keys[:split]), bounds)


@settings(max_examples=300, deadline=None)
@given(_written_reports())
def test_report_text_is_json_dumps_of_the_reference_form(report):
    try:
        reference = trust_report_jsonable(report)
    except OverflowError as exc:
        with pytest.raises(OverflowError) as caught:
            report.as_json()
        assert str(caught.value) == str(exc)
        return
    expected = json.dumps(reference, sort_keys=True, separators=(",", ":"))
    assert report.as_json() == expected


# Bias spellings a config may hold: integers, decimal strings, and
# fractions whose denominators are not powers of two, some beyond 2**53.
_SPELLED = st.one_of(
    st.integers(-60, 60),
    st.decimals(-60, 60, places=3, allow_nan=False, allow_infinity=False).map(str),
    st.builds(Fraction, st.integers(-600, 600), st.sampled_from([3, 7, 10, 99, 997])),
    st.builds(Fraction, st.integers(-(10**19), 10**19), st.integers(10**17, 10**18)),
)


@st.composite
def _spelled_screens(draw):
    """A universe size and a bias of drawn spellings with its range.

    The range runs from below the least entry to above the greatest; the
    default lies above it (where the past-pivot search runs) or anywhere.
    """
    z = draw(st.integers(2, 300))
    entries = draw(st.lists(_SPELLED, min_size=1, max_size=4))
    values = [Fraction(value) for value in entries]
    low = min(values) - draw(st.integers(0, 3))
    high = max(values) + draw(_SPELLED.map(lambda v: abs(Fraction(v))))
    offset = abs(Fraction(draw(_SPELLED))) + Fraction(draw(st.integers(0, 10 * z)), 20)
    default = high + offset if draw(st.booleans()) else draw(_SPELLED)
    entries = {f"k{i}": value for i, value in enumerate(entries)}
    return z, BiasFunction(entries, default=default, lower=low, upper=high)


@settings(max_examples=150, deadline=None)
@given(_spelled_screens())
def test_report_floats_are_those_of_the_reduced_witnesses(screen):
    z, bias = screen
    keys = [*bias.entries, "out"]
    beta, ctx = WeakOrder.total(keys), UtilityContext(z, z, bias)
    low, high = bias.lower, bias.upper
    report = detect_trustworthy(beta, ctx)
    expected = [
        [key, w.separation, float(w.interval_low).hex(), float(w.interval_high).hex()]
        for key, w in report.flagged.items()
    ]
    written = [
        [entry["key"], entry["delta"], *(end.hex() for end in entry["interval"])]
        for entry in json.loads(report.as_json())["flagged"]
    ]
    assert written == expected
    for key in keys:
        witness = trust_witness_oracle(bias(key), z, low, high)
        assert report.flagged.get(key) == witness
        if witness:
            for end in (witness.interval_low, witness.interval_high):
                assert type(end) is Fraction
                assert math.gcd(end.numerator, end.denominator) == 1


class _CountedFraction(Fraction):
    """A ``Fraction`` that counts how many are made."""

    made = 0

    def __new__(cls, *args, **kwargs):
        _CountedFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


def test_pivot_flagged_keys_build_no_fraction(tmp_path, capsys, monkeypatch):
    # Integer biases inside the range all settle at the pivot, so the
    # screen should stay in integers from the config to the report: no
    # module on the path (loader, bias, screen) builds a ``Fraction``.
    rng = random.Random(3)
    z, upper = 50_000, 15_000
    keys = [f"e{i}" for i in rng.sample(range(1, z + 1), 1_000)]
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "z": z,
                "bias": {
                    "entries": {key: rng.randint(0, upper) for key in keys},
                    "lower": 0,
                    "upper": upper,
                },
            }
        )
    )
    beta = tmp_path / "beta.json"
    beta.write_text(json.dumps([[key] for key in keys]))
    pivot = _floor_pivot(z)  # once per request, not per key
    for module in (coiquery.cli, coiquery.core, coiquery.trust, coiquery.utility):
        if hasattr(module, "Fraction"):
            monkeypatch.setattr(module, "Fraction", _CountedFraction)
    monkeypatch.setattr(_CountedFraction, "made", 0)
    code = run_command(["trust", "--config", str(config), "--beta", str(beta)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(report["flagged"]) > 300
    assert {entry["delta"] for entry in report["flagged"]} == {pivot}
    assert _CountedFraction.made == 0
