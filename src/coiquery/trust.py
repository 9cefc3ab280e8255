"""Trustworthiness screening of returned rankings.

A biased source only has an incentive to misreport a tuple's position
when the bias it would need to hide falls inside a narrow window.  For
each separation value the window endpoints are rational functions of
the universe size; a separation is *feasible* when its window is
nonempty.  Screening a returned ranking then reduces to interval
intersection: a key is flagged when some feasible separation admits an
alternative bias, inside the configured bias range, that would make its
placement strategic.

Detection's witness rule: among the feasible separations whose gap
exceeds ``bias - range_high``, the one with the least window floor, the
rightmost on ties.  It finds the *pivot* (below) in O(log z) integer
steps per universe size; two cuts there settle each key by integer
comparisons, and only a bias at or above the high one is searched.  An
exhaustive report lists every separation whose window meets the range;
they form one interval, so it costs O(log z) plus its length.  Witnesses
stay integers, so a key settled at the pivot builds no ``Fraction``.

The search rests on three monotonicity facts.  Write
``gap = G(d) / S(d)`` and ``shift = H(d) / S(d)`` over their shared
scale and cross-multiply each forward difference, e.g.
``G(d+1) S(d) - G(d) S(d+1)``.  Substituting ``d = 1 + u`` and
``z = d + 2 + t`` (``u, t >= 0`` exactly when ``1 <= d < d + 1 < z``)
makes every difference a polynomial in ``u, t`` with nonnegative
coefficients and a positive constant term.  So ``gap`` strictly
increases in ``d``, ``shift`` never increases (it strictly decreases),
and ``gap - shift`` strictly increases.  The feasible separations
(``shift < gap``) therefore form a suffix ``[d0, z - 1]``, on which the
window floor ``max(gap - 1, shift)`` is V-shaped: it follows ``shift``
down to the crossing ``c`` where ``gap - 1 >= shift`` first holds,
then ``gap - 1`` up, so its rightmost minimum (the *pivot*) is at
``c - 1`` or ``c``.  A key needs ``gap > bias - range_high``, again a
suffix; its floor minimum is the pivot's when the pivot lies in it,
and otherwise sits at the suffix's first separation.  It also needs
``floor < bias - range_low``, a sublevel set of the V and so an
interval; the exhaustive report is that interval cut to the suffix,
its ends found by one binary search on each side of the witness.

The module also measures pairwise indifference: given two rankings that
differ by exchanging two keys, the bias shift that would leave a
quadratic source exactly indifferent between them.

Conventions
-----------
All thresholds are exact :class:`fractions.Fraction` values.  Witness
intervals are half-open ``[low, high)`` and compared strictly against
the closed bias range, so grazing contact at a single point does not
flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from .core import BiasFunction, ConfigurationError, DomainError, Key, WeakOrder
from .utility import UtilityContext

__all__ = [
    "GapThresholds",
    "IndifferenceReport",
    "TrustReport",
    "TrustWitness",
    "detect_trustworthy",
    "gsd_values",
    "pairwise_indifference",
]


class GapThresholds(NamedTuple):
    """Gap and shift thresholds at one separation, over a shared scale."""

    gap: Fraction
    shift: Fraction
    denom: int


def _threshold_numerators(universe_size: int, separation: int) -> tuple[int, int, int]:
    """Integer numerators of the gap and shift thresholds, plus the scale."""
    z, d = universe_size, separation
    scale = 3 * (z * z - z + d * (2 * z + 1) - d * d)
    gap_numerator = -(d**3) + 3 * d * d * z + d * z * z + d + z * z - z
    shift_numerator = (z - d) * (z - d + 1) * (2 * d + z - 1)
    return gap_numerator, shift_numerator, scale


def gsd_values(universe_size: int, separation: int) -> GapThresholds:
    """Gap threshold, shift threshold, and their common denominator.

    The gap threshold is the largest bias advantage a separation can
    absorb; the shift threshold is the mean-rank displacement the
    separation induces.  Both are positive on the admissible range.
    """
    if universe_size < 2:
        raise DomainError("thresholds need a universe of size >= 2")
    if not 1 <= separation <= universe_size - 1:
        raise DomainError(
            f"separation {separation} outside 1..{universe_size - 1}"
        )
    gap_numerator, shift_numerator, scale = _threshold_numerators(
        universe_size, separation
    )
    assert scale > 0
    return GapThresholds(
        Fraction(gap_numerator, scale), Fraction(shift_numerator, scale), scale
    )


# --------------------------------------------------------------------------- #
# Detection
# --------------------------------------------------------------------------- #


class TrustWitness(NamedTuple):
    """A separation whose alternative-bias window meets the allowed range."""

    separation: int
    interval_low: Fraction
    interval_high: Fraction  # exclusive


_Bounds = tuple[int, int, int, int]  # separation, low and high over a denominator


@dataclass(frozen=True, eq=False)
class TrustReport:
    """Partition of a returned ranking into trustworthy and flagged keys.

    Each flagged key carries its least-floor witness (the rightmost on
    ties among separations whose gap clears ``bias - range_high``), or
    every witness in separation order when screened exhaustively.  They
    are held as integers; ``flagged`` builds reduced fractions on first use.
    """

    trustworthy: tuple[Key, ...]
    _bounds: dict[Key, tuple[_Bounds, ...]]

    @cached_property
    def flagged(self) -> dict[Key, tuple[TrustWitness, ...]]:
        return {
            key: tuple(
                TrustWitness(separation, Fraction(low, den), Fraction(high, den))
                for separation, low, high, den in bounds
            )
            for key, bounds in self._bounds.items()
        }

    def as_jsonable(self) -> dict:
        flagged = [
            {
                "key": key,
                "delta": separation,
                "interval": [low / den, high / den],  # rounds as float(Fraction)
            }
            for key, bounds in self._bounds.items()
            for separation, low, high, den in bounds
        ]
        return {"trustworthy": list(self.trustworthy), "flagged": flagged}


class _Window(NamedTuple):
    """A feasible separation with its gap and window floor."""

    separation: int
    gap: Fraction
    floor: Fraction  # max(gap - 1, shift)


def _window(universe_size: int, separation: int) -> _Window:
    gap, shift, scale = _threshold_numerators(universe_size, separation)
    return _Window(
        separation, Fraction(gap, scale), Fraction(max(gap - scale, shift), scale)
    )


def _first_where(lo: int, hi: int, holds: Callable[[int], bool]) -> int:
    """Least d in ``[lo, hi)`` where a monotone ``holds`` is true, else hi."""
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@lru_cache(maxsize=16)
def _floor_pivot(universe_size: int) -> _Window | None:
    """Rightmost minimum of the window floor, or None if nothing is feasible."""
    z = universe_size

    def feasible(d: int) -> bool:
        gap, shift, _ = _threshold_numerators(z, d)
        return shift < gap

    def crossed(d: int) -> bool:
        gap, shift, scale = _threshold_numerators(z, d)
        return gap - scale >= shift

    first = _first_where(1, z, feasible)
    if first == z:
        return None
    crossing = _first_where(first, z, crossed)
    # Crossing first, so that min keeps the rightmost separation on ties.
    candidates = [d for d in (crossing, crossing - 1) if first <= d < z]
    return min((_window(z, d) for d in candidates), key=lambda w: w.floor)


def _bounds(bias_value: Fraction, universe_size: int, separation: int) -> _Bounds:
    """The window ``[bias - gap, bias - floor)`` at one separation."""
    n, d = bias_value.as_integer_ratio()
    gap, shift, scale = _threshold_numerators(universe_size, separation)
    floor = max(gap - scale, shift)
    return separation, n * scale - gap * d, n * scale - floor * d, d * scale


def _witness(
    bias_value: Fraction,
    universe_size: int,
    pivot: _Window,
    range_low: Fraction,
    range_high: Fraction,
) -> _Bounds | None:
    """Witness for a bias at or above the high cut: the first separation
    right of the pivot whose gap clears ``bias - range_high``."""
    cut = bias_value - range_high

    def clears(d: int) -> bool:
        gap, _, scale = _threshold_numerators(universe_size, d)
        return gap * cut.denominator > cut.numerator * scale

    at = _first_where(pivot.separation + 1, universe_size, clears)
    if at == universe_size:
        return None
    window = _window(universe_size, at)
    if not window.floor < bias_value - range_low:
        return None
    return _bounds(bias_value, universe_size, at)


def _witnesses(
    bias_value: Fraction,
    universe_size: int,
    witness: int,
    range_low: Fraction,
    range_high: Fraction,
) -> tuple[_Bounds, ...]:
    """Every separation whose window meets the range, in ascending order.

    They form an interval around the least-floor ``witness``.  Left of
    it, feasibility and the gap cut each hold from some separation on,
    the floor does not increase over the feasible separations up to the
    pivot, and a witness right of the pivot is the first to clear the
    cut; so the qualifying separations there are a suffix of
    ``[1, witness]``.  Right of it only the floor can fail, and it does
    not decrease there.
    """
    z = universe_size
    cut = bias_value - range_high
    ceiling = bias_value - range_low

    def qualifies(d: int) -> bool:
        gap, shift, scale = _threshold_numerators(z, d)
        floor = max(gap - scale, shift)
        return (
            shift < gap
            and gap * cut.denominator > cut.numerator * scale
            and floor * ceiling.denominator < ceiling.numerator * scale
        )

    first = _first_where(1, witness, qualifies)
    end = _first_where(witness + 1, z, lambda d: not qualifies(d))
    return tuple(_bounds(bias_value, z, d) for d in range(first, end))


def detect_trustworthy(
    beta: WeakOrder, ctx: UtilityContext, *, exhaustive: bool = False
) -> TrustReport:
    """Screen every key of a returned ranking against the separation windows.

    A key is flagged when some feasible separation's alternative-bias
    window ``[bias - gap, bias - max(gap - 1, shift))`` intersects the
    configured bias range strictly, which holds exactly when
    ``gap > bias - range_high`` and the floor is below
    ``bias - range_low``.  By default each flagged key reports one
    witness: among the separations whose gap clears ``bias - range_high``,
    the one with the least window floor, the rightmost on ties.  Each bias
    is compared, as cross-multiplied integers, with two cuts from the
    cached pivot: at or below ``range_low + pivot.floor`` it is
    trustworthy, below ``range_high + pivot.gap`` the pivot is its
    witness, and otherwise (a default above the range) it binary-searches
    past the pivot.  ``exhaustive`` reports every qualifying separation in
    ascending order; they form one interval, found with two more binary
    searches per flagged key.  Witnesses stay integers (see ``TrustReport``).
    """
    range_low, range_high = ctx.bias.lower, ctx.bias.upper
    assert range_low is not None and range_high is not None  # BiasFunction derives bounds
    z = ctx.universe_size
    pivot = _floor_pivot(z)
    if pivot is None or range_low >= range_high:
        return TrustReport(beta.keys(), {})
    low_n, low_d = (range_low + pivot.floor).as_integer_ratio()
    high_n, high_d = (range_high + pivot.gap).as_integer_ratio()
    at = pivot.separation
    gap, shift, scale = _threshold_numerators(z, at)  # ``_bounds``'s terms, once
    floor = max(gap - scale, shift)
    lookup, default = ctx.bias.entries.get, ctx.bias.default
    trustworthy: list[Key] = []
    flagged: dict[Key, tuple[_Bounds, ...]] = {}
    for key in beta.keys():
        bias_value = lookup(key, default)
        n, d = bias_value.as_integer_ratio()
        if n * low_d <= low_n * d:
            witness: _Bounds | None = None
        elif n * high_d < high_n * d:
            witness = (at, n * scale - gap * d, n * scale - floor * d, d * scale)
        else:
            witness = _witness(bias_value, z, pivot, range_low, range_high)
        if witness is None:
            trustworthy.append(key)
        elif exhaustive:
            flagged[key] = _witnesses(bias_value, z, witness[0], range_low, range_high)
        else:
            flagged[key] = (witness,)
    return TrustReport(tuple(trustworthy), flagged)


# --------------------------------------------------------------------------- #
# Pairwise indifference
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class IndifferenceReport:
    """Indifference geometry between two rankings under a quadratic source.

    ``normals`` and the intercepts are always available.  The remaining
    fields are populated only when the rankings differ by exchanging
    exactly two keys: ``swap_pair`` lists them (first-ranked first),
    the thresholds are the plain and bias-corrected indifference
    points, and ``band`` is the half-open ``(low, high]`` interval of
    intent-gap shifts over which the two rankings trade places.
    """

    normals: dict[Key, Fraction]
    intercept_plain: Fraction
    intercept_biased: Fraction
    swap_pair: tuple[Key, Key] | None = None
    threshold_plain: Fraction | None = None
    threshold_biased: Fraction | None = None
    band: tuple[Fraction, Fraction] | None = None


def pairwise_indifference(
    beta: WeakOrder, beta_prime: WeakOrder, bias: BiasFunction
) -> IndifferenceReport:
    """Compare two rankings of the same keys through the source's eyes.

    Each key's normal is twice its rank displacement.  The plain
    intercept is the squared-rank mass moved between the two rankings;
    the biased intercept adds the bias-weighted displacement.  For a
    pure swap both displayed thresholds collapse to the plain one (the
    bias correction cancels inside the biased intercept), so the
    reported band instead runs from the plain threshold to its
    bias-shifted counterpart — the intent gap at which a biased
    source's preference between the two orders actually flips.  An
    equal-bias swap therefore gets an empty band: the order cannot be
    bias-distorted.
    """
    if beta.key_set != beta_prime.key_set:
        raise ConfigurationError("rankings must range over the same keys")
    normals: dict[Key, Fraction] = {}
    intercept_plain = Fraction(0)
    displacement = Fraction(0)
    moved: list[Key] = []
    for key in beta.keys():
        first = beta.rank_of(key)
        second = beta_prime.rank_of(key)
        normals[key] = Fraction(2 * (first - second))
        intercept_plain += Fraction(first * first - second * second)
        displacement += bias(key) * (first - second)
        if first != second:
            moved.append(key)
    intercept_biased = intercept_plain + 2 * displacement
    swap_pair = None
    if len(moved) == 2:
        a, b = moved
        if beta.rank_of(a) == beta_prime.rank_of(b) and beta.rank_of(
            b
        ) == beta_prime.rank_of(a):
            swap_pair = (a, b) if beta.rank_of(a) < beta.rank_of(b) else (b, a)
    if swap_pair is None:
        return IndifferenceReport(normals, intercept_plain, intercept_biased)
    normal = normals[swap_pair[0]]
    threshold_plain = intercept_plain / normal
    bias_gap = bias(swap_pair[0]) - bias(swap_pair[1])
    threshold_biased = intercept_biased / normal - bias_gap
    shifted = threshold_plain - bias_gap
    band = (min(threshold_plain, shifted), max(threshold_plain, shifted))
    return IndifferenceReport(
        normals,
        intercept_plain,
        intercept_biased,
        swap_pair,
        threshold_plain,
        threshold_biased,
        band,
    )
