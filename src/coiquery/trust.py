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
steps; two cuts there settle each key by integer comparisons, and only
a bias at or above the high one is searched.
Witnesses stay integers, so a key settled at the pivot builds no
``Fraction``.

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
``floor < bias - range_low``; if any separation of the suffix meets
that, the one with the least floor does.

The same substitution into ``S(d) S(d+1)`` minus a cross-multiplied
difference shows that ``gap`` and ``gap - shift`` each rise by less than
1 per step.  So a tie ``shift = gap`` (``z = 3, d = 1``) is never a
pivot candidate: the next separation is not yet crossed.  A tie
``gap - 1 = shift`` at ``c`` leaves ``c`` the pivot on either side of
the crossing, as both neighbours' floors are higher.  Right of the pivot
``floor(d) = gap(d) - 1 < gap(d - 1)``, which at the first ``d`` that
clears is ``<= bias - range_high < bias - range_low``: a bias searched
there always flags.  At ``d = z - 1``, ``G - H = 3 (z - 1) (z^2 - 2) >
0``, so every ``z >= 2`` has a pivot.

Conventions
-----------
All thresholds are exact :class:`fractions.Fraction` values.  Witness
intervals are half-open ``[low, high)`` and compared strictly against
the closed bias range, so grazing contact at a single point does not
flag.  A :class:`TrustReport` is a record of integer witnesses; it
renders nothing, and ``coiquery.cli`` writes its JSON text.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

from .core import DomainError, Key, WeakOrder
from .utility import UtilityContext

__all__ = [
    "GapThresholds",
    "TrustReport",
    "TrustWitness",
    "detect_trustworthy",
    "gsd_values",
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


class TrustReport(NamedTuple):
    """Partition of a returned ranking into trustworthy and flagged keys.

    ``witnesses`` maps each flagged key to its least-floor witness (the
    rightmost on ties among separations whose gap clears
    ``bias - range_high``) as integers: ``(separation, low, high,
    denominator)``.  ``flagged`` builds the reduced fractions of each on
    every read.
    """

    trustworthy: tuple[Key, ...]
    witnesses: dict[Key, _Bounds]

    @property
    def flagged(self) -> dict[Key, TrustWitness]:
        return {
            key: TrustWitness(separation, Fraction(low, den), Fraction(high, den))
            for key, (separation, low, high, den) in self.witnesses.items()
        }


def _first_where(lo: int, hi: int, holds: Callable[[int], bool]) -> int:
    """Least d in ``[lo, hi)`` where a monotone ``holds`` is true, else hi.
    Each step at least halves the range, so no comparison ends the loop; a
    step past empty may test ``holds(hi)`` and leave ``lo = hi + 1``."""
    for _ in range((hi - lo).bit_length()):
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return min(lo, hi)


def _floor_pivot(universe_size: int) -> int | None:
    """Separation of the window floor's rightmost minimum; None only at z = 1.
    Of the crossing ``c`` (feasible, floor ``gap - 1``) and ``c - 1`` (floor
    ``shift``), ``c - 1`` only when its floor is strictly less, so ties keep
    the rightmost.  An empty ``c - 1`` never wins: ``floor(c - 1) = shift(c - 1)
    >= gap(c - 1) > gap(c) - 1 = floor(c)``, as the gap rises by less than 1 per
    step.  ``gap(1) = 2/3`` for every z, so ``c >= 2``; uncrossed, ``z - 1`` is
    feasible."""
    z = universe_size

    def crossed(d: int) -> bool:  # implies feasible
        gap, shift, scale = _threshold_numerators(z, d)
        return gap - scale >= shift

    crossing = _first_where(1, z, crossed)
    if crossing == z:
        return z - 1 if z > 1 else None
    gap, _, scale = _threshold_numerators(z, crossing)
    _, shift_before, scale_before = _threshold_numerators(z, crossing - 1)
    if shift_before * scale < (gap - scale) * scale_before:
        return crossing - 1
    return crossing


def _bounds(bias: int | Fraction, universe_size: int, separation: int) -> _Bounds:
    """The window ``[bias - gap, bias - floor)`` at one separation."""
    n, d = bias.as_integer_ratio()
    gap, shift, scale = _threshold_numerators(universe_size, separation)
    floor = max(gap - scale, shift)
    return separation, n * scale - gap * d, n * scale - floor * d, d * scale


def _witness(
    bias_value: int | Fraction,
    universe_size: int,
    pivot: int,
    range_high: int | Fraction,
) -> _Bounds | None:
    """Witness for a bias at or above the high cut: the first separation
    right of the pivot whose gap clears ``bias - range_high`` (it flags)."""
    cut = bias_value - range_high

    def clears(d: int) -> bool:
        gap, _, scale = _threshold_numerators(universe_size, d)
        return gap * cut.denominator > cut.numerator * scale

    at = _first_where(pivot + 1, universe_size, clears)
    if at == universe_size:
        return None
    return _bounds(bias_value, universe_size, at)


def detect_trustworthy(beta: WeakOrder, ctx: UtilityContext) -> TrustReport:
    """Screen every key of a returned ranking against the separation windows.

    A key is flagged when some feasible separation's alternative-bias
    window ``[bias - gap, bias - max(gap - 1, shift))`` intersects the
    configured bias range strictly, which holds exactly when
    ``gap > bias - range_high`` and the floor is below
    ``bias - range_low``.  Each flagged key reports one witness: among
    the separations whose gap clears ``bias - range_high``, the one with
    the least window floor, the rightmost on ties.  Each bias is compared
    with two cuts from the pivot: at or below ``range_low + floor``
    it is trustworthy, below ``range_high + gap`` the pivot is its witness,
    and otherwise (a default above the range) it binary-searches past the
    pivot, once per request.  The cuts are unreduced integer ratios over
    the pivot's scale: an ``int`` meets them as two integer thresholds, a
    ``Fraction`` cross-multiplied.  Witnesses stay integers (see
    ``TrustReport``).
    """
    range_low, range_high = ctx.bias.lower, ctx.bias.upper
    assert range_low is not None and range_high is not None  # BiasFunction derives bounds
    z = ctx.universe_size
    at = _floor_pivot(z)
    if at is None or range_low >= range_high:
        return TrustReport(beta.keys(), {})
    gap, shift, scale = _threshold_numerators(z, at)  # ``_bounds``'s terms, once
    floor = max(gap - scale, shift)
    rl_n, rl_d = range_low.as_integer_ratio()
    rh_n, rh_d = range_high.as_integer_ratio()
    low_n, low_d = rl_n * scale + floor * rl_d, rl_d * scale
    high_n, high_d = rh_n * scale + gap * rh_d, rh_d * scale
    # The greatest ints n <= low_n / low_d and n < high_n / high_d.
    low_int, high_int = low_n // low_d, (high_n - 1) // high_d
    lookup, default = ctx.bias.entries.get, ctx.bias.default
    trustworthy: list[Key] = []
    flagged: dict[Key, _Bounds] = {}
    # Entries lie in the range, so only the default gets past the pivot.
    beyond = cache(lambda value: _witness(value, z, at, range_high))
    for key in beta.keys():
        bias_value = lookup(key, default)
        if type(bias_value) is int:
            if bias_value <= low_int:
                witness: _Bounds | None = None
            elif bias_value <= high_int:
                n_scale = bias_value * scale
                witness = (at, n_scale - gap, n_scale - floor, scale)
            else:
                witness = beyond(bias_value)
        else:
            n, d = bias_value.as_integer_ratio()
            if n * low_d <= low_n * d:
                witness = None
            elif n * high_d < high_n * d:
                witness = (at, n * scale - gap * d, n * scale - floor * d, d * scale)
            else:
                witness = beyond(bias_value)
        if witness is None:
            trustworthy.append(key)
        else:
            flagged[key] = witness
    return TrustReport(tuple(trustworthy), flagged)
