"""Posterior rank summaries over separation regions, and query reading.

When a user only reveals that one tuple precedes another by at least a
given separation, the source's posterior over the pair of true ranks is
uniform over a triangular region of the rank square.  The mean subject
and rival ranks over that region (and over its complement) have closed
forms, which this module evaluates; the test suite's oracles
cross-check them by enumeration.

On top of the region means sit the two interpretation primitives: the
grid best response of a biased source to a mean rank, and the full
reading of a weak-order query into the response the source would
actually return.

Conventions
-----------
Ranks are 1-based.  A region lives inside the full square of
(subject, rival) rank pairs, diagonal included.  The closed-form
summaries are cached; the cache is only ever read after being filled,
so concurrent readers are safe.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .core import DomainError, Key, Rank, WeakOrder, as_fraction
from .utility import UtilityContext, UtilityKind

__all__ = [
    "PosteriorSummary",
    "RegionSide",
    "best_response_rank",
    "block_expected_user_utility",
    "interpret_query",
    "region_means",
]


class RegionSide(Enum):
    """Which half of the separation split a region covers."""

    FAVORED = "favored"  # rival_rank - subject_rank >= separation
    COMPLEMENT = "complement"


class PosteriorSummary(NamedTuple):
    """Mean ranks of a uniform posterior over a region of rank pairs."""

    mean_subject_rank: Fraction
    mean_rival_rank: Fraction
    support_count: int


@lru_cache(maxsize=None)
def region_means(
    universe_size: int, separation: int, side: RegionSide
) -> PosteriorSummary:
    """Mean subject and rival ranks over a separation region.

    Evaluates the cubic closed forms (cached); ``tests/oracles.py`` sums
    over the region pair by pair to keep them honest.
    """
    z = universe_size
    d = separation
    if z < 2:
        raise DomainError("regions need a universe of size >= 2")
    if not 1 <= d <= z - 1:
        raise DomainError(f"separation {d} outside 1..{z - 1}")
    favored = (z - d) * (z - d + 1) // 2
    if side is RegionSide.FAVORED:
        return PosteriorSummary(
            Fraction(z - d + 2, 3), Fraction(2 * z + d + 1, 3), favored
        )
    count = z * z - favored
    scale = 3 * (z * z - z + d * (2 * z + 1) - d * d)
    # The complement has exactly scale / 6 pairs; anything else means the
    # closed forms drifted from the region definition.
    assert 6 * count == scale
    subject_numerator = (
        d**3 - 3 * (z + 1) * d**2 + (3 * z * z + 6 * z + 2) * d + 2 * z * (z * z - 1)
    )
    rival_numerator = -(d**3) + (3 * z * z + 3 * z + 1) * d + z**3 - z
    return PosteriorSummary(
        Fraction(subject_numerator, scale),
        Fraction(rival_numerator, scale),
        count,
    )


# --------------------------------------------------------------------------- #
# Best response and query reading
# --------------------------------------------------------------------------- #


def best_response_rank(
    mean_rank: int | float | str | Fraction,
    bias_value: int | float | str | Fraction,
    universe_size: int,
) -> Rank:
    """Rank a quadratic biased source steers a tuple of given mean toward.

    The unconstrained optimum is ``mean_rank - bias_value``, snapped to
    the rank grid: among the clamped floor and ceiling candidates it
    picks the one closest to the target, breaking ties toward the
    candidate closest to the mean (the user-favorable side) and then
    toward the smaller rank.
    """
    if universe_size < 1:
        raise DomainError("universe size must be at least 1")
    target = as_fraction(mean_rank) - as_fraction(bias_value)
    mean = as_fraction(mean_rank)

    def clamp(rank: int) -> int:
        return min(max(rank, 1), universe_size)

    candidates = {clamp(math.floor(target)), clamp(math.ceil(target))}
    return min(candidates, key=lambda a: (abs(a - target), abs(a - mean), a))


def _assigned_rank(mean: Fraction, bias: Fraction, ctx: UtilityContext) -> Rank:
    """Rank the source assigns a tuple whose posterior mean rank is known."""
    if ctx.kind_source is UtilityKind.QUADRATIC_SOURCE_BIASED:
        return best_response_rank(mean, bias, ctx.universe_size)
    coefficient = mean - bias
    if coefficient > 0:
        return ctx.universe_size
    if coefficient < 0:
        return 1
    # Indifferent source: defer to whatever the user's own utility prefers.
    if ctx.kind_user is UtilityKind.PRODUCT_USER:
        return 1
    return best_response_rank(mean, 0, ctx.universe_size)


def interpret_query(query: WeakOrder, ctx: UtilityContext) -> WeakOrder:
    """The response a biased source returns when shown a weak-order query.

    Each key's posterior mean rank is the mean of its block's positions.
    The source assigns every key its best-response rank, drops keys
    assigned past the top-k cutoff, and the survivors are returned
    grouped by assigned rank (ascending), preserving query order inside
    each group.
    """
    groups: dict[Rank, list[Key]] = {}
    position = 1
    for block in query.blocks:
        size = len(block)
        mean = Fraction(2 * position + size - 1, 2)
        for key in block:
            assigned = _assigned_rank(mean, ctx.bias(key), ctx)
            if assigned <= ctx.top_k:
                groups.setdefault(assigned, []).append(key)
        position += size
    return WeakOrder(tuple(tuple(groups[rank]) for rank in sorted(groups)))


def block_expected_user_utility(
    start: Rank,
    end: Rank,
    bias_value: int | float | str | Fraction,
    ctx: UtilityContext,
) -> Fraction:
    """Expected user utility of one tuple tied across positions start..end.

    The tuple's true rank is uniform over the block's positions; the
    source sees only the block mean and assigns its best-response rank
    (or omits the tuple when that rank falls past top-k).
    """
    if not 1 <= start <= end:
        raise DomainError(f"bad block span {start}..{end}")
    mean = Fraction(start + end, 2)
    width = end - start + 1
    variance = Fraction(width * width - 1, 12)
    assigned = _assigned_rank(mean, as_fraction(bias_value), ctx)
    response = assigned if assigned <= ctx.top_k else ctx.omitted_rank
    if ctx.kind_user is UtilityKind.QUADRATIC_USER:
        gap = mean - response
        return -(variance + gap * gap)
    return -mean * response
