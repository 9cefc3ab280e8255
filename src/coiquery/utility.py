"""Per-tuple utilities, the shared analysis context, and saturation.

The package models a user querying a data source whose preferences are
shifted by a per-tuple bias.  Four per-tuple utility shapes cover both
sides of that interaction:

* ``QUADRATIC_USER``          −(r_intent − r_response)²
* ``QUADRATIC_SOURCE_BIASED`` −(r_intent − (r_response + bias))²
* ``PRODUCT_USER``            −r_intent · r_response
* ``PRODUCT_SOURCE_BIASED``   (r_intent − bias) · r_response

The quadratic source utility is maximized by placing a tuple at its
intent rank shifted *down* by the bias (best response r_intent − bias).
The product source utility is a demotion-style rule: a positive
coefficient (r_intent − bias > 0) pushes the tuple to the bottom rank,
a negative one promotes it to the top.

``saturation_check`` classifies whether the bias is so large that the
source's grid best response cannot depend on the intent at all, in
which case no query can extract information.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .core import (
    BiasFunction,
    ConfigurationError,
    Key,
    Rank,
    as_fraction,
)

__all__ = [
    "SaturationOutcome",
    "UtilityContext",
    "UtilityKind",
    "per_tuple_utility",
    "saturation_check",
]


class UtilityKind(Enum):
    """The four supported per-tuple utility shapes."""

    QUADRATIC_USER = "quadratic_user"
    QUADRATIC_SOURCE_BIASED = "quadratic_source_biased"
    PRODUCT_USER = "product_user"
    PRODUCT_SOURCE_BIASED = "product_source_biased"


_USER_KINDS = frozenset({UtilityKind.QUADRATIC_USER, UtilityKind.PRODUCT_USER})
_SOURCE_KINDS = frozenset(
    {UtilityKind.QUADRATIC_SOURCE_BIASED, UtilityKind.PRODUCT_SOURCE_BIASED}
)


@dataclass(frozen=True, eq=False)
class UtilityContext:
    """Shared analysis settings: universe size, top-k cutoff, bias, kinds.

    ``universe_size`` is the number of rank positions under discussion;
    ``top_k`` is how many positions the source actually returns; tuples
    pushed past ``top_k`` take ``omitted_rank`` (default: one past the
    universe).
    """

    universe_size: int
    top_k: int
    bias: BiasFunction
    omitted_rank: Rank | None = None
    kind_user: UtilityKind = UtilityKind.QUADRATIC_USER
    kind_source: UtilityKind = UtilityKind.QUADRATIC_SOURCE_BIASED

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise ConfigurationError("universe size must be at least 1")
        if not 1 <= self.top_k <= self.universe_size:
            raise ConfigurationError(
                f"top-k cutoff {self.top_k} outside 1..{self.universe_size}"
            )
        if self.omitted_rank is None:
            object.__setattr__(self, "omitted_rank", self.universe_size + 1)
        if self.omitted_rank <= self.universe_size:
            raise ConfigurationError(
                "omitted rank must exceed the universe size "
                f"({self.omitted_rank} <= {self.universe_size})"
            )
        if self.kind_user not in _USER_KINDS:
            raise ConfigurationError(f"{self.kind_user} is not a user utility")
        if self.kind_source not in _SOURCE_KINDS:
            raise ConfigurationError(f"{self.kind_source} is not a source utility")


def per_tuple_utility(
    kind: UtilityKind,
    intent_rank: Rank,
    response_rank: Rank,
    bias_value: int | float | str | Fraction = 0,
) -> Fraction:
    """Utility one tuple contributes given its intent and response ranks."""
    if intent_rank < 1 or response_rank < 1:
        raise ConfigurationError("ranks are 1-based")
    bias = as_fraction(bias_value)
    if kind is UtilityKind.QUADRATIC_USER:
        return -Fraction((intent_rank - response_rank) ** 2)
    if kind is UtilityKind.QUADRATIC_SOURCE_BIASED:
        gap = Fraction(intent_rank) - (Fraction(response_rank) + bias)
        return -(gap * gap)
    if kind is UtilityKind.PRODUCT_USER:
        return -Fraction(intent_rank * response_rank)
    if kind is UtilityKind.PRODUCT_SOURCE_BIASED:
        return (Fraction(intent_rank) - bias) * response_rank
    raise ConfigurationError(f"unknown utility kind: {kind!r}")


# --------------------------------------------------------------------------- #
# Saturation
# --------------------------------------------------------------------------- #


class SaturationOutcome(Enum):
    """Why (or whether) the interaction can still transmit information."""

    NON_INFLUENTIAL_BY_COROLLARY = "NonInfluentialByCorollary"
    NON_INFLUENTIAL_BY_CONVEX_SATURATION = "NonInfluentialByConvexSaturation"
    SYMMETRIC_BIAS_INFLUENTIAL = "SymmetricBiasInfluential"
    INCONCLUSIVE = "Inconclusive"


def _grid_argmin_set(
    ctx: UtilityContext, intent_rank: Rank, bias: Fraction
) -> frozenset[Rank]:
    """Response ranks maximizing the source utility for one intent rank."""
    best: Fraction | None = None
    argmin: set[Rank] = set()
    for response in range(1, ctx.universe_size + 1):
        value = per_tuple_utility(ctx.kind_source, intent_rank, response, bias)
        if best is None or value > best:
            best = value
            argmin = {response}
        elif value == best:
            argmin.add(response)
    return frozenset(argmin)


def saturation_check(
    ctx: UtilityContext, keys: Sequence[Key] | None = None
) -> SaturationOutcome:
    """Classify whether the bias already pins the source's behavior.

    Checks, in order of precedence:

    1. every |bias| ≥ top_k − 3/2 — saturated outright;
    2. for every distinct bias value, the grid argmax sets of the source
       utility share a common response across all intent ranks — the
       source can answer identically no matter the intent (convex
       saturation);
    3. all bias values equal — symmetric bias still admits influence;
    4. otherwise inconclusive.

    ``keys`` restricts the bias values considered; by default the stored
    entries (or the default value, when nothing is stored) are used.
    """
    values = sorted(ctx.bias.distinct_values(keys))
    threshold = Fraction(2 * ctx.top_k - 3, 2)
    if all(abs(v) >= threshold for v in values):
        return SaturationOutcome.NON_INFLUENTIAL_BY_COROLLARY
    saturated = True
    for value in values:
        common: frozenset[Rank] | None = None
        for intent_rank in range(1, ctx.universe_size + 1):
            argmin = _grid_argmin_set(ctx, intent_rank, value)
            common = argmin if common is None else common & argmin
            if not common:
                saturated = False
                break
        if not saturated:
            break
    if saturated:
        return SaturationOutcome.NON_INFLUENTIAL_BY_CONVEX_SATURATION
    if len(values) == 1:
        return SaturationOutcome.SYMMETRIC_BIAS_INFLUENTIAL
    return SaturationOutcome.INCONCLUSIVE
