"""Per-tuple utility kinds, the shared analysis context, and saturation.

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
source's best response on the rank grid cannot depend on the intent at
all, in which case no query can extract information.  It costs O(1)
per distinct bias value, whatever the universe size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .core import BiasFunction, ConfigurationError, Key, Rank

__all__ = [
    "SaturationOutcome",
    "UtilityContext",
    "UtilityKind",
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


# --------------------------------------------------------------------------- #
# Saturation
# --------------------------------------------------------------------------- #


class SaturationOutcome(Enum):
    """Why (or whether) the interaction can still transmit information."""

    NON_INFLUENTIAL_BY_COROLLARY = "NonInfluentialByCorollary"
    NON_INFLUENTIAL_BY_CONVEX_SATURATION = "NonInfluentialByConvexSaturation"
    SYMMETRIC_BIAS_INFLUENTIAL = "SymmetricBiasInfluential"
    INCONCLUSIVE = "Inconclusive"


def _has_common_response(kind: UtilityKind, z: int, bias: int | Fraction) -> bool:
    """Whether one response maximizes the source utility at every intent rank.

    With ``z`` the universe size, the quadratic source's best responses
    at intent rank ``t`` are the ranks in ``1..z`` nearest ``t - bias``.
    Over ``t = 1..z`` they share rank 1 exactly when ``z - bias <= 3/2``
    (at ``3/2`` both 1 and 2 are nearest) and rank z exactly when
    ``1 - bias >= z - 1/2``; otherwise two intent ranks are answered
    apart.  The product source pushes a tuple to rank z when
    ``t > bias``, to rank 1 when ``t < bias``, and is indifferent at
    ``t == bias``, so a common response needs every ``t >= bias`` or
    every ``t <= bias``.  Either test is O(1).
    """
    if kind is UtilityKind.PRODUCT_SOURCE_BIASED:
        return bias <= 1 or bias >= z
    return abs(bias) >= z - Fraction(3, 2)


def saturation_check(
    ctx: UtilityContext, keys: Sequence[Key] | None = None
) -> SaturationOutcome:
    """Classify whether the bias already pins the source's behavior.

    Checks, in order of precedence:

    1. every |bias| ≥ top_k − 3/2 — saturated outright;
    2. for every distinct bias value, one response rank maximizes the
       source utility at every intent rank — the source can answer
       identically no matter the intent (convex saturation), decided in
       closed form per value;
    3. all bias values equal — symmetric bias still admits influence;
    4. otherwise inconclusive.

    ``keys`` restricts the bias values considered; by default the stored
    entries (or the default value, when nothing is stored) are used.
    """
    values = ctx.bias.distinct_values(keys)
    threshold = Fraction(2 * ctx.top_k - 3, 2)
    if all(abs(v) >= threshold for v in values):
        return SaturationOutcome.NON_INFLUENTIAL_BY_COROLLARY
    z, kind = ctx.universe_size, ctx.kind_source
    if all(_has_common_response(kind, z, v) for v in values):
        return SaturationOutcome.NON_INFLUENTIAL_BY_CONVEX_SATURATION
    if len(values) == 1:
        return SaturationOutcome.SYMMETRIC_BIAS_INFLUENTIAL
    return SaturationOutcome.INCONCLUSIVE
