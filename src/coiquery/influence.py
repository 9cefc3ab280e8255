"""Constructing relative-rank queries that offset a known bias.

A pair of keys with bias gap ``Δb`` can be protected by asking for a
minimum rank separation: the smallest separation whose gap threshold
covers ``Δb`` (strictly above ``gap - 1``, at most ``gap``).  This
module solves that separation, assembles the per-pair constraints into
a conjunctive query guaranteed to hold on the intent, classifies the
query's ranking set (empty, singleton, multiple), and picks the
canonical base ranking used by the merge optimizer.

Conventions
-----------
A constraint ``(subject, rival, min_gap)`` means
``rank(rival) - rank(subject) >= min_gap``; min_gap may be zero or
negative after complementing.  Rankings satisfying a query are total
orders over the query's universe, and "lexicographically smallest"
is always relative to the universe's key order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .core import (
    BiasFunction,
    ConfigurationError,
    DomainError,
    InfeasibleQueryError,
    Key,
    WeakOrder,
    as_fraction,
)
from .trust import _threshold_numerators

__all__ = [
    "DeltaQuery",
    "RankingSetKind",
    "RankingSetSummary",
    "RelativeRankConstraint",
    "base_query",
    "build_delta_query",
    "classify_ranking_set",
    "complement_constraint",
    "delta_star",
    "delta_star_for_gap",
    "delta_star_solutions",
    "order_by_case_sketch",
]

logger = logging.getLogger(__name__)


# --------------------------------------------------------------------------- #
# Separation solving
# --------------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def _gap_kernel(universe_size: int) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """Gap-threshold numerators and scales per separation, plus monotonicity."""
    numerators: list[int] = []
    scales: list[int] = []
    for separation in range(1, universe_size):
        gap, _, scale = _threshold_numerators(universe_size, separation)
        numerators.append(gap)
        scales.append(scale)
    monotone = all(
        numerators[i - 1] * scales[i] < numerators[i] * scales[i - 1]
        for i in range(1, len(numerators))
    )
    return tuple(numerators), tuple(scales), monotone


def delta_star_for_gap(
    gap: int | float | str | Fraction,
    universe_size: int,
    strategy: str = "binary",
) -> int | None:
    """Smallest separation whose threshold covers a given bias gap.

    Solves ``gap_threshold(separation) - 1 < gap <= gap_threshold``
    over separations ``1..universe_size - 1``; returns None when no
    separation qualifies.  The binary strategy requires the gap
    thresholds to be monotone (prechecked once per universe size and
    cached) and falls back to the linear scan otherwise.  The covering
    condition routinely holds for a run of consecutive separations;
    multiplicity is logged at DEBUG level and the full set is
    available from :func:`delta_star_solutions`.
    """
    if universe_size < 2:
        raise DomainError("separation solving needs a universe of size >= 2")
    if strategy not in ("linear", "binary"):
        raise ConfigurationError(f"unknown solving strategy: {strategy!r}")
    value = as_fraction(gap)
    numerators, scales, monotone = _gap_kernel(universe_size)
    qn, qd = value.numerator, value.denominator
    if strategy == "binary" and not monotone:
        logger.warning(
            "gap thresholds not monotone at universe size %d; using linear scan",
            universe_size,
        )
        strategy = "linear"
    if strategy == "binary":
        # First separation with threshold >= gap, then first with
        # threshold >= gap + 1; the solutions are exactly the indices
        # in between, so the width doubles as the multiplicity count.
        first = _least_at_or_above(numerators, scales, qn, qd)
        beyond = _least_at_or_above(numerators, scales, qn + qd, qd)
        if first >= beyond:
            return None
        if beyond - first > 1:
            logger.debug(
                "%d separations cover bias gap %s at universe size %d; "
                "returning the smallest",
                beyond - first,
                value,
                universe_size,
            )
        return first + 1
    solution: int | None = None
    hits = 0
    for i in range(len(numerators)):
        scale = scales[i]
        if (numerators[i] - scale) * qd < qn * scale <= numerators[i] * qd:
            hits += 1
            if solution is None:
                solution = i + 1
    if hits > 1:
        logger.debug(
            "%d separations cover bias gap %s at universe size %d; "
            "returning the smallest",
            hits,
            value,
            universe_size,
        )
    return solution


def _least_at_or_above(
    numerators: tuple[int, ...], scales: tuple[int, ...], qn: int, qd: int
) -> int:
    """First index whose threshold is >= qn/qd, assuming monotone thresholds."""
    lo, hi = 0, len(numerators)
    while lo < hi:
        mid = (lo + hi) // 2
        if numerators[mid] * qd >= qn * scales[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def delta_star_solutions(
    subject: Key,
    rival: Key,
    bias: BiasFunction,
    universe_size: int,
) -> tuple[int, ...]:
    """Every separation covering the pair's bias gap, ascending."""
    if universe_size < 2:
        raise DomainError("separation solving needs a universe of size >= 2")
    value = bias(subject) - bias(rival)
    numerators, scales, _ = _gap_kernel(universe_size)
    qn, qd = value.numerator, value.denominator
    return tuple(
        i + 1
        for i in range(len(numerators))
        if (numerators[i] - scales[i]) * qd < qn * scales[i] <= numerators[i] * qd
    )


def delta_star(
    subject: Key,
    rival: Key,
    bias: BiasFunction,
    universe_size: int,
    strategy: str = "binary",
) -> int | None:
    """Separation protecting subject against rival's bias advantage."""
    return delta_star_for_gap(
        bias(subject) - bias(rival), universe_size, strategy
    )


# --------------------------------------------------------------------------- #
# Constraint queries
# --------------------------------------------------------------------------- #


class RelativeRankConstraint(NamedTuple):
    """Requires ``rank(rival) - rank(subject) >= min_gap``."""

    subject: Key
    rival: Key
    min_gap: int

    def satisfied_by(self, order: WeakOrder) -> bool:
        return (
            order.rank_of(self.rival) - order.rank_of(self.subject) >= self.min_gap
        )

    def as_jsonable(self) -> dict:
        return {"e": self.subject, "eprime": self.rival, "delta": self.min_gap}


def complement_constraint(
    constraint: RelativeRankConstraint,
) -> RelativeRankConstraint:
    """Negation of a constraint on integer ranks, as a constraint again.

    ``not (rank(rival) - rank(subject) >= g)`` is
    ``rank(subject) - rank(rival) >= 1 - g`` because ranks are
    integers; complementing twice gives back an equivalent constraint.
    """
    return RelativeRankConstraint(
        constraint.rival, constraint.subject, 1 - constraint.min_gap
    )


@dataclass(frozen=True, eq=False)
class DeltaQuery:
    """A conjunction of relative-rank constraints over a key universe."""

    constraints: tuple[RelativeRankConstraint, ...]
    universe: tuple[Key, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "universe", tuple(self.universe))
        if not self.universe:
            raise ConfigurationError("query universe is empty")
        known = set(self.universe)
        if len(known) != len(self.universe):
            raise ConfigurationError("query universe has duplicate keys")
        seen: set[tuple[Key, Key]] = set()
        for constraint in self.constraints:
            if constraint.subject == constraint.rival:
                raise ConfigurationError(
                    f"constraint relates {constraint.subject!r} to itself"
                )
            if constraint.subject not in known or constraint.rival not in known:
                raise ConfigurationError(
                    f"constraint {constraint} references keys outside the universe"
                )
            pair = (constraint.subject, constraint.rival)
            if pair in seen:
                raise ConfigurationError(
                    f"duplicate constraint for pair {pair!r}"
                )
            seen.add(pair)

    def satisfied_by(self, order: WeakOrder) -> bool:
        return all(c.satisfied_by(order) for c in self.constraints)

    def as_jsonable(self) -> dict:
        return {"constraints": [c.as_jsonable() for c in self.constraints]}

    @classmethod
    def from_jsonable(cls, data: dict, universe: Sequence[Key]) -> DeltaQuery:
        if not isinstance(data, dict) or "constraints" not in data:
            raise ConfigurationError("query document needs a 'constraints' list")
        constraints = []
        for item in data["constraints"]:
            try:
                constraints.append(
                    RelativeRankConstraint(
                        str(item["e"]), str(item["eprime"]), int(item["delta"])
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad constraint entry: {item!r}") from exc
        return cls(tuple(constraints), tuple(universe))


def build_delta_query(
    intent: WeakOrder, bias: BiasFunction, universe_size: int
) -> DeltaQuery:
    """Constraint query protecting every strictly ordered pair of an intent.

    Pairs are visited in intent order (by rank of the earlier key, then
    of the later).  For each pair with a solvable separation the
    forward constraint is added when the intent already satisfies it,
    otherwise its complement — so the result always holds on the
    intent.  Tied pairs contribute nothing.
    """
    keys = list(intent.keys())
    constraints: list[RelativeRankConstraint] = []
    for i, subject in enumerate(keys):
        for rival in keys[i + 1 :]:
            if intent.rank_of(subject) == intent.rank_of(rival):
                continue
            separation = delta_star(subject, rival, bias, universe_size)
            if separation is None:
                continue
            forward = RelativeRankConstraint(subject, rival, separation)
            constraints.append(
                forward
                if forward.satisfied_by(intent)
                else complement_constraint(forward)
            )
    query = DeltaQuery(tuple(constraints), tuple(keys))
    assert query.satisfied_by(intent)
    return query


# --------------------------------------------------------------------------- #
# Ranking-set semantics
# --------------------------------------------------------------------------- #


class RankingSetKind(Enum):
    EMPTY = "Empty"
    SINGLETON = "Singleton"
    MULTIPLE = "Multiple"
    UNKNOWN = "Unknown"


class RankingSetSummary(NamedTuple):
    """Classification of a query's set of satisfying total orders.

    ``count`` is exact when known (small universes below the solution
    cap); ``lower_bound`` is always a valid lower bound.
    """

    kind: RankingSetKind
    count: int | None
    lower_bound: int


def _position_windows(query: DeltaQuery) -> dict[Key, tuple[int, int]] | None:
    """Earliest/latest admissible position per key, or None if infeasible.

    Longest-path relaxation over the constraint graph; a positive-gap
    cycle never converges and proves infeasibility directly.
    """
    size = len(query.universe)
    earliest = {key: 1 for key in query.universe}
    latest = {key: size for key in query.universe}
    for _ in range(size + 1):
        changed = False
        for constraint in query.constraints:
            subject, rival, gap = constraint
            if earliest[subject] + gap > earliest[rival]:
                earliest[rival] = earliest[subject] + gap
                changed = True
            if latest[rival] - gap < latest[subject]:
                latest[subject] = latest[rival] - gap
                changed = True
        if not changed:
            break
    else:
        return None  # positive cycle
    for key in query.universe:
        if earliest[key] > latest[key]:
            return None
    return {key: (earliest[key], latest[key]) for key in query.universe}


class _SearchBudgetExceeded(Exception):
    """Internal signal: the bounded probe ran out of nodes."""


def _key_order_token(key: Key) -> tuple[int, object, str]:
    """Sort token putting ``e<number>`` keys in index order, then labels."""
    if key.startswith("e") and key[1:].isdigit():
        return (0, int(key[1:]), key)
    return (1, key, key)


def _iter_satisfying(
    query: DeltaQuery, node_budget: int | None = None
) -> Iterator[tuple[Key, ...]]:
    """Satisfying total orders, lexicographically by key index."""
    windows = _position_windows(query)
    if windows is None:
        return
    ordering = sorted(query.universe, key=_key_order_token)
    budget = [node_budget] if node_budget is not None else None
    size = len(query.universe)
    as_subject: dict[Key, list[tuple[Key, int]]] = {k: [] for k in query.universe}
    as_rival: dict[Key, list[tuple[Key, int]]] = {k: [] for k in query.universe}
    for constraint in query.constraints:
        as_subject[constraint.subject].append((constraint.rival, constraint.min_gap))
        as_rival[constraint.rival].append((constraint.subject, constraint.min_gap))
    placed: dict[Key, int] = {}
    chosen: list[Key] = []

    def admissible(key: Key, position: int) -> bool:
        low, high = windows[key]
        if not low <= position <= high:
            return False
        for rival, gap in as_subject[key]:
            at = placed.get(rival)
            if at is not None:
                if at - position < gap:
                    return False
            elif size - position < gap:  # rival cannot sit far enough below
                return False
        for subject, gap in as_rival[key]:
            at = placed.get(subject)
            if at is not None:
                if position - at < gap:
                    return False
            elif gap >= 0:  # subject would land below, breaking the gap
                return False
        return True

    def extend(position: int) -> Iterator[tuple[Key, ...]]:
        if position > size:
            yield tuple(chosen)
            return
        for key in ordering:
            if budget is not None:
                if budget[0] <= 0:
                    raise _SearchBudgetExceeded
                budget[0] -= 1
            if key in placed or not admissible(key, position):
                continue
            placed[key] = position
            chosen.append(key)
            yield from extend(position + 1)
            chosen.pop()
            del placed[key]

    yield from extend(1)


#: Exact counting stops here and reports a lower bound instead; keeps
#: weakly constrained twelve-key universes from enumerating 12!.
_COUNT_CAP = 100_000
_PROBE_NODE_BUDGET = 200_000


def classify_ranking_set(
    query: DeltaQuery, enumeration_limit: int = 12
) -> RankingSetSummary:
    """Decide whether a query admits zero, one, or many total orders.

    Universes within ``enumeration_limit`` are enumerated exactly (the
    count saturates at a cap, still proving Multiple); larger universes
    get a bounded probe that can prove Empty/Singleton/Multiple or give
    up with Unknown.
    """
    if enumeration_limit < 1:
        raise ConfigurationError("enumeration limit must be at least 1")
    exact = len(query.universe) <= enumeration_limit
    cap = _COUNT_CAP if exact else 2
    count = 0
    complete = True
    try:
        for _ in _iter_satisfying(
            query, node_budget=None if exact else _PROBE_NODE_BUDGET
        ):
            count += 1
            if count >= cap:
                complete = False
                break
    except _SearchBudgetExceeded:
        complete = False
    if count == 0:
        if complete:
            return RankingSetSummary(RankingSetKind.EMPTY, 0, 0)
        return RankingSetSummary(RankingSetKind.UNKNOWN, None, 0)
    if count == 1:
        if complete:
            return RankingSetSummary(RankingSetKind.SINGLETON, 1, 1)
        return RankingSetSummary(RankingSetKind.UNKNOWN, None, 1)
    return RankingSetSummary(
        RankingSetKind.MULTIPLE, count if complete else None, count
    )


def base_query(query: DeltaQuery) -> WeakOrder:
    """Canonical ranking consistent with a query: the lexicographic minimum.

    Greedy backtracking in key-index order; the first completed order
    is the lexicographically smallest satisfying one.
    """
    for solution in _iter_satisfying(query):
        return WeakOrder.total(solution)
    raise InfeasibleQueryError("query admits no ranking; no base exists")


def order_by_case_sketch(query: DeltaQuery, base: WeakOrder) -> str:
    """Human-readable rendering of a base ranking and its constraints.

    Presentation only — reports embed this string, nothing parses it.
    """
    lines = ["ORDER BY CASE key"]
    for key in base.keys():
        lines.append(f"  WHEN '{key}' THEN {base.rank_of(key)}")
    lines.append("END")
    for constraint in query.constraints:
        lines.append(
            f"-- requires r({constraint.rival}) - r({constraint.subject})"
            f" >= {constraint.min_gap}"
        )
    return "\n".join(lines)
