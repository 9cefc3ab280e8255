"""Constructing relative-rank queries that offset a known bias.

A pair of keys with bias gap ``Δb`` can be protected by asking for a
minimum rank separation: the smallest separation whose gap threshold
covers ``Δb`` (strictly above ``gap - 1``, at most ``gap``).  This
module solves that separation, assembles the per-pair constraints into
a conjunctive query guaranteed to hold on the intent, classifies the
query's ranking set (empty, singleton, multiple), and picks the
canonical base ranking used by the merge optimizer.

The query lists every complement but only the transitive reduction of
the forward constraints: none of those the other forward constraints
imply, a set that is unique and admits the same orders as the full
pairwise list, found in O(m² + kept·m) for m keys.

One propagating search under one node budget answers the last two:
the base is the first order the classification finds.  When the
budget runs out first, :func:`base_query` raises
:class:`SearchBudgetError` rather than return another ranking.

The separation is solved in closed form: the gap threshold strictly
increases in the separation (proven in :mod:`coiquery.trust`), so the
least covering separation never decreases as the gap grows:
:func:`build_delta_query` solves its distinct integer gaps in one
ascending sweep that gallops from answer to answer over a per-call
memo of threshold evaluations, with no per-universe table.

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
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from typing import Iterable, Iterator, NamedTuple

from .core import (
    BiasFunction,
    ConfigurationError,
    DomainError,
    InfeasibleQueryError,
    Key,
    SearchBudgetError,
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
    "delta_star_for_gap",
    "order_by_case_sketch",
]

logger = logging.getLogger(__name__)


# --------------------------------------------------------------------------- #
# Separation solving
# --------------------------------------------------------------------------- #


def _least_reaching(
    universe_size: int, targets: list[int], denominator: int, evaluated: dict
) -> list[int]:
    """Least separation whose gap threshold reaches each ascending target.

    Targets are numerators over ``denominator``; ``universe_size`` means
    none in ``1..universe_size - 1`` does.  The threshold strictly
    increases in the separation (see :mod:`coiquery.trust`), so answers
    never decrease: each search gallops up from the previous answer
    (probes 0, 1, 3, 7, ... past it), then bisects the last step.
    ``evaluated`` memoizes ``_threshold_numerators`` by separation.
    """
    def reaches(separation: int, target: int) -> bool:
        if separation not in evaluated:
            evaluated[separation] = _threshold_numerators(universe_size, separation)
        gap, _, scale = evaluated[separation]
        return gap * denominator >= target * scale

    answers = []
    lo = 1
    for target in targets:
        hi, step = lo, 1
        while hi < universe_size and not reaches(hi, target):
            lo, hi, step = hi + 1, hi + step, 2 * step
        hi = min(hi, universe_size)  # reaches the target, or is past 1..z-1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if reaches(mid, target) else (mid + 1, hi)
        answers.append(lo)
    return answers


def _smallest_coverings(
    universe_size: int, gaps: Iterable[int], denominator: int
) -> dict[int, int | None]:
    """Least covering separation of each gap numerator, None if none covers.

    A separation covers ``x`` when ``threshold - 1 < x <= threshold``:
    the least one reaching ``x`` if its threshold is below ``x + 1``.
    Only at DEBUG does a second sweep reach each ``x + 1``, ending the
    covering run, to log runs of more than one separation.
    """
    gaps = sorted(set(gaps))
    if gaps and universe_size < 2:
        raise DomainError("separation solving needs a universe of size >= 2")
    evaluated: dict[int, tuple[int, int, int]] = {}
    least = _least_reaching(universe_size, gaps, denominator, evaluated)
    if logger.isEnabledFor(logging.DEBUG):
        ends = [gap + denominator for gap in gaps]
        ends = _least_reaching(universe_size, ends, denominator, evaluated)
        for gap, first, end in zip(gaps, least, ends):
            if end - first > 1:
                logger.debug(
                    "%d separations cover bias gap %s at universe size %d; "
                    "returning the smallest",
                    end - first, Fraction(gap, denominator), universe_size,
                )
    solved: dict[int, int | None] = dict.fromkeys(gaps)
    for gap, first in zip(gaps, least):
        if first < universe_size:
            threshold, _, scale = evaluated[first]
            if threshold * denominator < (gap + denominator) * scale:
                solved[gap] = first
    return solved


def delta_star_for_gap(
    gap: int | float | str | Fraction, universe_size: int
) -> int | None:
    """Smallest separation whose threshold covers a given bias gap.

    Solves ``gap_threshold(separation) - 1 < gap <= gap_threshold``
    over separations ``1..universe_size - 1``; returns None when no
    separation qualifies: the one-gap case of :func:`build_delta_query`'s
    sweep, O(log z) evaluations and memory at any universe size.  The
    covering condition routinely holds for a run of consecutive
    separations; multiplicity is logged at DEBUG level.
    """
    numerator, denominator = as_fraction(gap).as_integer_ratio()
    return _smallest_coverings(universe_size, [numerator], denominator)[numerator]


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


class DeltaQuery(NamedTuple):
    """A conjunction of relative-rank constraints over a key universe."""

    constraints: tuple[RelativeRankConstraint, ...]
    universe: tuple[Key, ...]

    def satisfied_by(self, order: WeakOrder) -> bool:
        return all(c.satisfied_by(order) for c in self.constraints)


def build_delta_query(
    intent: WeakOrder, bias: BiasFunction, universe_size: int
) -> DeltaQuery:
    """Constraint query protecting every strictly ordered pair of an intent.

    A pair with a solvable separation gets its forward constraint when
    the intent already satisfies it, otherwise its complement, so the
    result always holds on the intent; tied pairs get nothing.  Every
    complement is listed, in pair order (by rank of the earlier key,
    then of the later), and so is each forward constraint unless a path
    at least as long through the other forward ones implies it: their
    transitive reduction (CLRS §24.4; Aho, Garey and Ullman 1972), unique
    as they form a DAG with gaps >= 1, and admitting the same orders.

    Each key's rank and bias are read once, and the biases are put over
    their common denominator, so a pair's gap is an integer numerator.
    The distinct numerators are solved in one ascending sweep, each
    search galloping up from the previous answer: O(m²) integer work
    plus O(g + log z) evaluations for g distinct gaps when their answers
    are close, O(g log z) at most.  Subjects then go last to first, each
    testing its rivals in intent order against one row of longest paths
    over its kept out-edges: O(m² + kept·m), building only what is kept.
    """
    keys = intent.keys()
    if not keys:
        raise ConfigurationError("query universe is empty")
    ranks = [intent.rank_of(key) for key in keys]
    biases = [bias(key) for key in keys]
    denominator = lcm(*(value.denominator for value in biases))
    numerators = [
        value.numerator * (denominator // value.denominator) for value in biases
    ]
    # Ranks never decrease along ``keys``: key i's untied rivals are a suffix.
    starts = [bisect_right(ranks, rank) for rank in ranks]
    gaps: set[int] = set()
    for numerator, start in zip(numerators, starts):
        gaps.update(map(numerator.__sub__, numerators[start:]))
    solved = _smallest_coverings(universe_size, gaps, denominator)
    # rows[i][j - starts[i]]: the longest forward path from key i to key j.
    # The ranks satisfy every forward constraint, so no path is longer
    # than m - 1, and a path extending ``unreached`` stays below 1.
    size = len(keys)
    unreached = -size
    rows: list[list[int]] = [[]] * size
    blocks: list[list[RelativeRankConstraint]] = []
    for i in reversed(range(size)):
        subject, rank, numerator, start = keys[i], ranks[i], numerators[i], starts[i]
        row = [unreached] * (size - start)
        kept = []
        for j in range(start, size):
            separation = solved[numerator - numerators[j]]
            if separation is None:
                continue
            if ranks[j] - rank < separation:
                kept.append(RelativeRankConstraint(keys[j], subject, 1 - separation))
            elif row[j - start] < separation:  # no other forward path implies it
                kept.append(RelativeRankConstraint(subject, keys[j], separation))
                row[j - start] = separation
                offset = starts[j] - start
                row[offset:] = map(
                    max, row[offset:], map(separation.__add__, rows[j])
                )
        rows[i] = row
        blocks.append(kept)
    constraints = [constraint for kept in reversed(blocks) for constraint in kept]
    rank_by_key = dict(zip(keys, ranks))
    assert all(rank_by_key[r] - rank_by_key[s] >= g for s, r, g in constraints)
    return DeltaQuery(tuple(constraints), keys)


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
    cap); ``lower_bound`` is always a valid lower bound.  ``reason``
    says why ``count`` is unknown (``"count_cap"``: the search stopped
    at its cap, two for a probe; ``"node_budget"``), ``nodes`` how many
    search nodes were used (the budget, when it ran out) and ``base``
    the first order found, the canonical base ranking, or None.
    """

    kind: RankingSetKind
    count: int | None
    lower_bound: int
    reason: str | None = None
    nodes: int = 0
    base: WeakOrder | None = None

    def require_base(self) -> WeakOrder:
        """The base ranking, or the error saying why there is none."""
        if self.base is not None:
            return self.base
        if self.reason == "node_budget":
            raise SearchBudgetError(
                f"ranking search used its node budget of {self.nodes:,} placements"
            )
        raise InfeasibleQueryError("query admits no ranking; no base exists")


def _key_order_token(key: Key) -> tuple[int, object, str]:
    """Sort token putting ``e<number>`` keys in index order, then labels."""
    if key.startswith("e") and key[1:].isdigit():
        return (0, int(key[1:]), key)
    return (1, key, key)


#: Nodes one search may visit, shared by :func:`base_query` and
#: :func:`classify_ranking_set`.  A node is a key tried at the position
#: equal to its earliest one, counted even if propagation rejects it.
#: At 64 keys 10,000 nodes take about 0.1-0.25 s; δ-queries built from
#: intents of up to 96 keys need a few hundred.
_SEARCH_NODE_BUDGET = 10_000

#: Exact counting stops here and reports a lower bound instead; an
#: unconstrained universe reaches it in about 5,400 nodes.
_COUNT_CAP = 2_000

#: Universes of at most this many keys are counted exactly (up to
#: ``_COUNT_CAP``); larger ones are probed up to a second order.
_ENUMERATION_LIMIT = 12


def _settle(
    after: list, before: list, lo: list, hi: list, rising: list, falling: list
) -> int | None:
    """Windows moved relaxing to the fixpoint, or None if one empties.

    Longest-path relaxation (Bellman–Ford, CLRS §24.4) from work stacks:
    ``lo`` rises along ``after`` from ``rising``, then ``hi`` falls
    along ``before`` from ``falling``.  A key reads its bound when it
    pops, so it is pushed only when not already waiting.  Bounds stay
    in ``1..n``, so a positive cycle empties a window; any order reaches
    the same fixpoint.  Only the rising half can empty one: after it each
    ``(s, r, g)`` holds on ``lo`` (relaxed, or met at the caller's fixpoint),
    so as ``hi`` falls from keys with ``hi >= lo``, ``hi[s] = hi[r] - g >= lo[s]``.
    """
    moved = 0
    waiting = set(rising)
    while rising:
        key = rising.pop()
        waiting.remove(key)
        low = lo[key]
        for rival, gap in after[key]:
            if low + gap > lo[rival]:
                if low + gap > hi[rival]:
                    return None
                lo[rival] = low + gap
                moved += 1
                if rival not in waiting:
                    waiting.add(rival)
                    rising.append(rival)
    waiting = set(falling)
    while falling:
        key = falling.pop()
        waiting.remove(key)
        high = hi[key]
        for subject, gap in before[key]:
            if high - gap < hi[subject]:
                hi[subject] = high - gap
                moved += 1
                if subject not in waiting:
                    waiting.add(subject)
                    falling.append(subject)
    return moved


def _iter_satisfying(query: DeltaQuery, spent: list[int]) -> Iterator[tuple[Key, ...]]:
    """Satisfying total orders, lexicographically by key index.

    The windows ``lo``/``hi`` are the whole search state.  They start at
    ``[1, n]``, relaxed from every key: ``rising`` pops keys in universe
    (intent) order and ``falling`` the last first, so an all-forward
    query relaxes each constraint once each way.  The depth-first search
    keeps one generator of placements per position on an explicit
    stack, trying keys in index order.  In a live branch at position
    ``p`` a placed key's window is its position and an unplaced key has
    ``lo >= p``: those with ``lo == p`` may take ``p``, and a leaf's
    windows spell its order.  Placing one fixes its window to ``[p, p]``,
    raises the other candidates to ``p + 1`` and re-relaxes just the
    moved windows.  The branch survives if no window empties and the
    unplaced keys can still fill ``p+1..n``, decided by earliest-deadline
    greedy matching (Glover 1967), skipped when no other window moved
    (the parent's matching already put the key at ``p``).  Both prunings
    cut only dead branches, so the order of solutions is plain
    backtracking's.  A position's last candidate updates its parent's
    windows in place, the others a copy: no one reads them again, as its
    generator is then done, and so is each ancestor that handed them down
    as its own last; a pinned search holds O(n) slots, not O(n²).  One
    node past the budget (``spent[0]`` counts them) raises
    :class:`SearchBudgetError`.

    A live node whose windows are all single positions is a leaf at
    once.  Its unplaced keys fill ``p..n`` in their windows, as the root
    passed ``matchable``, so did each placement that moved another
    window, and one that moved none placed the only key able to take its
    position; single-position windows admit one such filling, a
    permutation.  The descent would place the one candidate at each of
    ``p..n``, moving nothing, so the search charges those ``n + 1 - p``
    nodes and yields the order, or raises where that descent would.
    """
    keys = sorted(query.universe, key=_key_order_token)
    index = {key: i for i, key in enumerate(keys)}
    size = len(keys)
    after: list[list[tuple[int, int]]] = [[] for _ in keys]
    before: list[list[tuple[int, int]]] = [[] for _ in keys]
    for subject, rival, gap in query.constraints:
        after[index[subject]].append((index[rival], gap))
        before[index[rival]].append((index[subject], gap))
    budget = _SEARCH_NODE_BUDGET

    def matchable(lo: list, hi: list, start: int) -> bool:
        """Whether the keys with ``lo >= start`` fill ``start..size``,
        each position taking the open window that closes first."""
        deadlines: list[int] = []
        position = start
        windows = [(lo[k], hi[k]) for k in range(size) if lo[k] >= start]
        for low, high in sorted(windows):
            while position < low:
                if not deadlines or heappop(deadlines) < position:
                    return False
                position += 1
            heappush(deadlines, high)
        while deadlines:
            if heappop(deadlines) < position:
                return False
            position += 1
        return True

    def placements(position: int, lo: list, hi: list) -> Iterator:
        """The windows each key that may take ``position`` leaves."""
        candidates = [k for k in range(size) if lo[k] == position]
        for key in candidates:
            if spent[0] >= budget:
                raise SearchBudgetError
            spent[0] += 1
            rivals = [k for k in candidates if k != key]
            sub_lo, sub_hi = (lo, hi) if key == candidates[-1] else (lo[:], hi[:])
            for k in rivals:
                sub_lo[k] = position + 1
            # At hi == position nothing falls: the parent's fixpoint relaxed it.
            falling = [key] if hi[key] > position else []
            sub_hi[key] = position
            moved = _settle(after, before, sub_lo, sub_hi, rivals[:], falling)
            if moved is None or (
                (rivals or moved) and not matchable(sub_lo, sub_hi, position + 1)
            ):
                continue
            yield sub_lo, sub_hi

    lo, hi = [1] * size, [size] * size
    seeds = [index[key] for key in query.universe]
    if _settle(after, before, lo, hi, seeds[::-1], seeds) is None:
        return
    if not matchable(lo, hi, 1):
        return
    stack = [iter([(lo, hi)])]  # the root, no key placed: an empty universe's leaf
    while stack:
        placed = next(stack[-1], None)
        if placed is None:
            stack.pop()
        elif placed[0] != placed[1]:
            stack.append(placements(len(stack), *placed))
        else:  # pinned: charge the nodes the descent to the leaf would use
            spent[0] += size + 1 - len(stack)
            if spent[0] > budget:
                spent[0] = budget
                raise SearchBudgetError
            yield tuple(keys[k] for k in sorted(range(size), key=placed[0].__getitem__))


def _search(query: DeltaQuery, cap: int) -> RankingSetSummary:
    """The search's summary once it found ``cap`` orders or ran out."""
    count, reason, base = 0, None, None
    spent = [0]
    try:
        for order in _iter_satisfying(query, spent):
            if not count:
                base = WeakOrder.total(order)
            count += 1
            if count >= cap:
                reason = "count_cap"
                break
    except SearchBudgetError:
        reason = "node_budget"
    kinds = (RankingSetKind.EMPTY, RankingSetKind.SINGLETON, RankingSetKind.MULTIPLE)
    kind = RankingSetKind.UNKNOWN if count < 2 and reason else kinds[min(count, 2)]
    return RankingSetSummary(
        kind, None if reason else count, count, reason, spent[0], base
    )


def classify_ranking_set(query: DeltaQuery) -> RankingSetSummary:
    """Decide whether a query admits zero, one, or many total orders.

    Universes within ``_ENUMERATION_LIMIT`` keys are enumerated exactly (the
    count saturates at a cap, still proving Multiple); larger universes
    get a probe that stops at the second order.  A search the node
    budget cuts short before it finds two orders is Unknown.  The
    summary's ``base`` is the search's first order, the ranking
    :func:`base_query` returns, so one search answers both.
    """
    return _search(query, _COUNT_CAP if len(query.universe) <= _ENUMERATION_LIMIT else 2)


def base_query(query: DeltaQuery) -> WeakOrder:
    """Canonical ranking consistent with a query: the lexicographic minimum.

    The search of :func:`classify_ranking_set` stopped at its first
    order, which is the smallest because keys are tried in index order.
    It never settles for another ranking: :class:`SearchBudgetError`
    when the node budget runs out first, :class:`InfeasibleQueryError`
    when there is none.
    """
    return _search(query, 1).require_base()


#: The line breaks of ``str.splitlines``, written as escapes in comments.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def order_by_case_sketch(query: DeltaQuery, base: WeakOrder) -> str:
    """Human-readable rendering of a base ranking and its constraints.

    Presentation only — reports embed this string, nothing parses it.
    Each key is an SQL string literal (``'`` doubled), and each
    constraint comment stays on one line (key line breaks escaped).
    """
    lines = ["ORDER BY CASE key"]
    for key in base.keys():
        literal = key.replace("'", "''")
        lines.append(f"  WHEN '{literal}' THEN {base.rank_of(key)}")
    lines.append("END")
    for subject, rival, gap in query.constraints:
        line = f"-- requires r({rival}) - r({subject}) >= {gap}"
        lines.append(line if line.isprintable() else line.translate(_LINE_BREAKS))
    return "\n".join(lines)
