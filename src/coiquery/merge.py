"""Merge reformulations of a base ranking and the optimal-merge DP.

Tying a contiguous run of rank positions ("merging") hides the exact
order inside the run from the source; the source then best-responds to
the run's posterior mean instead of each position.  Because the
expected user utility of a merged run depends only on the run itself,
the best merge reformulation decomposes over interval partitions and a
quadratic-time dynamic program finds it exactly.  The DP reads one
integer table holding twelve times every interval score, for all four
user/source utility pairs and any base; ``interval_score`` is the
exact-rational reference for one interval, used by the brute-force
oracle and the tests.

The module also provides the super-rank relation (the partial order of
admissible reformulations: coarsen ties, never reverse order, append
only strictly below; checked by comparing block ranks), a brute-force
enumeration oracle over all contiguous partitions, and the closed-form
count of super-rank queries.

Conventions
-----------
Intervals index base *blocks* (1-based), not raw rank values; for the
usual total-order base the two coincide.  Tie-breaks in the DP prefer
the larger interval start, i.e. fewer merges; the brute-force oracle
reproduces the same choice.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import NamedTuple, Sequence

from .core import DomainError, WeakOrder
from .influence import base_query, build_delta_query
from .posterior import block_expected_user_utility
from .utility import UtilityContext, UtilityKind

__all__ = [
    "IntervalPartition",
    "MergeResult",
    "SuperRankCheck",
    "brute_force_merge_opt",
    "count_super_ranks",
    "interval_score",
    "is_super_rank",
    "maximize_merge_dp",
]


class IntervalPartition(NamedTuple):
    """Consecutive intervals covering positions 1..m without gaps; unchecked,
    as only the DP and the oracle build one, from the int tilings they walk."""

    intervals: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return self.intervals[-1][1]


class MergeResult(NamedTuple):
    """Optimal merge reformulation: the ranking, its partition, its value."""

    ranking: WeakOrder
    partition: IntervalPartition
    opt_value: Fraction


# --------------------------------------------------------------------------- #
# Super-rank relation
# --------------------------------------------------------------------------- #


class SuperRankCheck(NamedTuple):
    holds: bool
    violation: str | None = None

    def __bool__(self) -> bool:  # a failed check must be falsy, not a 2-tuple
        return self.holds


def is_super_rank(candidate: WeakOrder, base: WeakOrder) -> SuperRankCheck:
    """Whether candidate is an admissible reformulation of base.

    Four conditions: (1) candidate contains every base element; (2)
    base ties stay ties; (3) elements new to candidate sit strictly
    below every base element; (4) base's strict precedences never
    reverse — collapsing one into a tie is fine, flipping it is not.
    Every ranking is a super-rank of itself.
    """
    missing = base.key_set - candidate.key_set
    if missing:
        return SuperRankCheck(
            False, f"candidate drops base element(s) {sorted(missing)!r}"
        )
    # Each base block must sit at one candidate rank, and those ranks must
    # never fall from block to block: together these hold every key pair.
    rank_of = candidate.rank_of
    deepest, above = 0, None  # the last base block's candidate rank, first key
    for block in filter(None, base.blocks):
        head = block[0]
        rank = rank_of(head)
        for key in block[1:]:
            if rank_of(key) != rank:
                return SuperRankCheck(False, f"base tie {head!r} ~ {key!r} broken")
        if rank < deepest:
            return SuperRankCheck(False, f"base order {above!r} < {head!r} reversed")
        deepest, above = rank, head
    for key in sorted(candidate.key_set - base.key_set):
        if rank_of(key) <= deepest:
            return SuperRankCheck(
                False, f"appended element {key!r} not strictly below originals"
            )
    return SuperRankCheck(True, None)


def count_super_ranks(position_count: int, appended_count: int) -> int:
    """Number of super-rank queries of a total order: 2^(m-1) coarsenings
    of the m base positions times the ordered weak orders of the r
    appended elements.
    """
    if position_count < 1:
        raise DomainError("base must have at least one position")
    if appended_count < 0:
        raise DomainError("appended count must be nonnegative")
    if position_count > 4096 or appended_count > 300:
        raise DomainError("count out of supported range")
    return 2 ** (position_count - 1) * _ordered_weak_orders(appended_count)


def _ordered_weak_orders(size: int) -> int:
    """Weak orders on a labeled set (1, 1, 3, 13, 75, 541, ...): a first
    block of b elements, then a weak order on the other n - b."""
    counts = [1]
    for n in range(1, size + 1):
        counts.append(sum(math.comb(n, b) * counts[n - b] for b in range(1, n + 1)))
    return counts[size]


# --------------------------------------------------------------------------- #
# Interval scores and the DP
# --------------------------------------------------------------------------- #


def interval_score(
    start: int, end: int, ctx: UtilityContext, base: WeakOrder
) -> Fraction:
    """Expected user utility of merging base blocks start..end.

    Sums each member key's block expected utility over the merged
    span's original positions.  With a bias constant on the span this
    equals the member count times the shared per-tuple value; with
    mixed biases it is simply the per-tuple sum.
    """
    block_count = len(base.blocks)
    if not 1 <= start <= end <= block_count:
        raise DomainError(f"interval {start}..{end} outside 1..{block_count}")
    low = base.spans[start - 1][0]
    high = base.spans[end - 1][1]
    total = Fraction(0)
    for block in base.blocks[start - 1 : end]:
        for key in block:
            total += block_expected_user_utility(low, high, ctx.bias(key), ctx)
    return total


def _run_dp(table: Sequence[int], blocks: int) -> tuple[int, list[tuple[int, int]]]:
    """Interval-partition DP over the column-major upper triangle that
    ``_score12_table`` fills; ties prefer the larger interval start."""
    best = [0] * (blocks + 1)
    parent = [0] * (blocks + 1)
    for j in range(1, blocks + 1):
        # best[i - 1] + score(i, j) for i = 1..j: column j, one contiguous run.
        values = list(map(add, best, table[j * (j - 1) // 2 : j * (j + 1) // 2]))
        top = max(values)
        best[j] = top
        parent[j] = j - values[::-1].index(top)  # largest i reaching the max
    intervals = []
    j = blocks
    while j >= 1:
        i = parent[j]
        intervals.append((i, j))
        j = i - 1
    intervals.reverse()
    return best[-1], intervals


def _score12_table(base: WeakOrder, ctx: UtilityContext) -> array | list[int]:
    """Every interval score times 12, as integers, cell (i, j) at
    ``j * (j - 1) // 2 + i - 1``: the upper triangle, column by column.

    A member's per-tuple value depends only on the merged span's doubled
    midpoint ``s = low + high``, its width ``n`` and the member's own
    bias.  Twelve times it is ``-(n^2 - 1) - 3 (s - 2 r)^2`` under the
    quadratic user utility and ``-6 s r`` under the product one, where
    ``r`` is the response: the assigned rank, or the omitted rank past
    top-k.  As ``3 (s - 2 r)^2 = 3 s^2 - 12 r (s - r)``, a cell is
    ``-n (n^2 - 1 + 3 s^2) + 12 Σ r (s - r)`` or ``-6 s Σ r``: one prefix
    sum per ``s`` yields each interval with that ``s`` in O(1), found
    through position -> starting / ending block lookups.  A quadratic
    source's responses are evaluated at every ``s``, over the positions
    its spans hold, ``max(1, s - m) .. min(m, s - 1)``: m^2 in all.  A
    product source's is 1 below ``s = 2 b``, z above, and defers at it:
    set at ``s = 2``, it is re-evaluated only where ``s`` first reaches or
    passes ``2 b``, and only there is the sum of ``r`` rebuilt (in C).
    The assigned rank mirrors ``posterior._assigned_rank`` in
    cross-multiplied integers, which ``interval_score`` (the exact
    reference) checks.  No cell reaches ``m^3 + 12 m (m + omitted_rank)^2``
    in magnitude (``r < omitted_rank``); below 2^63 (or at it) the table
    is an ``array("q")``, else a list, so no ``z`` or ``omitted_rank``
    overflows it.
    """
    keys = base.keys()
    size = len(keys)
    starts = [0] * (size + 1)  # position -> block starting there, else 0
    ends = [0] * (size + 1)  # position -> block ending there, else 0
    for index, (low, high) in enumerate(base.spans, 1):
        starts[low] = index
        ends[high] = index
    z = ctx.universe_size
    top_k = ctx.top_k
    omitted = ctx.omitted_rank
    quadratic_user = ctx.kind_user is UtilityKind.QUADRATIC_USER
    quadratic_source = ctx.kind_source is UtilityKind.QUADRATIC_SOURCE_BIASED
    # (2 * numerator, denominator) of each position's bias
    biases = [(2 * b.numerator, b.denominator) for b in map(ctx.bias, keys)]
    # crossings[s]: the positions a product source re-evaluates at s
    crossings: list[list] = [[] for _ in range(2 * size + 1)]
    for p, (bias2, den) in enumerate(biases, 1):
        crossings[2].append((p, (bias2, den)))
        for s in {-(-bias2 // den), bias2 // den + 1}:  # s = 2b, then past it
            if 2 < s <= 2 * size:  # ``2 <=`` would redo what s = 2 set
                crossings[s].append((p, (bias2, den)))
    cells = len(base.blocks) * (len(base.blocks) + 1) // 2
    fits = size**3 + 12 * size * (size + omitted) ** 2 < 2**63
    table = array("q", [0]) * cells if fits else [0] * cells
    responses = [0] * (size + 1)
    prefix = [0] * (size + 1)
    for s in range(2, 2 * size + 1):
        first = max(1, s - size)
        moved = crossings[s]
        if quadratic_source:
            moved = enumerate(biases[first - 1 : s - 1], first)
        # An indifferent product source defers to the user: rank 1 under a
        # product user, else s/2 projected onto 1..z (lower on a tie).
        indifferent = min(s // 2, z) if quadratic_user else 1
        for p, (bias2, den) in moved:
            tn = s * den - bias2  # target s/2 - bias, over 2 * den
            if quadratic_source:
                # Project onto 1..z: nearest rank, then nearest to s/2, then lower.
                floor, rem = divmod(tn, 2 * den)
                if floor < 1:
                    rank = 1
                elif floor >= z:
                    rank = z
                elif rem < den or (rem == den and s <= 2 * floor + 1):
                    rank = floor
                else:
                    rank = floor + 1
            else:
                rank = z if tn > 0 else 1 if tn < 0 else indifferent
            responses[p] = omitted if rank > top_k else rank
        if quadratic_user:  # 3 (s^2 - (s - 2 r)^2) = 12 r (s - r)
            window = responses[first:s]
            terms = map(mul, window, map(sub, repeat(s), window))
            prefix[first - 1 : s] = accumulate(terms, initial=0)
        elif moved:  # positions first.. are all that later s read
            prefix[first - 1 :] = accumulate(responses[first:], initial=0)
        scale = 12 if quadratic_user else -6 * s
        spread = 3 * s * s - 1
        for low in range(first, s // 2 + 1):
            i = starts[low]
            j = ends[s - low]
            if i and j:
                value = scale * (prefix[s - low] - prefix[low - 1])
                if quadratic_user:
                    width = s - 2 * low + 1
                    value -= width * (width * width + spread)
                table[j * (j - 1) // 2 + i - 1] = value
    return table


def _resolve_base(
    intent: WeakOrder, ctx: UtilityContext, base: WeakOrder | None
) -> WeakOrder:
    if base is not None:
        return base
    return base_query(build_delta_query(intent, ctx.bias, ctx.universe_size))


def _assemble(
    base: WeakOrder, intervals: list[tuple[int, int]], opt: Fraction
) -> MergeResult:
    blocks = [sum(base.blocks[start - 1 : end], ()) for start, end in intervals]
    return MergeResult(
        WeakOrder(tuple(blocks)),
        IntervalPartition(tuple(intervals)),
        opt,
    )


def maximize_merge_dp(
    intent: WeakOrder, ctx: UtilityContext, *, base: WeakOrder | None = None
) -> MergeResult:
    """Best merge reformulation of the base ranking, by the interval DP.

    When no base is supplied it is derived from the intent via the
    constraint-query pipeline (which reduces to the intent's own order
    under equal biases).  Every utility pair and base shape is scored
    by one integer table of twelve times each interval score
    (``_score12_table``), O(m^2) to fill, evaluating only O(m) responses
    under a product source, and O(m^2) to solve.
    Equal-value splits keep the larger interval start, so zero-gain
    merges are never introduced.
    """
    resolved = _resolve_base(intent, ctx, base)
    if not resolved.blocks:
        raise DomainError("base ranking is empty")
    opt12, intervals = _run_dp(_score12_table(resolved, ctx), len(resolved.blocks))
    return _assemble(resolved, intervals, Fraction(opt12, 12))


#: Most base blocks the brute-force oracle enumerates partitions of.
_BRUTE_LIMIT = 14


def brute_force_merge_opt(
    intent: WeakOrder, ctx: UtilityContext, *, base: WeakOrder | None = None
) -> MergeResult:
    """Enumeration oracle: score all 2^(m-1) contiguous partitions.

    Scores come from ``interval_score`` in exact rational arithmetic,
    making this independent of the DP's integer score table.  The
    tie rule matches the DP: among equal-value partitions the sequence
    of interval starts, read from the last interval backward, is
    lexicographically largest.
    """
    resolved = _resolve_base(intent, ctx, base)
    block_count = len(resolved.blocks)
    if block_count == 0:
        raise DomainError("base ranking is empty")
    if block_count > _BRUTE_LIMIT:
        raise DomainError(
            f"{block_count} blocks exceed the enumeration limit {_BRUTE_LIMIT}"
        )
    scores: dict[tuple[int, int], Fraction] = {}
    for i in range(1, block_count + 1):
        for j in range(i, block_count + 1):
            scores[(i, j)] = interval_score(i, j, ctx, resolved)
    best_value: Fraction | None = None
    best_intervals: list[tuple[int, int]] | None = None
    for mask in range(1 << (block_count - 1)):
        intervals = []
        start = 1
        for position in range(1, block_count):
            if mask & (1 << (position - 1)):
                intervals.append((start, position))
                start = position + 1
        intervals.append((start, block_count))
        value = sum(
            (scores[interval] for interval in intervals), start=Fraction(0)
        )
        # The highest differing cut bit of two masks is the first differing
        # interval start read backward, so ascending masks ascend in the tie
        # rule's order: the last mask that ties wins.
        if best_value is None or value >= best_value:
            best_value = value
            best_intervals = intervals
    assert best_intervals is not None and best_value is not None
    return _assemble(resolved, best_intervals, best_value)
