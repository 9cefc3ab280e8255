"""Independent reference implementations backing the test suite.

Everything here is deliberately naive -- enumerate, scan, filter --
and shares no code path with the package beyond plain data types, so
a defect in a closed form cannot vouch for itself.  Keep these slow
and obvious; speed lives in the package, trust lives here.  The utility
sums and the supermodularity check are the exception: they evaluate
``per_tuple_utility``, the code their tests check.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Callable, Literal, NamedTuple

from coiquery import (
    ConfigurationError,
    TrustWitness,
    UtilityContext,
    UtilityKind,
    WeakOrder,
    as_fraction,
    per_tuple_utility,
)


# --------------------------------------------------------------------------- #
# Weak-order enumeration
# --------------------------------------------------------------------------- #


def iter_weak_orders(keys):
    """Every ordered set partition of ``keys``, as a tuple of tuples.

    Blocks are emitted with their members in input order, first block
    varying slowest.  The count over n keys is the ordered Bell number
    (1, 1, 3, 13, 75, 541, ...).
    """
    items = tuple(keys)

    def rec(pool):
        if not pool:
            yield ()
            return
        for size in range(1, len(pool) + 1):
            for block in itertools.combinations(pool, size):
                rest = tuple(item for item in pool if item not in block)
                for tail in rec(rest):
                    yield (block,) + tail

    yield from rec(items)


def count_weak_orders(size: int) -> int:
    return sum(1 for _ in iter_weak_orders(range(size)))


def iter_coarsenings(keys):
    """Every merge of consecutive positions of a total order, in block form."""
    items = tuple(keys)
    size = len(items)
    for mask in range(1 << max(size - 1, 0)):
        blocks = []
        start = 0
        for position in range(size - 1):
            if mask & (1 << position):
                blocks.append(items[start : position + 1])
                start = position + 1
        blocks.append(items[start:])
        yield tuple(blocks)


# --------------------------------------------------------------------------- #
# Attribute bias rules by enumeration
# --------------------------------------------------------------------------- #


def rule_bias_oracle(document: dict) -> dict[str, Fraction]:
    """Per-element bias of an ``attributes`` + ``bias_rules`` config.

    Lists the whole attribute product, reads each element as a name to
    value map (a repeated name keeps its last value), and scans the rules
    for the first whose every condition holds: its bias times ``scale``,
    else 0.
    """
    attributes = document["attributes"]
    scale = Fraction(document.get("scale", 1))
    product = list(itertools.product(*(a["values"] for a in attributes)))
    biases = {}
    for index, element in enumerate(product, start=1):
        named = {a["name"]: value for a, value in zip(attributes, element)}
        bias = Fraction(0)
        for rule in document["bias_rules"]:
            if all(named.get(name) == value for name, value in rule["when"].items()):
                bias = Fraction(rule["bias"]) * scale
                break
        biases[f"e{index}"] = bias
    return biases


# --------------------------------------------------------------------------- #
# Displacement membership (trust baseline)
# --------------------------------------------------------------------------- #

GRID_STEP = Fraction(1, 10)


def closed_form_gap_shift(z: int, delta: int) -> tuple[Fraction, Fraction]:
    """The displacement gap and shift thresholds, written out longhand."""
    denom = 3 * (z * z - z + delta * (2 * z + 1) - delta * delta)
    gap = Fraction(
        -(delta**3) + 3 * delta * delta * z + delta * z * z + delta + z * z - z,
        denom,
    )
    shift = Fraction((z - delta) * (z - delta + 1) * (2 * delta + z - 1), denom)
    return gap, shift


def trust_baseline_flags(beta, ctx: UtilityContext) -> frozenset:
    """Keys flagged by explicit witness search, no interval shortcuts.

    For every returned key, every separation, and every candidate
    rival bias -- the 0.1 grid over the declared range plus the exact
    left endpoint of the key's witness window -- apply the membership
    test ``max(gap - 1, shift) < bias(key) - candidate <= gap``.  The
    range's upper end is exclusive, matching the detector's strict
    interval comparison.
    """
    low, high = ctx.bias.lower, ctx.bias.upper
    flagged = set()
    for key in beta.keys():
        if _has_displacement_witness(
            ctx.bias(key), ctx.universe_size, low, high
        ):
            flagged.add(key)
    return frozenset(flagged)


def _has_displacement_witness(value, z, low, high) -> bool:
    for delta in range(1, z):
        gap, shift = closed_form_gap_shift(z, delta)
        floor = max(gap - 1, shift)
        if not floor < gap:
            continue
        candidates = []
        candidate = low
        while candidate < high:
            candidates.append(candidate)
            candidate += GRID_STEP
        edge = max(value - gap, low)
        if low <= edge < high:
            candidates.append(edge)
        for candidate in candidates:
            displacement = value - candidate
            if floor < displacement <= gap:
                return True
    return False


@functools.lru_cache(maxsize=8)
def _feasible_windows(z: int) -> tuple[tuple[int, Fraction, Fraction], ...]:
    """``(delta, gap, floor)`` for every separation whose window is nonempty."""
    windows = []
    for delta in range(1, z):
        gap, shift = closed_form_gap_shift(z, delta)
        floor = max(gap - 1, shift)
        if floor < gap:
            windows.append((delta, gap, floor))
    return tuple(windows)


def trust_witness_oracle(value, z: int, low, high) -> TrustWitness | None:
    """The detector's default witness, found by scanning every separation.

    Among the feasible separations whose gap exceeds ``value - high``,
    take the least window floor, the rightmost one on ties; it witnesses
    a flag when that floor is below ``value - low``.
    """
    if not low < high:
        return None
    best = None
    for delta, gap, floor in _feasible_windows(z):
        if gap > value - high and (best is None or floor <= best[2]):
            best = (delta, gap, floor)
    if best is None or not best[2] < value - low:
        return None
    delta, gap, floor = best
    return TrustWitness(delta, value - gap, value - floor)


def trust_witnesses_oracle(value, z: int, low, high) -> tuple[TrustWitness, ...]:
    """Every feasible window that meets the range, in separation order.

    The window ``[value - gap, value - floor)`` meets the closed range
    ``[low, high]`` when the larger left end lies strictly below the
    smaller right end.
    """
    witnesses = []
    for delta, gap, floor in _feasible_windows(z):
        interval_low, interval_high = value - gap, value - floor
        if max(interval_low, low) < min(interval_high, high):
            witnesses.append(TrustWitness(delta, interval_low, interval_high))
    return tuple(witnesses)


# --------------------------------------------------------------------------- #
# Separations and difference-constraint queries
# --------------------------------------------------------------------------- #


def _gap_thresholds(z: int):
    """``(numerator, denominator)`` of each gap threshold, in separation order."""
    for delta in range(1, z):
        gap = closed_form_gap_shift(z, delta)[0]
        yield gap.numerator, gap.denominator


@functools.lru_cache(maxsize=64)
def _gap_threshold_table(z: int) -> tuple[tuple[int, int], ...]:
    return tuple(_gap_thresholds(z))


def _iter_covering(gap, z: int):
    """Separations whose window ``(threshold - 1, threshold]`` holds gap.

    A plain scan in separation order; universes up to 10,000 keep their
    thresholds in a table, larger ones evaluate each separation as the
    scan reaches it.
    """
    value = Fraction(gap)
    qn, qd = value.numerator, value.denominator
    thresholds = _gap_threshold_table(z) if z <= 10_000 else _gap_thresholds(z)
    for delta, (p, q) in enumerate(thresholds, start=1):
        if (p - q) * qd < qn * q <= p * qd:
            yield delta


def delta_star_solutions_oracle(gap, z: int) -> tuple[int, ...]:
    """Every separation covering ``gap``, by scanning all of them."""
    return tuple(_iter_covering(gap, z))


def delta_star_oracle(gap, z: int):
    """The first separation covering ``gap`` in a linear scan, or None.

    The scan stops at its first hit, so a universe too large to scan
    whole is fine as long as the gap is covered early.
    """
    return next(_iter_covering(gap, z), None)


def delta_query_oracle(intent, bias, z: int) -> list[tuple[str, str, int]]:
    """The δ-query built pair by pair with Fraction gaps.

    Keys are visited in block order; a strictly ordered pair whose gap
    has a separation gets the forward constraint if the intent already
    satisfies it and the complement ``(rival, subject, 1 - delta)``
    otherwise.
    """
    ranks, position = {}, 1
    for block in intent.blocks:
        for key in block:
            ranks[key] = position
        position += len(block)
    keys = [key for block in intent.blocks for key in block]
    constraints = []
    for i, subject in enumerate(keys):
        for rival in keys[i + 1 :]:
            if ranks[subject] == ranks[rival]:
                continue
            delta = delta_star_oracle(bias(subject) - bias(rival), z)
            if delta is None:
                continue
            if ranks[rival] - ranks[subject] >= delta:
                constraints.append((subject, rival, delta))
            else:
                constraints.append((rival, subject, 1 - delta))
    return constraints


def position_windows_oracle(constraints, universe):
    """Textbook Bellman–Ford on ``rank(rival) - rank(subject) >= gap``.

    ``size`` rounds of in-order relaxation from earliest 1 / latest
    ``size``, then one check round: anything still relaxable is a
    positive cycle.  None when infeasible or some window is empty.
    """
    size = len(universe)
    earliest = dict.fromkeys(universe, 1)
    latest = dict.fromkeys(universe, size)

    def relax():
        changed = False
        for subject, rival, gap in constraints:
            if earliest[subject] + gap > earliest[rival]:
                earliest[rival] = earliest[subject] + gap
                changed = True
            if latest[rival] - gap < latest[subject]:
                latest[subject] = latest[rival] - gap
                changed = True
        return changed

    for _ in range(size):
        relax()
    if relax():
        return None
    if any(earliest[key] > latest[key] for key in universe):
        return None
    return {key: (earliest[key], latest[key]) for key in universe}


def _key_index_token(key):
    """``e<number>`` keys by their number, then any other label by text."""
    if key.startswith("e") and key[1:].isdigit():
        return (0, int(key[1:]), key)
    return (1, 0, key)


def satisfying_orders_oracle(constraints, universe):
    """Every total order meeting the constraints, by filtering permutations.

    Permutations of the universe sorted by key index come out in
    lexicographic order, so the first one kept is the base ranking.
    Meant for eight keys or fewer (8! = 40,320 candidates).
    """
    for order in itertools.permutations(sorted(universe, key=_key_index_token)):
        rank = {key: position for position, key in enumerate(order, start=1)}
        if all(rank[r] - rank[s] >= gap for s, r, gap in constraints):
            yield order


def satisfying_orders_backtrack_oracle(constraints, universe):
    """Satisfying total orders by backtracking over static position windows.

    Positions are filled in order, keys tried by key index; a key is
    placed when its Bellman–Ford window admits the position and no
    constraint with an already placed key (or an obviously unplaceable
    one) breaks.  No propagation after placing, so it is slow beyond a
    dozen keys with many solutions but exact.
    """
    windows = position_windows_oracle(constraints, universe)
    if windows is None:
        return
    ordering = sorted(universe, key=_key_index_token)
    size = len(ordering)
    as_subject = {key: [] for key in ordering}
    as_rival = {key: [] for key in ordering}
    for subject, rival, gap in constraints:
        as_subject[subject].append((rival, gap))
        as_rival[rival].append((subject, gap))
    placed = {}
    chosen = []

    def admissible(key, position):
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

    def extend(position):
        if position > size:
            yield tuple(chosen)
            return
        for key in ordering:
            if key in placed or not admissible(key, position):
                continue
            placed[key] = position
            chosen.append(key)
            yield from extend(position + 1)
            chosen.pop()
            del placed[key]

    yield from extend(1)


# --------------------------------------------------------------------------- #
# Region means by enumeration
# --------------------------------------------------------------------------- #


def region_means_oracle(z: int, separation: int, side):
    """(mean subject rank, mean rival rank, pair count) over a region.

    Walks the whole z-by-z square of (subject, rival) rank pairs and
    keeps those with ``rival - subject >= separation`` (the favored
    side) or the rest (the complement).
    """
    favored = side.value == "favored"
    pairs = [
        (subject, rival)
        for subject in range(1, z + 1)
        for rival in range(1, z + 1)
        if (rival - subject >= separation) == favored
    ]
    count = len(pairs)
    return (
        Fraction(sum(subject for subject, _ in pairs), count),
        Fraction(sum(rival for _, rival in pairs), count),
        count,
    )


# --------------------------------------------------------------------------- #
# Utility sums and supermodularity of the per-tuple utilities
# --------------------------------------------------------------------------- #


def aggregate_utility(
    intent: WeakOrder,
    response: WeakOrder,
    ctx: UtilityContext,
    side: Literal["user", "source"],
) -> Fraction:
    """Sum of per-tuple utilities over every key the intent ranks.

    Keys the response omits take ``ctx.omitted_rank``.  The user side is
    unbiased by definition; the source side applies ``ctx.bias``.
    """
    if side not in ("user", "source"):
        raise ConfigurationError(f"side must be 'user' or 'source', got {side!r}")
    kind = ctx.kind_user if side == "user" else ctx.kind_source
    total = Fraction(0)
    for key in intent.keys():
        intent_rank = intent.rank_of(key)
        response_rank = response.rank_of(key, omitted=ctx.omitted_rank)
        bias = ctx.bias(key) if side == "source" else Fraction(0)
        total += per_tuple_utility(kind, intent_rank, response_rank, bias)
    return total


class SupermodularWitness(NamedTuple):
    """Point where the supermodularity inequality fails."""

    bias_value: Fraction
    low_response: int
    high_response: int
    intent_rank: int  # difference increased moving to intent_rank + 1


class SupermodularCheck(NamedTuple):
    holds: bool
    witness: SupermodularWitness | None

    def __bool__(self) -> bool:  # a failed check must be falsy, not a 2-tuple
        return self.holds


UtilityCallable = Callable[[int, int, Fraction], Fraction]


def check_supermodular(
    kind: UtilityKind | UtilityCallable, universe_size: int, bias_samples
) -> SupermodularCheck:
    """Verify that better response positions matter more for higher intents.

    For each sampled bias, each response pair low < high, and every
    intent rank, the gain ``u(intent, low) − u(intent, high)`` must be
    non-increasing in the intent rank; the merge DP relies on this.
    ``kind`` may be a :class:`UtilityKind` or any callable
    ``(intent_rank, response_rank, bias) -> value`` (an injection point
    for adversarial test shapes).
    """
    if universe_size < 2:
        raise ConfigurationError("supermodularity needs a universe of size >= 2")
    if isinstance(kind, UtilityKind):
        evaluate: UtilityCallable = lambda t, r, b: per_tuple_utility(kind, t, r, b)
    else:
        evaluate = kind
    for raw in bias_samples:
        bias = as_fraction(raw)
        for low in range(1, universe_size + 1):
            for high in range(low + 1, universe_size + 1):
                previous: Fraction | None = None
                for intent_rank in range(1, universe_size + 1):
                    diff = evaluate(intent_rank, low, bias) - evaluate(
                        intent_rank, high, bias
                    )
                    if previous is not None and diff > previous:
                        return SupermodularCheck(
                            False,
                            SupermodularWitness(bias, low, high, intent_rank - 1),
                        )
                    previous = diff
    return SupermodularCheck(True, None)


# --------------------------------------------------------------------------- #
# Best responses from first principles
# --------------------------------------------------------------------------- #


def brute_best_rank(mean_rank, bias_value, z: int) -> int:
    """Projected best response by scanning every rank."""
    target = Fraction(mean_rank) - Fraction(bias_value)
    return min(
        range(1, z + 1),
        key=lambda a: (abs(a - target), abs(a - Fraction(mean_rank)), a),
    )


def brute_block_utility(start, end, bias_value, ctx: UtilityContext) -> Fraction:
    """Expected user utility of one tuple tied across a block, longhand.

    Uniform true rank over the block, the source's projected response
    to the block mean (omission past top-k), then the mean quadratic
    loss -- each step spelled out instead of using the variance form.
    """
    mean = Fraction(start + end, 2)
    assigned = brute_best_rank(mean, bias_value, ctx.universe_size)
    response = assigned if assigned <= ctx.top_k else ctx.omitted_rank
    total = Fraction(0)
    for rank in range(start, end + 1):
        total += -((Fraction(rank) - response) ** 2)
    return total / (end - start + 1)


def source_response_sets_over_intents(z: int, bias_value):
    """Per-intent argmax response sets for one tuple, all z! intents.

    Only the tracked tuple's intent rank matters to a separable
    quadratic source, but the sweep stays literal: one set per
    permutation of ranks, argmax of ``-(r - a - b)^2`` over responses.
    """
    bias = Fraction(bias_value)
    sets = []
    for intent in itertools.permutations(range(1, z + 1)):
        rank = intent[0]
        best = None
        argmax: list[int] = []
        for response in range(1, z + 1):
            value = -((Fraction(rank) - response - bias) ** 2)
            if best is None or value > best:
                best = value
                argmax = [response]
            elif value == best:
                argmax.append(response)
        sets.append(frozenset(argmax))
    return sets


def has_intent_independent_response(z: int, bias_value) -> bool:
    """Whether one response is optimal no matter what the intent was."""
    sets = source_response_sets_over_intents(z, bias_value)
    return bool(frozenset.intersection(*sets))


# --------------------------------------------------------------------------- #
# Pure equilibria by brute force
# --------------------------------------------------------------------------- #


def pure_equilibria_oracle(game, rankings=None):
    """Every pure profile of ``game`` checked longhand, in enumeration order.

    User maps in query-label order, each crossed with every source map
    in interpretation-label order; a profile is kept when no query's
    answer can be improved under its posterior (the prior when its
    senders carry no prior mass) and no intent gains by switching
    queries.  Returns ``(user, source, classification value)`` triples.
    """
    found = []
    for user_choice in itertools.product(game.queries, repeat=len(game.intents)):
        user = dict(zip(game.intents, user_choice))
        for source_choice in itertools.product(
            game.interpretations, repeat=len(game.queries)
        ):
            source = dict(zip(game.queries, source_choice))
            if _source_never_gains(game, user, source) and _user_never_gains(
                game, user, source
            ):
                found.append(
                    (user, source, _classification(game, user, source, rankings))
                )
    return found


def _posterior(game, user, query):
    senders = [t for t in game.intents if user[t] == query]
    mass = sum((game.prior[t] for t in senders), Fraction(0))
    if mass == 0:
        return dict(game.prior)
    return {
        t: game.prior[t] / mass if t in senders else Fraction(0)
        for t in game.intents
    }


def _source_never_gains(game, user, source):
    for query in game.queries:
        belief = _posterior(game, user, query)

        def expected(interpretation):
            total = Fraction(0)
            for t in game.intents:
                total += belief[t] * game.payoff_source[(t, interpretation)]
            return total

        chosen = expected(source[query])
        for interpretation in game.interpretations:
            if expected(interpretation) > chosen:
                return False
    return True


def _user_never_gains(game, user, source):
    for t in game.intents:
        current = game.payoff_user[(t, source[user[t]])]
        for query in game.queries:
            if game.payoff_user[(t, source[query])] > current:
                return False
    return True


def _classification(game, user, source, rankings):
    responses = {t: source[user[t]] for t in game.intents}
    if len(set(responses.values())) < 2:
        return "NonInfluential"
    if rankings is None:
        return "Influential"
    for t, response in responses.items():
        if not _longhand_super_rank(rankings[t].blocks, rankings[response].blocks):
            return "Influential"
    return "FullyInfluential"


def _longhand_super_rank(candidate_blocks, base_blocks):
    """Super-rank test on raw blocks: base ties kept, order never reversed,
    new keys strictly below every base key."""

    def ranks(blocks):
        table, position = {}, 1
        for block in blocks:
            for key in block:
                table[key] = position
            position += len(block)
        return table

    candidate, base = ranks(candidate_blocks), ranks(base_blocks)
    if not set(base) <= set(candidate):
        return False
    for a in base:
        for b in base:
            if base[a] == base[b] and candidate[a] != candidate[b]:
                return False
            if base[a] < base[b] and candidate[a] > candidate[b]:
                return False
    deepest = max(candidate[key] for key in base)
    return all(candidate[key] > deepest for key in set(candidate) - set(base))
