"""Independent reference implementations backing the test suite.

Everything here is deliberately naive -- enumerate, scan, filter --
and shares no code path with the package beyond plain data types, so
a defect in a closed form cannot vouch for itself.  Keep these slow
and obvious; speed lives in the package, trust lives here.  The utility
sums, the supermodularity check and the saturation grid all evaluate
``per_tuple_utility``, the four utility shapes written out.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Callable, Literal, NamedTuple

from coiquery import (
    ConfigurationError,
    SaturationOutcome,
    TrustWitness,
    UtilityContext,
    UtilityKind,
    WeakOrder,
    as_fraction,
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


def weak_order_from_lists_oracle(data: object) -> WeakOrder:
    """``WeakOrder.from_lists`` as one per-key scan.

    Shape errors (a block or key of the wrong type) raise at once; the
    first invariant violation (an empty block or a repeated key, in scan
    order) raises only when the shape holds throughout.
    """
    if not isinstance(data, (list, tuple)):
        raise ConfigurationError("weak order must be a list of lists of keys")
    blocks = []
    seen = set()
    violation = None
    for index, block in enumerate(data, start=1):
        if not isinstance(block, (list, tuple)):
            raise ConfigurationError("weak order blocks must be lists of strings")
        block = tuple(block)
        if not block and violation is None:
            violation = f"block {index} is empty"
        for key in block:
            if not isinstance(key, str):
                raise ConfigurationError("weak order blocks must be lists of strings")
            if key in seen and violation is None:
                violation = f"duplicate key {key!r}"
            seen.add(key)
        blocks.append(block)
    if violation is not None:
        raise ConfigurationError(f"invalid weak order: {violation}")
    return WeakOrder(tuple(blocks))


def bias_range_oracle(entries: dict, default=0, lower=None, upper=None):
    """``BiasFunction``'s ``(lower, upper)``, or the message it raises.

    A missing bound is the least (greatest) of the entries and the
    default.  An empty range is reported first, then the first entry,
    in insertion order, outside the range, then (with no entries) a
    default outside it.
    """
    values = {key: as_fraction(value) for key, value in entries.items()}
    default = as_fraction(default)
    pool = [*values.values(), default]
    low = min(pool) if lower is None else as_fraction(lower)
    high = max(pool) if upper is None else as_fraction(upper)
    if low > high:
        return f"bias range is empty: [{low}, {high}]"
    for key, value in values.items():
        if not low <= value <= high:
            return f"bias for {key!r} ({value}) outside range [{low}, {high}]"
    if not values and not low <= default <= high:
        return f"default bias {default} outside range [{low}, {high}]"
    return low, high


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


def trust_report_jsonable(report) -> dict:
    """A trust report's dict form, interval ends as ``float`` of the reduced
    witnesses: ``json.dumps`` of it, with sorted keys and compact
    separators, is the text ``cli._trust_json`` writes."""
    flagged = [
        {
            "key": key,
            "delta": witness.separation,
            "interval": [float(witness.interval_low), float(witness.interval_high)],
        }
        for key, witness in report.flagged.items()
    ]
    return {"trustworthy": list(report.trustworthy), "flagged": flagged}


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


def longest_paths_oracle(constraints, source) -> dict:
    """Longest ``rank(rival) - rank(subject)`` bound from ``source``.

    Textbook Bellman–Ford over difference constraints free of positive
    cycles: one round per constraint; keys ``source`` never reaches are
    left out.
    """
    longest = {source: 0}
    for _ in range(len(constraints)):
        for subject, rival, gap in constraints:
            if subject in longest:
                length = longest[subject] + gap
                if rival not in longest or length > longest[rival]:
                    longest[rival] = length
    return longest


def forward_reduction_oracle(constraints, intent) -> list[tuple[str, str, int]]:
    """The constraints without each forward one the other forward ones imply.

    A constraint is forward when its subject ranks strictly before its
    rival in the intent.  Each is tested on its own: it is dropped when
    a Bellman–Ford pass over every other forward constraint reaches its
    rival with a path at least as long as its gap.  Complements stay.
    """
    forward = [
        tuple(c) for c in constraints if intent.rank_of(c[0]) < intent.rank_of(c[1])
    ]
    reduced = []
    for constraint in map(tuple, constraints):
        subject, rival, gap = constraint
        if constraint in forward:
            others = [c for c in forward if c != constraint]
            if longest_paths_oracle(others, subject).get(rival, gap - 1) >= gap:
                continue
        reduced.append(constraint)
    return reduced


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
# Per-tuple utilities, their sums and supermodularity
# --------------------------------------------------------------------------- #


def per_tuple_utility(kind: UtilityKind, intent_rank, response_rank, bias_value=0):
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
        response_rank = (
            response.rank_of(key) if key in response.key_set else ctx.omitted_rank
        )
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


def common_response_oracle(kind, z: int, bias_value) -> bool:
    """Whether one response is optimal at every intent rank, for either
    source kind: the z-by-z grid of ``per_tuple_utility`` values, each
    intent rank's argmax set intersected with the others'."""
    common = None
    for intent_rank in range(1, z + 1):
        values = {
            response: per_tuple_utility(kind, intent_rank, response, bias_value)
            for response in range(1, z + 1)
        }
        best = max(values.values())
        argmax = {response for response, value in values.items() if value == best}
        common = argmax if common is None else common & argmax
    return bool(common)


def saturation_oracle(ctx: UtilityContext, keys=None) -> SaturationOutcome:
    """``saturation_check``'s classification with every common response
    found on the grid by :func:`common_response_oracle`."""
    values = ctx.bias.distinct_values(keys)
    if all(abs(v) >= ctx.top_k - Fraction(3, 2) for v in values):
        return SaturationOutcome.NON_INFLUENTIAL_BY_COROLLARY
    if all(
        common_response_oracle(ctx.kind_source, ctx.universe_size, v) for v in values
    ):
        return SaturationOutcome.NON_INFLUENTIAL_BY_CONVEX_SATURATION
    if len(values) == 1:
        return SaturationOutcome.SYMMETRIC_BIAS_INFLUENTIAL
    return SaturationOutcome.INCONCLUSIVE


# --------------------------------------------------------------------------- #
# Pure equilibria by brute force
# --------------------------------------------------------------------------- #


class LabelledGame(NamedTuple):
    """A game's labels, with payoffs keyed ``(intent, interpretation)`` and
    the prior keyed by intent."""

    intents: tuple[str, ...]
    queries: tuple[str, ...]
    interpretations: tuple[str, ...]
    payoff_user: dict[tuple[str, str], Fraction]
    payoff_source: dict[tuple[str, str], Fraction]
    prior: dict[str, Fraction]


def labelled(game) -> LabelledGame:
    """Read a ``FiniteGame``'s matrices and prior through its labels."""

    def table(matrix):
        return {
            (t, b): value
            for t, row in zip(game.intents, matrix)
            for b, value in zip(game.interpretations, row)
        }

    return LabelledGame(
        game.intents,
        game.queries,
        game.interpretations,
        table(game.payoff_user),
        table(game.payoff_source),
        dict(zip(game.intents, game.prior)),
    )


def pure_equilibria_oracle(game):
    """Every pure profile of ``game`` checked longhand, in enumeration order.

    User maps in query-label order, each crossed with every source map
    in interpretation-label order; a profile is kept when no query's
    answer can be improved under its posterior (the prior when its
    senders carry no prior mass) and no intent gains by switching
    queries.  Returns ``(user, source, classification value)`` triples.
    """
    game = labelled(game)
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
                found.append((user, source, _classification(game, user, source)))
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


def _classification(game, user, source):
    responses = {source[user[t]] for t in game.intents}
    return "Influential" if len(responses) > 1 else "NonInfluential"
