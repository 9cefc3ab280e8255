"""Finite signaling games between a user and a biased source.

The interaction is a sender-receiver game: the user observes an intent,
submits a query, and the source answers with an interpretation.  This
module builds small explicit games (notably the two-intent commission
game), searches for the aligned-preference witness that characterizes
influential communication between set-equivalent intents, enumerates
all pure-strategy equilibria, and labels each Influential (two intents
get different responses) or NonInfluential.  The enumeration works on
one integer weight table, visits only the source's best replies (found
once per set of intents sharing a query) and checks user deviations
once per source map.

Conventions
-----------
Strategies are pure: the user maps every intent to one query, the
source maps every query to one interpretation (point distributions).
The source answers a query with a best reply to its Bayes posterior
over the intents sending it; a query whose senders carry no prior mass
falls back to the prior (see ``enumerate_pure_equilibria``).
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import ConfigurationError, DomainError, _over_common_denominator, as_fraction

__all__ = [
    "ClassifiedEquilibrium",
    "EquilibriumClass",
    "FiniteGame",
    "StrategyPair",
    "commission_game",
    "enumerate_pure_equilibria",
    "influential_witness",
]

_PROFILE_CAP = 10**6


class FiniteGame:
    """Payoff matrices (rows: intents, columns: interpretations) and a prior."""

    def __init__(
        self,
        intents: tuple[str, ...],
        queries: tuple[str, ...],
        interpretations: tuple[str, ...],
        payoff_user: tuple[tuple[Fraction, ...], ...],
        payoff_source: tuple[tuple[Fraction, ...], ...],
        prior: tuple[Fraction, ...],
        set_equivalent: bool = False,
    ) -> None:
        for label, values in (
            ("intent", intents),
            ("query", queries),
            ("interpretation", interpretations),
        ):
            if not values:
                raise ConfigurationError(f"game needs at least one {label}")
            if len(set(values)) != len(values):
                raise ConfigurationError(f"duplicate {label} labels")
        rows, columns = len(intents), len(interpretations)
        if len(prior) != rows:
            raise ConfigurationError("prior length must match the intents")
        for name, matrix in ("user", payoff_user), ("source", payoff_source):
            if len(matrix) != rows or any(len(row) != columns for row in matrix):
                raise ConfigurationError(f"{name} matrix must be {rows} x {columns}")
        total = sum(prior, start=Fraction(0))
        if any(weight < 0 for weight in prior):
            raise ConfigurationError("prior weights must be nonnegative")
        if total != 1:
            try:
                shown = str(total)
            except ValueError:  # a term past the int-to-str digit limit
                shown = "more than 1" if total > 1 else "less than 1"
            raise ConfigurationError(f"prior sums to {shown}, not 1")
        self.intents, self.queries = intents, queries
        self.interpretations = interpretations
        self.payoff_user, self.payoff_source = payoff_user, payoff_source
        self.prior, self.set_equivalent = prior, set_equivalent

    @classmethod
    def build(
        cls,
        intents: Sequence[str],
        queries: Sequence[str],
        interpretations: Sequence[str],
        payoff_user: Sequence[Sequence],
        payoff_source: Sequence[Sequence],
        prior: Sequence,
        set_equivalent: bool = False,
    ) -> FiniteGame:
        """Assemble a game from payoff matrices (rows: intents)."""

        def matrix(rows: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
            return tuple(tuple(map(as_fraction, row)) for row in rows)

        return cls(
            tuple(intents),
            tuple(queries),
            tuple(interpretations),
            matrix(payoff_user),
            matrix(payoff_source),
            tuple(map(as_fraction, prior)),
            set_equivalent,
        )


def commission_game(commission, loss) -> FiniteGame:
    """Two-intent sales interaction with a per-sale commission.

    The user gains 2 whenever the response crosses over to the other
    intent's preferred interpretation; the source earns the commission
    on its pushed interpretation but pays the loss when the push
    misfires.  Below loss the commission leaves room for truthful
    separation; at or above it the source pushes regardless.
    """
    c = as_fraction(commission)
    ell = as_fraction(loss)
    return FiniteGame.build(
        ("tau", "tau_prime"),
        ("q", "q_prime"),
        ("beta", "beta_prime"),
        payoff_user=((0, 2), (2, 0)),
        payoff_source=((c - ell, 0), (c, -ell)),
        prior=(Fraction(1, 2), Fraction(1, 2)),
        set_equivalent=True,
    )


# --------------------------------------------------------------------------- #
# Witness search
# --------------------------------------------------------------------------- #


def influential_witness(
    game: FiniteGame,
) -> tuple[str, str, str, str] | None:
    """First intent/interpretation pairing both agents weakly prefer.

    Scans ordered intent pairs then ordered interpretation pairs in
    label order; a hit ``(a, b, x, y)`` means assigning x to a and y to
    b satisfies all four weak preference inequalities, which is exactly
    the condition for influential communication between set-equivalent
    intents.  Full indifference therefore also yields a witness.
    """
    if not game.set_equivalent:
        raise DomainError(
            "witness search applies only to set-equivalent intents"
        )
    user, source = game.payoff_user, game.payoff_source
    intents, answers = game.intents, game.interpretations
    for a, b in itertools.permutations(range(len(intents)), 2):
        for x, y in itertools.permutations(range(len(answers)), 2):
            if (
                user[a][x] >= user[a][y]
                and user[b][y] >= user[b][x]
                and source[a][x] >= source[a][y]
                and source[b][y] >= source[b][x]
            ):
                return (intents[a], intents[b], answers[x], answers[y])
    return None


# --------------------------------------------------------------------------- #
# Equilibrium enumeration
# --------------------------------------------------------------------------- #


class StrategyPair(NamedTuple):
    """Pure strategies: intent -> query for the user, query ->
    interpretation for the source."""

    user: dict[str, str]
    source: dict[str, str]


class EquilibriumClass(Enum):
    NON_INFLUENTIAL = "NonInfluential"
    INFLUENTIAL = "Influential"


class ClassifiedEquilibrium(NamedTuple):
    pair: StrategyPair
    classification: EquilibriumClass


def _best_replies(weights: list[list[int]], senders: int) -> tuple[int, ...]:
    """Indices of the interpretations best for the source, ascending.

    ``weights[b][t]`` is ``prior[t] * payoff_source[t][b]``, an integer
    over the table's common denominator, summed over the intents t whose
    bit is set in ``senders``.  The Bayes posterior would also divide by
    the senders' mass, which does not change which interpretation is best.
    """
    value = [sum(w for t, w in enumerate(row) if senders >> t & 1) for row in weights]
    top = max(value)
    return tuple(b for b, total in enumerate(value) if total == top)


def enumerate_pure_equilibria(game: FiniteGame) -> list[ClassifiedEquilibrium]:
    """All pure-strategy equilibria, classified, in deterministic order.

    The order is that of every pure profile: user maps in query-label
    order, each crossed with source maps in interpretation-label order.
    Only the source's best replies are visited, though.  Under a fixed
    user strategy the posterior at a query depends only on the set of
    intents sending it, so the best replies at a query are computed
    once per sender set and the source maps searched are the product of
    the per-query best sets, in label order: a subsequence of the full
    product in the same order.  A profile is kept when no intent gains
    by switching queries, which is checked once per source map.

    Cost: one integer weight table per call, so no ``Fraction`` arithmetic
    per profile, and one deviation bitmask memoized per distinct source map:
    at most |B|^|Q| of them, within the cap.  An indifferent source makes
    all |Q|^|T|·|B|^|Q| profiles candidates; over 10^6 are refused.
    """
    intents, queries, answers = game.intents, game.queries, game.interpretations
    stride = len(queries)
    profile_count = stride ** len(intents) * len(answers) ** stride
    if profile_count > _PROFILE_CAP:
        raise DomainError(f"{profile_count} pure profiles exceed the enumeration cap")
    prior, _ = _over_common_denominator(game.prior)
    by_column = [v for column in zip(*game.payoff_source) for v in column]
    cells = iter(_over_common_denominator(by_column)[0])
    weights = [[w * next(cells) for w in prior] for _ in answers]  # W[b][t]
    positive = sum(1 << t for t, weight in enumerate(prior) if weight)
    # Deviations compare one intent's payoffs: each row is scaled alone.
    user_payoff = [_over_common_denominator(row)[0] for row in game.payoff_user]
    best_by_senders: dict[int, tuple[int, ...]] = {}
    # Per source map, bit t * stride + q is set when the answer to query
    # q reaches intent t's best payoff among the map's answers.
    accept_by_map: dict[tuple[int, ...], int] = {}
    found: list[ClassifiedEquilibrium] = []
    for sent in itertools.product(range(stride), repeat=len(intents)):
        senders, chosen, user = [0] * stride, 0, None
        for t, query in enumerate(sent):
            senders[query] |= 1 << t
            chosen |= 1 << t * stride + query
        for mask in senders:
            if mask not in best_by_senders:  # no prior mass: weigh every intent
                weighed = mask & positive or (1 << len(intents)) - 1
                best_by_senders[mask] = _best_replies(weights, weighed)
        for source_choice in itertools.product(*map(best_by_senders.get, senders)):
            accept = accept_by_map.get(source_choice)
            if accept is None:
                accept = 0
                for t, row in enumerate(user_payoff):
                    reached = [row[b] for b in source_choice]
                    top = max(reached)
                    for query, value in enumerate(reached):
                        accept |= (value == top) << t * stride + query
                accept_by_map[source_choice] = accept
            if accept & chosen != chosen:
                continue
            if user is None:
                user = dict(zip(intents, map(queries.__getitem__, sent)))
            source = dict(zip(queries, map(answers.__getitem__, source_choice)))
            if len({source_choice[query] for query in sent}) > 1:
                label = EquilibriumClass.INFLUENTIAL
            else:
                label = EquilibriumClass.NON_INFLUENTIAL
            found.append(ClassifiedEquilibrium(StrategyPair(user, source), label))
    return found
