"""Finite signaling games between a user and a biased source.

The interaction is a sender-receiver game: the user observes an intent,
submits a query, and the source answers with an interpretation.  This
module builds small explicit games (notably the two-intent commission
game), searches for the aligned-preference witness that characterizes
influential communication between set-equivalent intents, enumerates
all pure-strategy equilibria, and classifies each as non-influential,
influential, or fully influential.  The enumeration visits only the
source's best replies to each user strategy, found once per set of
intents sharing a query; every source map that is not a best reply
fails the source's condition anyway.

Conventions
-----------
Strategies are pure: the user maps every intent to one query, the
source maps every query to one interpretation (point distributions).
Posterior beliefs follow Bayes' rule on path; off-path queries fall
back to the prior, isolated in :func:`off_path_belief` so tests can
swap the rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .core import ConfigurationError, DomainError, WeakOrder, as_fraction
from .merge import is_super_rank

__all__ = [
    "ClassifiedEquilibrium",
    "EquilibriumClass",
    "FiniteGame",
    "StrategyPair",
    "bayes_posterior",
    "classify_equilibrium",
    "commission_game",
    "enumerate_pure_equilibria",
    "influential_witness",
    "off_path_belief",
]

_PROFILE_CAP = 10**6
_PRIOR_TOLERANCE = Fraction(1, 10**12)


@dataclass(frozen=True, eq=False)
class FiniteGame:
    """Explicit payoff tables over intents, queries, and interpretations."""

    intents: tuple[str, ...]
    queries: tuple[str, ...]
    interpretations: tuple[str, ...]
    payoff_user: dict[tuple[str, str], Fraction]
    payoff_source: dict[tuple[str, str], Fraction]
    prior: dict[str, Fraction]
    set_equivalent: bool = False

    def __post_init__(self) -> None:
        for label, values in (
            ("intent", self.intents),
            ("query", self.queries),
            ("interpretation", self.interpretations),
        ):
            if not values:
                raise ConfigurationError(f"game needs at least one {label}")
            if len(set(values)) != len(values):
                raise ConfigurationError(f"duplicate {label} labels")
        cells = set(itertools.product(self.intents, self.interpretations))
        for name, table in (
            ("user", self.payoff_user),
            ("source", self.payoff_source),
        ):
            if set(table) != cells:
                raise ConfigurationError(
                    f"{name} payoff table does not cover intents x interpretations"
                )
        if set(self.prior) != set(self.intents):
            raise ConfigurationError("prior must weight exactly the intents")
        total = sum(self.prior.values(), start=Fraction(0))
        if any(weight < 0 for weight in self.prior.values()):
            raise ConfigurationError("prior weights must be nonnegative")
        if abs(total - 1) > _PRIOR_TOLERANCE:
            try:
                shown = str(total)
            except ValueError:  # a term past the int-to-str digit limit
                shown = "more than 1" if total > 1 else "less than 1"
            raise ConfigurationError(f"prior sums to {shown}, not 1")

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

        def as_table(rows: Sequence[Sequence], name: str) -> dict:
            if len(rows) != len(intents) or any(
                len(row) != len(interpretations) for row in rows
            ):
                raise ConfigurationError(
                    f"{name} matrix must be {len(intents)} x {len(interpretations)}"
                )
            return {
                (intent, interpretation): as_fraction(rows[i][j])
                for i, intent in enumerate(intents)
                for j, interpretation in enumerate(interpretations)
            }

        if len(prior) != len(intents):
            raise ConfigurationError("prior length must match the intents")
        return cls(
            tuple(intents),
            tuple(queries),
            tuple(interpretations),
            as_table(payoff_user, "user"),
            as_table(payoff_source, "source"),
            {intent: as_fraction(w) for intent, w in zip(intents, prior)},
            set_equivalent,
        )

    def user_payoff(self, intent: str, interpretation: str) -> Fraction:
        return self.payoff_user[(intent, interpretation)]

    def source_payoff(self, intent: str, interpretation: str) -> Fraction:
        return self.payoff_source[(intent, interpretation)]

    def as_jsonable(self) -> dict:
        return {
            "intents": list(self.intents),
            "queries": list(self.queries),
            "interpretations": list(self.interpretations),
            "payoff_user": [
                [float(self.payoff_user[(t, b)]) for b in self.interpretations]
                for t in self.intents
            ],
            "payoff_source": [
                [float(self.payoff_source[(t, b)]) for b in self.interpretations]
                for t in self.intents
            ],
            "prior": [float(self.prior[t]) for t in self.intents],
            "set_equivalent": self.set_equivalent,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> FiniteGame:
        """Parse a game document, rejecting what :meth:`as_jsonable` never writes.

        Labels must be lists of strings, payoffs lists of rows and the
        prior a list, with numbers or decimal strings as entries (never
        booleans), and ``set_equivalent`` a JSON boolean.
        """
        try:
            labels = [data["intents"], data["queries"], data["interpretations"]]
            matrices = [data["payoff_user"], data["payoff_source"]]
            prior = data["prior"]
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed game document: {exc}") from exc
        if not all(
            isinstance(values, list) and all(isinstance(x, str) for x in values)
            for values in labels
        ):
            raise ConfigurationError("game labels must be lists of strings")
        if not isinstance(prior, list) or not all(
            isinstance(rows, list) and all(isinstance(row, list) for row in rows)
            for rows in matrices
        ):
            raise ConfigurationError("payoffs must be lists of rows, the prior a list")
        entries = itertools.chain(prior, *matrices[0], *matrices[1])
        if any(isinstance(x, bool) for x in entries):
            raise ConfigurationError("payoff and prior entries must be numbers")
        set_equivalent = data.get("set_equivalent", False)
        if not isinstance(set_equivalent, bool):
            raise ConfigurationError("set_equivalent must be true or false")
        return cls.build(*labels, *matrices, prior, set_equivalent)


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
    for a, b in itertools.permutations(game.intents, 2):
        for x, y in itertools.permutations(game.interpretations, 2):
            if (
                game.user_payoff(a, x) >= game.user_payoff(a, y)
                and game.user_payoff(b, y) >= game.user_payoff(b, x)
                and game.source_payoff(a, x) >= game.source_payoff(a, y)
                and game.source_payoff(b, y) >= game.source_payoff(b, x)
            ):
                return (a, b, x, y)
    return None


# --------------------------------------------------------------------------- #
# Equilibrium enumeration
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class StrategyPair:
    """Pure strategies: intent -> query for the user, query ->
    interpretation for the source."""

    user: dict[str, str]
    source: dict[str, str]


class EquilibriumClass(Enum):
    NON_INFLUENTIAL = "NonInfluential"
    INFLUENTIAL = "Influential"
    FULLY_INFLUENTIAL = "FullyInfluential"


class ClassifiedEquilibrium(NamedTuple):
    pair: StrategyPair
    classification: EquilibriumClass


def off_path_belief(game: FiniteGame) -> dict[str, Fraction]:
    """Belief at a query no intent sends: the prior, by convention."""
    return dict(game.prior)


def bayes_posterior(
    game: FiniteGame, user_strategy: Mapping[str, str], query: str
) -> dict[str, Fraction]:
    """Posterior over intents given a query under a pure user strategy."""
    weights = {
        intent: game.prior[intent] if user_strategy[intent] == query else Fraction(0)
        for intent in game.intents
    }
    total = sum(weights.values(), start=Fraction(0))
    if total == 0:
        return off_path_belief(game)
    return {intent: weight / total for intent, weight in weights.items()}


def _validate_pair(pair: StrategyPair, game: FiniteGame) -> None:
    if set(pair.user) != set(game.intents):
        raise ConfigurationError("user strategy must cover exactly the intents")
    if set(pair.source) != set(game.queries):
        raise ConfigurationError("source strategy must cover exactly the queries")
    if any(query not in game.queries for query in pair.user.values()):
        raise ConfigurationError("user strategy plays an unknown query")
    if any(
        interpretation not in game.interpretations
        for interpretation in pair.source.values()
    ):
        raise ConfigurationError("source strategy plays an unknown interpretation")


def _best_replies(game: FiniteGame, belief: Mapping[str, Fraction]) -> tuple[str, ...]:
    """Interpretations maximizing the source's expected payoff, in label order."""
    value = {
        b: sum(
            (belief[t] * game.source_payoff(t, b) for t in game.intents),
            start=Fraction(0),
        )
        for b in game.interpretations
    }
    best = max(value.values())
    return tuple(b for b in game.interpretations if value[b] == best)


def _is_equilibrium(pair: StrategyPair, game: FiniteGame) -> bool:
    for intent in game.intents:
        achieved = game.user_payoff(intent, pair.source[pair.user[intent]])
        if any(
            game.user_payoff(intent, pair.source[alternative]) > achieved
            for alternative in game.queries
        ):
            return False
    return all(
        pair.source[query]
        in _best_replies(game, bayes_posterior(game, pair.user, query))
        for query in game.queries
    )


def classify_equilibrium(
    pair: StrategyPair,
    game: FiniteGame,
    *,
    rankings: Mapping[str, WeakOrder] | None = None,
) -> EquilibriumClass:
    """Classification of an equilibrium by how much it communicates.

    Influential means at least two intents end up with different
    responses; fully influential additionally requires, for every
    intent, that its ranking is a super-rank of its response's ranking
    (checked only when ``rankings`` maps the labels involved).
    Non-equilibrium input is rejected.
    """
    _validate_pair(pair, game)
    if not _is_equilibrium(pair, game):
        raise DomainError("strategy pair is not an equilibrium of the game")
    return _classify(pair, game, rankings)


def _classify(
    pair: StrategyPair,
    game: FiniteGame,
    rankings: Mapping[str, WeakOrder] | None,
) -> EquilibriumClass:
    """:func:`classify_equilibrium` for a pair already known to be an equilibrium."""
    on_path = {
        intent: pair.source[pair.user[intent]] for intent in game.intents
    }
    if len(set(on_path.values())) < 2:
        return EquilibriumClass.NON_INFLUENTIAL
    if rankings is None:
        return EquilibriumClass.INFLUENTIAL
    for intent, response in on_path.items():
        if intent not in rankings or response not in rankings:
            raise ConfigurationError(
                f"rankings missing for {intent!r} or {response!r}"
            )
        if not is_super_rank(rankings[intent], rankings[response]):
            return EquilibriumClass.INFLUENTIAL
    return EquilibriumClass.FULLY_INFLUENTIAL


def enumerate_pure_equilibria(
    game: FiniteGame,
    *,
    rankings: Mapping[str, WeakOrder] | None = None,
) -> list[ClassifiedEquilibrium]:
    """All pure-strategy equilibria, classified, in deterministic order.

    The order is that of every pure profile: user maps in query-label
    order, each crossed with source maps in interpretation-label order.
    Only the source's best replies are visited, though.  Under a fixed
    user strategy the posterior at a query depends only on the set of
    intents sending it, so the best replies at a query are computed
    once per sender set (at most 2^|T| per call, exact) and the source
    maps searched are the product of the per-query best sets, each in
    label order -- a subsequence of the full product in the same order.
    A profile is kept when no intent gains by switching queries.

    Cost: |Q|^|T| user maps times the number of best-reply profiles of
    each, plus one best-set evaluation per sender set.  A source that is
    indifferent everywhere makes every profile a candidate, so the worst
    case is still the full |Q|^|T|·|B|^|Q|; games whose profile count
    exceeds a million are refused for that reason.
    """
    profile_count = len(game.queries) ** len(game.intents) * len(
        game.interpretations
    ) ** len(game.queries)
    if profile_count > _PROFILE_CAP:
        raise DomainError(
            f"{profile_count} pure profiles exceed the enumeration cap"
        )
    slot = {query: index for index, query in enumerate(game.queries)}
    # Per intent, each interpretation's user payoff as its dense rank:
    # the deviation check compares one intent's payoffs only.
    user_rank = []
    for intent in game.intents:
        levels = sorted({game.user_payoff(intent, b) for b in game.interpretations})
        user_rank.append(
            {b: levels.index(game.user_payoff(intent, b)) for b in game.interpretations}
        )
    best_by_senders: dict[int, tuple[str, ...]] = {}
    found: list[ClassifiedEquilibrium] = []
    for user_choice in itertools.product(game.queries, repeat=len(game.intents)):
        user = dict(zip(game.intents, user_choice))
        sent = [slot[query] for query in user_choice]
        senders = [0] * len(game.queries)
        for bit, index in enumerate(sent):
            senders[index] |= 1 << bit
        replies = []
        for query, mask in zip(game.queries, senders):
            if mask not in best_by_senders:
                best_by_senders[mask] = _best_replies(
                    game, bayes_posterior(game, user, query)
                )
            replies.append(best_by_senders[mask])
        for source_choice in itertools.product(*replies):
            if all(
                ranks[source_choice[index]]
                == max(map(ranks.__getitem__, source_choice))
                for ranks, index in zip(user_rank, sent)
            ):
                pair = StrategyPair(user, dict(zip(game.queries, source_choice)))
                found.append(
                    ClassifiedEquilibrium(pair, _classify(pair, game, rankings))
                )
    return found
