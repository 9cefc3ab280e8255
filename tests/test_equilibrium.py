"""Finite signaling games: equilibria, influence witnesses, classification."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest
from oracles import labelled, pure_equilibria_oracle

import coiquery.equilibrium as equilibrium
from coiquery import (
    ConfigurationError,
    DomainError,
    EquilibriumClass,
    FiniteGame,
    StrategyPair,
    commission_game,
    enumerate_pure_equilibria,
    influential_witness,
)
from coiquery.cli import _read_game


# --------------------------------------------------------------------------- #
# Game construction
# --------------------------------------------------------------------------- #


def test_commission_game_shape():
    game = commission_game(1, 2)
    assert game.intents == ("tau", "tau_prime")
    assert game.queries == ("q", "q_prime")
    assert game.interpretations == ("beta", "beta_prime")
    assert game.set_equivalent
    assert game.prior == (Fraction(1, 2), Fraction(1, 2))
    assert game.payoff_user == ((0, 2), (2, 0))
    tables = labelled(game)
    assert tables.prior == {"tau": Fraction(1, 2), "tau_prime": Fraction(1, 2)}
    assert tables.payoff_user["tau", "beta"] == 0
    assert tables.payoff_user["tau", "beta_prime"] == 2
    assert tables.payoff_source["tau", "beta"] == -1  # commission minus loss
    assert tables.payoff_source["tau_prime", "beta_prime"] == -2


def test_build_validates_prior_and_shapes():
    with pytest.raises(ConfigurationError):
        FiniteGame.build(
            ["t"], ["q"], ["b"], [[1]], [[1]], [Fraction(1, 2)]
        )
    with pytest.raises(ConfigurationError):
        FiniteGame.build(
            ["t", "t"], ["q"], ["b"], [[1], [1]], [[1], [1]], [1, 0]
        )
    with pytest.raises(ConfigurationError, match="user matrix must be 1 x 1"):
        FiniteGame.build(["t"], ["q"], ["b"], [[1, 2]], [[1]], [1])
    # Built directly, the game checks each matrix's shape and the prior's length.
    one = ((Fraction(1),),)
    prior = (Fraction(1),)
    for user, source, weights, message in [
        ((), one, prior, "user matrix must be 1 x 1"),
        (one, ((),), prior, "source matrix must be 1 x 1"),
        (one, one + one, prior, "source matrix must be 1 x 1"),
        (one, one, prior * 2, "prior length must match the intents"),
    ]:
        with pytest.raises(ConfigurationError, match=message):
            FiniteGame(("t",), ("q",), ("b",), user, source, weights)


# --------------------------------------------------------------------------- #
# Influence witnesses
# --------------------------------------------------------------------------- #


def test_cheap_commission_admits_an_influence_witness():
    assert influential_witness(commission_game(1, 2)) == (
        "tau",
        "tau_prime",
        "beta_prime",
        "beta",
    )


def test_commission_above_loss_has_no_witness():
    assert influential_witness(commission_game(3, 2)) is None


def test_witness_requires_set_equivalence():
    game = FiniteGame.build(
        ["t1", "t2"],
        ["q1", "q2"],
        ["b1", "b2"],
        [[0, 1], [1, 0]],
        [[0, 1], [1, 0]],
        [Fraction(1, 2), Fraction(1, 2)],
        set_equivalent=False,
    )
    with pytest.raises(DomainError):
        influential_witness(game)


def test_all_equal_payoffs_satisfy_the_weak_inequalities():
    game = FiniteGame.build(
        ["t1", "t2"],
        ["q1", "q2"],
        ["b1", "b2"],
        [[1, 1], [1, 1]],
        [[1, 1], [1, 1]],
        [Fraction(1, 2), Fraction(1, 2)],
        set_equivalent=True,
    )
    assert influential_witness(game) is not None


# --------------------------------------------------------------------------- #
# Enumeration and classification
# --------------------------------------------------------------------------- #


def _expected_source_value(game, posterior, interp):
    return sum(
        posterior[intent] * game.payoff_source[intent, interp]
        for intent in game.intents
    )


def _is_equilibrium_longhand(pair, game):
    """Re-derive the equilibrium conditions without the package's checker."""
    game = labelled(game)
    for query in game.queries:
        supporters = [t for t in game.intents if pair.user[t] == query]
        if supporters:
            mass = sum(game.prior[t] for t in supporters)
            posterior = {
                t: (game.prior[t] / mass if t in supporters else Fraction(0))
                for t in game.intents
            }
        else:
            posterior = dict(game.prior)
        chosen = _expected_source_value(game, posterior, pair.source[query])
        for interp in game.interpretations:
            if _expected_source_value(game, posterior, interp) > chosen:
                return False
    for intent in game.intents:
        current = game.payoff_user[intent, pair.source[pair.user[intent]]]
        for query in game.queries:
            if game.payoff_user[intent, pair.source[query]] > current:
                return False
    return True


def test_cheap_commission_equilibria_split_two_pooling_two_separating():
    game = commission_game(1, 2)
    found = enumerate_pure_equilibria(game)
    by_class = {}
    for item in found:
        by_class.setdefault(item.classification, []).append(item.pair)
    assert len(by_class[EquilibriumClass.NON_INFLUENTIAL]) == 2
    assert len(by_class[EquilibriumClass.INFLUENTIAL]) == 2
    separating = StrategyPair(
        {"tau": "q", "tau_prime": "q_prime"},
        {"q": "beta_prime", "q_prime": "beta"},
    )
    assert any(
        pair.user == separating.user and pair.source == separating.source
        for pair in by_class[EquilibriumClass.INFLUENTIAL]
    )


def test_expensive_commission_equilibria_are_all_pooled_on_beta():
    game = commission_game(3, 2)
    found = enumerate_pure_equilibria(game)
    assert found
    for item in found:
        assert item.classification is EquilibriumClass.NON_INFLUENTIAL
        assert set(item.pair.source.values()) == {"beta"}


def test_every_enumerated_profile_survives_longhand_deviation_checks():
    rng = random.Random(61)
    for _ in range(20):
        payoff_user = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        payoff_source = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        game = FiniteGame.build(
            ["t1", "t2"],
            ["q1", "q2"],
            ["b1", "b2"],
            payoff_user,
            payoff_source,
            [Fraction(1, 2), Fraction(1, 2)],
            set_equivalent=True,
        )
        found = enumerate_pure_equilibria(game)
        for item in found:
            assert _is_equilibrium_longhand(item.pair, game)


def _triples(found):
    return [
        (item.pair.user, item.pair.source, item.classification.value)
        for item in found
    ]


def _random_game(rng, shape, variant):
    """A random game of ``shape``; ``variant`` picks the payoff and prior kind.

    ``integer``: payoffs in [-2, 2]; ``zero_prior``: the same, but the
    first intent has no prior mass; ``fractional``: payoffs and priors in
    thirds and sixths, so expected values tie; ``flat``: all payoffs
    equal, so every profile is a candidate.
    """
    intents, queries, answers = shape
    if variant == "fractional":
        values = [Fraction(n, 6) for n in (-3, -2, 0, 2, 3)]
    elif variant == "flat":
        values = [Fraction(1, 3)]
    else:
        values = list(range(-2, 3))

    def payoffs():
        return [[rng.choice(values) for _ in range(answers)] for _ in range(intents)]

    if variant == "fractional":
        weights = [rng.choice((1, 2, 3)) for _ in range(intents)]
    else:
        low = 0 if variant == "zero_prior" else 1
        weights = [rng.randint(low, 4) for _ in range(intents)]
        if variant == "zero_prior":
            weights[0] = 0
            weights[-1] = max(weights[-1], 1)
    total = sum(weights)
    return FiniteGame.build(
        [f"t{i}" for i in range(intents)],
        [f"q{i}" for i in range(queries)],
        [f"b{i}" for i in range(answers)],
        payoffs(),
        payoffs(),
        [Fraction(w, total) for w in weights],
    )


_ORACLE_SHAPES = list(itertools.product((1, 2, 3), repeat=3)) + [
    (4, 2, 2),
    (2, 4, 2),
    (2, 2, 4),
    (4, 3, 2),
    (3, 2, 4),
]


@pytest.mark.parametrize(
    "shape", _ORACLE_SHAPES, ids=lambda shape: "x".join(map(str, shape))
)
def test_enumeration_matches_the_brute_force_oracle(shape):
    rng = random.Random("".join(map(str, shape)))
    for variant in ("integer", "zero_prior", "fractional", "flat"):
        for _ in range(3):
            game = _random_game(rng, shape, variant)
            assert _triples(enumerate_pure_equilibria(game)) == (
                pure_equilibria_oracle(game)
            ), (shape, variant)


_FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)


def test_enumeration_makes_no_fraction_arithmetic_per_profile(monkeypatch):
    # The payoffs and prior are scaled to integers once; best replies
    # and deviation checks then add and compare ints.  At most one
    # operation per table cell (|T|·|B|) is allowed for building them,
    # and no division at all.
    calls = []
    game = _random_game(random.Random(43), (4, 4, 3), "fractional")
    for name in _FRACTION_ARITHMETIC:
        method = getattr(Fraction, name)

        def counted(a, b, method=method, name=name):
            calls.append(name)
            return method(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    found = enumerate_pure_equilibria(game)
    monkeypatch.undo()
    assert found and len(calls) <= 4 * 3, sorted(set(calls))
    assert "__truediv__" not in calls and "__rtruediv__" not in calls
    assert _triples(found) == pure_equilibria_oracle(game)


def _game_document(prior, payoff_source, payoff_user=None):
    """A 3-intent, 2-query game document with the given source payoffs."""
    return {
        "intents": ["t0", "t1", "t2"],
        "queries": ["q0", "q1"],
        "interpretations": [f"b{j}" for j in range(len(payoff_source[0]))],
        "payoff_user": payoff_user or [[1, 0, 1], [0, 1, 1], [1, 1, 0]],
        "payoff_source": payoff_source,
        "prior": prior,
    }


_COMMON_DENOMINATOR_GAMES = {
    # Binary floats; the last weight is their exact complement, as a prior
    # must sum to exactly 1.
    "binary-float-prior": _game_document(
        [0.1, 0.2, str(1 - Fraction(0.1) - Fraction(0.2))],
        [[0.3, -0.1, 0.2], [0.1, 0.7, -0.3], [0.2, 0.2, 0.2]],
    ),
    # Payoffs 10^±4000 apart: ties broken only at the smallest scale.
    "huge-exponents": _game_document(
        ["0.25", "0.25", "0.5"],
        [["1e4000", "1e4000", "-2e3999"], ["3e-4000", "0", "1e-4000"],
         ["-1e4000", "-1e4000", "7E+3998"]],
        [["1e-4000", "0", "1e-4000"], ["0", "-4e-4000", "0"], ["2e4000", "2e4000", "1"]],
    ),
    "tiny-prior-weight": _game_document(
        ["1e-4000", "0.5", "0.4" + "9" * 3999],  # the last weight is 0.5 - 1e-4000
        [["1e4000", "0", "0"], ["0", "1", "1"], ["0", "1", "1"]],
    ),
    # Only the zero-weight intent sends one query: its belief is the prior.
    "zero-weight-intent": _game_document(
        [0, 0.25, 0.75], [[5, -1, 0], [-1, 1, 0], [0, -1, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ),
}


@pytest.mark.parametrize("name", _COMMON_DENOMINATOR_GAMES)
def test_common_denominator_edge_cases_match_the_oracle(name):
    game = _read_game(_COMMON_DENOMINATOR_GAMES[name])
    started = time.perf_counter()
    found = enumerate_pure_equilibria(game)
    assert time.perf_counter() - started < 1.0
    assert found and _triples(found) == pure_equilibria_oracle(game)


def test_enumeration_profile_cap():
    intents = [f"t{i}" for i in range(7)]
    queries = [f"q{i}" for i in range(10)]
    interpretations = ["b1", "b2"]
    payoff = [[0, 0] for _ in intents]
    game = FiniteGame.build(
        intents,
        queries,
        interpretations,
        payoff,
        payoff,
        [Fraction(1, 7)] * 7,
    )
    with pytest.raises(DomainError):
        enumerate_pure_equilibria(game)


def test_profile_cap_admits_exactly_its_count(monkeypatch):
    # Two intents, two queries, two interpretations: 2^2 user strategies
    # times 2^2 source strategies.
    game = commission_game(1, 2)
    monkeypatch.setattr(equilibrium, "_PROFILE_CAP", 16)
    assert _triples(enumerate_pure_equilibria(game)) == pure_equilibria_oracle(game)
    monkeypatch.setattr(equilibrium, "_PROFILE_CAP", 15)
    with pytest.raises(DomainError, match="16 pure profiles exceed"):
        enumerate_pure_equilibria(game)
