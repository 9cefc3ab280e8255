"""Seeded request streams for the five benchmark workloads.

Every workload turns ``--seed`` into a deterministic, endless stream of
requests.  A request is the argv of one ``coiquery`` subcommand, the
JSON files that argv names, and the independent check applied to the
report.  The program under test sees only the files.

Why each workload exists is recorded in ``README.md`` next to this
file; the size constants below are the ones measured there.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import oracle


@dataclass
class Request:
    """One CLI invocation: argv, the files it reads, and its output check."""

    argv: list[str]
    files: dict[Path, object]
    check: Callable[[dict], list[str]]
    decided: Callable[[dict], bool] = field(default=lambda report: True)
    universe: int | None = None  # trust requests: the universe size they screen

    def write_files(self) -> None:
        for path, document in self.files.items():
            path.write_text(json.dumps(document), encoding="utf-8")


class Workload:
    """Base class: a named request stream with a per-request deadline."""

    name = ""
    deadline_s = 0.0
    #: Requests in one round of the stratified size mix (see ``_strata``):
    #: blocks of whole rounds all have the same mix.
    round_size = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir

    def warmup(self) -> list[Request]:
        """Requests whose cost is declared set-up, not measured load."""
        return []

    def requests(self) -> Iterator[Request]:
        raise NotImplementedError

    def path(self, label: str, index: int) -> Path:
        return self.workdir / f"{label}-{index}.json"


def _strata(rng: random.Random, values: list) -> Iterator:
    """Endless sequence covering ``values`` once per shuffled round.

    Cycling every size once per round keeps the size mix of a run the
    same from seed to seed; the seed still picks every input.
    """
    while True:
        round_ = list(values)
        rng.shuffle(round_)
        yield from round_


# --------------------------------------------------------------------------- #
# trust
# --------------------------------------------------------------------------- #


def _trust_request(
    rng: random.Random, universe: int, key_count: int, config: Path, beta: Path
) -> Request:
    """Screen ``key_count`` keys of a ``universe``-sized rank grid.

    Biases are integers uniform on ``[0, 0.3 z]`` so that about half of
    the keys are flagged; the ``[0, 3]`` range of ``coiquery bench``
    flags nothing once z exceeds about 20.
    """
    upper = (3 * universe) // 10
    keys = [f"e{i}" for i in rng.sample(range(1, universe + 1), key_count)]
    bias = {key: rng.randint(0, upper) for key in keys}
    document = {
        "z": universe,
        "k": 80,
        "bias": {"entries": bias, "lower": 0, "upper": upper},
    }
    return Request(
        ["trust", "--config", str(config), "--beta", str(beta)],
        {config: document, beta: [[key] for key in keys]},
        lambda report: oracle.check_trust(report, keys, bias, universe, 0, upper),
        universe=universe,
    )


class TrustCold(Workload):
    """Every request brings a universe size never seen before in the run.

    Sizes are log-uniform, stratified: each round of ``strata`` requests
    draws one size from each equal slice of the log range, in shuffled
    order, so every run sees the same spread of sizes.
    """

    name = "trust-cold"
    deadline_s = 10.0
    universe_range = (25_000, 100_000)
    strata = 8
    round_size = strata
    key_count = 1_000

    def requests(self) -> Iterator[Request]:
        seen: set[int] = set()
        low, high = (math.log(bound) for bound in self.universe_range)
        width = (high - low) / self.strata
        slices = _strata(self.rng, list(range(self.strata)))
        for index, piece in enumerate(slices):
            universe = 0
            while universe == 0 or universe in seen:
                start = low + piece * width
                universe = round(math.exp(self.rng.uniform(start, start + width)))
            seen.add(universe)
            yield _trust_request(
                self.rng,
                universe,
                self.key_count,
                self.path("config", index),
                self.path("beta", index),
            )


class TrustWarm(Workload):
    """Requests rotate over three universes that fit the index cache."""

    name = "trust-warm"
    deadline_s = 10.0
    universe_range = (150_000, 190_000)
    universe_count = 3
    round_size = universe_count
    key_count = 3_000

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.universes = self.rng.sample(
            range(self.universe_range[0], self.universe_range[1] + 1),
            self.universe_count,
        )
        self.stream = self._stream()

    def _stream(self) -> Iterator[Request]:
        for index in itertools.count():
            yield _trust_request(
                self.rng,
                self.universes[index % self.universe_count],
                self.key_count,
                self.path("config", index),
                self.path("beta", index),
            )

    def warmup(self) -> list[Request]:
        return [next(self.stream) for _ in range(self.universe_count)]

    def requests(self) -> Iterator[Request]:
        return self.stream


# --------------------------------------------------------------------------- #
# influence
# --------------------------------------------------------------------------- #


class InfluenceConflict(Workload):
    """Total-order intents whose bias gaps give conflicting separations.

    About one request in 8,000 spends seconds in ``base_query``; the
    deadline stays far above the slowest measured (see README.md), so
    those requests are timed as slow answers, not counted as failures.
    """

    name = "influence-conflict"
    deadline_s = 60.0
    sizes = list(range(13, 17))
    round_size = len(sizes)

    def requests(self) -> Iterator[Request]:
        for index, size in enumerate(_strata(self.rng, self.sizes)):
            keys = [f"e{i}" for i in range(1, size + 1)]
            self.rng.shuffle(keys)
            bias = {key: self.rng.randint(0, 30) / 10 for key in keys}
            config, intent = self.path("config", index), self.path("intent", index)
            document = {
                "z": self.rng.randint(size, 3 * size),
                "bias": {"entries": bias, "lower": 0, "upper": 3},
            }
            yield Request(
                ["influence", "--config", str(config), "--intent", str(intent)],
                {config: document, intent: [[key] for key in keys]},
                lambda report, keys=keys: oracle.check_influence(report, keys),
                lambda report: report["ranking_set"]["kind"] != "Unknown",
            )


# --------------------------------------------------------------------------- #
# maximize
# --------------------------------------------------------------------------- #


class MaximizeMild(Workload):
    """Product utilities with a shared bias level: the query pins the intent.

    Per-key spreads stay below 1/3, so every pairwise bias gap lies in
    (-1/3, 2/3] and the minimum separation is 1 for every pair.  Bias
    values keep two decimals and are never a multiple of 1/2, so the
    source is never indifferent and the result does not depend on
    whether the program reads them as binary floats or decimals.
    """

    name = "maximize-mild"
    deadline_s = 20.0
    sizes = list(range(30, 43))
    round_size = len(sizes)

    def requests(self) -> Iterator[Request]:
        for index, size in enumerate(_strata(self.rng, self.sizes)):
            keys = [f"e{i}" for i in range(1, size + 1)]
            self.rng.shuffle(keys)
            level = self.rng.uniform(size / 4, size / 2)
            bias = {}
            for key in keys:
                cents = round(100 * (level + self.rng.uniform(0, 0.3)))
                if cents % 50 == 0:
                    cents += 1
                bias[key] = cents / 100
            document = {
                "z": size,
                "k": size // 4,
                "kind_user": "product_user",
                "kind_source": "product_source_biased",
                "bias": {"entries": bias},
            }
            config, intent = self.path("config", index), self.path("intent", index)
            yield Request(
                ["maximize", "--config", str(config), "--intent", str(intent)],
                {config: document, intent: [[key] for key in keys]},
                lambda report, keys=keys, bias=bias, size=size: oracle.check_merge(
                    report, keys, bias, size, size // 4
                ),
            )


# --------------------------------------------------------------------------- #
# equilibrium
# --------------------------------------------------------------------------- #


def _dyadic_prior(rng: random.Random, count: int) -> list[float]:
    """Random prior in sixteenths: exact as JSON numbers, every weight > 0."""
    cuts = sorted(rng.sample(range(1, 16), count - 1))
    bounds = [0, *cuts, 16]
    return [(bounds[i + 1] - bounds[i]) / 16 for i in range(count)]


class EquilibriumGames(Workload):
    """Random finite games of every shape in {2,3,4}^3 but 4x4x4, plus commission games.

    A 4x4x4 game (65,536 pure profiles, about 1.2 s) took 40% of a
    round's time and made the p90 latency and request rate of a run
    depend on how many of them it drew; see README.md.
    """

    name = "equilibrium-games"
    deadline_s = 20.0
    shapes = [s for s in itertools.product((2, 3, 4), repeat=3) if s != (4, 4, 4)]
    #: Commission games per round: a quarter of its requests, as near as
    #: 26 shapes allow.
    commission_games = 9
    round_size = len(shapes) + commission_games

    def requests(self) -> Iterator[Request]:
        kinds = self.shapes + [None] * self.commission_games
        for index, shape in enumerate(_strata(self.rng, kinds)):
            game = self._commission_game() if shape is None else self._random_game(*shape)
            path = self.path("game", index)
            yield Request(
                ["equilibrium", "--game", str(path)],
                {path: game},
                lambda report, game=game: oracle.check_equilibrium(report, game),
            )

    def _random_game(self, intents: int, queries: int, answers: int) -> dict:
        rng = self.rng

        def payoffs() -> list[list[int]]:
            return [[rng.randint(-3, 3) for _ in range(answers)] for _ in range(intents)]

        return {
            "intents": [f"t{i}" for i in range(1, intents + 1)],
            "queries": [f"q{i}" for i in range(1, queries + 1)],
            "interpretations": [f"b{i}" for i in range(1, answers + 1)],
            "payoff_user": payoffs(),
            "payoff_source": payoffs(),
            "prior": _dyadic_prior(rng, intents),
            "set_equivalent": rng.random() < 0.5,
        }

    def _commission_game(self) -> dict:
        """The two-intent sales game with a random commission and loss."""
        commission, loss = self.rng.randint(0, 4), self.rng.randint(1, 4)
        return {
            "intents": ["tau", "tau_prime"],
            "queries": ["q", "q_prime"],
            "interpretations": ["beta", "beta_prime"],
            "payoff_user": [[0, 2], [2, 0]],
            "payoff_source": [[commission - loss, 0], [commission, -loss]],
            "prior": [0.5, 0.5],
            "set_equivalent": True,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (TrustCold, TrustWarm, InfluenceConflict, MaximizeMild, EquilibriumGames)
}
