"""Wall-clock benchmark suites for the trust filter and the merge DP.

Two size sweeps, both deterministic per seed: the trust suite screens a
fixed-width returned ranking against growing universe sizes (the
closed-form search is logarithmic in the universe size, so the key
count dominates), and the DP suite times ``maximize_merge_dp`` on
explicit total-order bases (expected near-quadratic in the ranking
length).
Timings are medians over ``runs`` repetitions of cold calls; the
per-universe pivot cache is cleared before every repetition so each
run pays the full closed-form search.

Results are plain ``(size, millis)`` rows, written as a two-column CSV
with header ``m,millis``.
"""

from __future__ import annotations

import csv
import random
import statistics
import time
from fractions import Fraction
from typing import IO, Iterable, NamedTuple, Sequence

from .core import BiasFunction, WeakOrder
from .merge import maximize_merge_dp
from .trust import _floor_pivot, detect_trustworthy
from .utility import UtilityContext, UtilityKind

__all__ = [
    "BenchRow",
    "DEFAULT_DP_SIZES",
    "DEFAULT_TRUST_SIZES",
    "run_dp_suite",
    "run_trust_suite",
    "write_csv",
]

DEFAULT_TRUST_SIZES = (10**4, 10**5, 10**6)
DEFAULT_DP_SIZES = (250, 500, 1000)

_RETURNED_KEYS = 2000


class BenchRow(NamedTuple):
    size: int
    millis: float


def _rng_for(seed: int, size: int) -> random.Random:
    return random.Random(seed * 1_000_003 + size)


def run_trust_suite(
    sizes: Sequence[int] = DEFAULT_TRUST_SIZES,
    *,
    seed: int = 1,
    runs: int = 5,
) -> list[BenchRow]:
    """Time the trust filter across universe sizes.

    Each instance screens a 2000-key returned ranking (or fewer when
    the universe is smaller) with random biases in ``[0, 3]``.
    """
    rows: list[BenchRow] = []
    for size in sizes:
        rng = _rng_for(seed, size)
        key_count = min(_RETURNED_KEYS, size)
        keys = [f"e{i}" for i in range(1, key_count + 1)]
        beta = WeakOrder.total(keys)
        bias = BiasFunction(
            {k: Fraction(rng.randint(0, 3 * 10**6), 10**6) for k in keys},
            lower=Fraction(0),
            upper=Fraction(3),
        )
        ctx = UtilityContext(universe_size=size, top_k=size, bias=bias)
        samples = []
        for _ in range(runs):
            _floor_pivot.cache_clear()
            started = time.perf_counter()
            detect_trustworthy(beta, ctx)
            samples.append(time.perf_counter() - started)
        rows.append(BenchRow(size, statistics.median(samples) * 1000.0))
    return rows


def run_dp_suite(
    sizes: Sequence[int] = DEFAULT_DP_SIZES,
    *,
    seed: int = 1,
    runs: int = 5,
) -> list[BenchRow]:
    """Time the merge DP on shuffled total-order intents.

    The base ranking is passed explicitly (the intent itself), so the
    measurement covers exactly the score table and the DP, not the
    difference-constraint construction.
    """
    rows: list[BenchRow] = []
    for size in sizes:
        rng = _rng_for(seed, size)
        keys = [f"e{i}" for i in range(1, size + 1)]
        order = list(keys)
        rng.shuffle(order)
        intent = WeakOrder.total(order)
        bias = BiasFunction(
            {k: Fraction(rng.randint(0, 2 * 10**6), 10**6) for k in keys},
            lower=Fraction(0),
            upper=Fraction(2),
        )
        ctx = UtilityContext(
            universe_size=size,
            top_k=max(1, size // 4),
            bias=bias,
            kind_user=UtilityKind.QUADRATIC_USER,
            kind_source=UtilityKind.QUADRATIC_SOURCE_BIASED,
        )
        samples = []
        for _ in range(runs):
            started = time.perf_counter()
            maximize_merge_dp(intent, ctx, base=intent)
            samples.append(time.perf_counter() - started)
        rows.append(BenchRow(size, statistics.median(samples) * 1000.0))
    return rows


def write_csv(rows: Iterable[BenchRow], stream: IO[str]) -> None:
    """Write ``(size, millis)`` rows as CSV with header ``m,millis``."""
    writer = csv.writer(stream)
    writer.writerow(["m", "millis"])
    for row in rows:
        writer.writerow([row.size, f"{row.millis:.3f}"])
