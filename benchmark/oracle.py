"""Independent checks of ``coiquery`` reports.

Each function recomputes what a report claims from the benchmark's own
copy of the formulas and returns a list of problems (empty when the
report is correct).  Nothing here imports the package under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

#: Trustworthy keys per request re-screened by the full separation scan.
TRUST_SCAN_SAMPLE = 12


def threshold_numerators(z, d):
    """Gap and shift numerators over their shared scale, at separation d.

    Works on Python ints and on numpy int64 arrays alike (every term
    stays below 2^63 for z up to 2.5e5).
    """
    scale = 3 * (z * z - z + d * (2 * z + 1) - d * d)
    gap = -(d**3) + 3 * d * d * z + d * z * z + d + z * z - z
    shift = (z - d) * (z - d + 1) * (2 * d + z - 1)
    return gap, shift, scale


def _witness_window(z: int, d: int) -> tuple[Fraction, Fraction] | None:
    """``(gap, max(gap - 1, shift))`` at separation d, or None if infeasible."""
    if not 1 <= d < z:
        return None
    gap, shift, scale = threshold_numerators(z, d)
    if shift >= gap:
        return None
    return Fraction(gap, scale), Fraction(max(gap - scale, shift), scale)


def check_trust(
    report: dict, keys: list[str], bias: dict[str, int], z: int, low: int, high: int
) -> list[str]:
    """Partition, witnesses and a sample of trustworthy keys of a trust report."""
    trustworthy = report["trustworthy"]
    flagged = report["flagged"]
    named = trustworthy + [entry["key"] for entry in flagged]
    if len(named) != len(set(named)) or set(named) != set(keys):
        return ["keys are not each classified exactly once"]
    problems = []
    for entry in flagged:
        key, d = entry["key"], entry["delta"]
        window = _witness_window(z, d)
        if window is None:
            problems.append(f"{key}: separation {d} is infeasible at z={z}")
            continue
        gap, floor = window
        start, end = bias[key] - gap, bias[key] - floor
        if entry["interval"] != [float(start), float(end)]:
            problems.append(f"{key}: interval {entry['interval']} is not [{start}, {end})")
        if not max(start, low) < min(end, high):
            problems.append(f"{key}: witness window misses the bias range")
    if trustworthy:
        separations = np.arange(1, z, dtype=np.int64)
        gap, shift, scale = threshold_numerators(np.int64(z), separations)
        feasible = shift < gap
        gap, scale = gap[feasible], scale[feasible]
        floor = np.maximum(gap - scale, shift[feasible])
        for key in trustworthy[:TRUST_SCAN_SAMPLE]:
            value = bias[key]
            # Flagged iff some window [value - gap, value - floor) meets
            # [low, high] strictly, cross-multiplied by the scale.
            if np.any((gap > (value - high) * scale) & (floor < (value - low) * scale)):
                problems.append(f"{key}: reported trustworthy but a window meets the range")
    return problems


def _ranks(blocks: list[list[str]]) -> dict[str, int]:
    ranks, position = {}, 1
    for block in blocks:
        for key in block:
            ranks[key] = position
        position += len(block)
    return ranks


def check_influence(report: dict, intent: list[str]) -> list[str]:
    """Intent and base satisfy every constraint; the set kind is consistent."""
    base = report["base"]
    if any(len(block) != 1 for block in base) or sorted(k for b in base for k in b) != sorted(intent):
        return ["base is not a total order of the intent's keys"]
    intent_rank = {key: i for i, key in enumerate(intent, start=1)}
    base_rank = _ranks(base)
    problems = []
    for constraint in report["query"]["constraints"]:
        subject, rival, gap = constraint["e"], constraint["eprime"], constraint["delta"]
        for label, rank in (("intent", intent_rank), ("base", base_rank)):
            if rank[rival] - rank[subject] < gap:
                problems.append(f"{label} violates r({rival}) - r({subject}) >= {gap}")
    kind = report["ranking_set"]["kind"]
    if kind == "Empty":
        problems.append("ranking set reported empty although the intent satisfies it")
    if kind == "Singleton" and [k for b in base for k in b] != intent:
        problems.append("ranking set is a singleton but the base differs from the intent")
    return problems


def block_user_utility(start: int, end: int, bias: Fraction, z: int, k: int) -> Fraction:
    """Expected product-user utility of one tuple tied over positions start..end.

    The product-biased source pushes a tuple to the bottom when its
    block mean exceeds its bias and to the top when it falls short;
    ranks past the cutoff k read as z + 1.
    """
    mean = Fraction(start + end, 2)
    assigned = z if mean > bias else 1
    response = assigned if assigned <= k else z + 1
    return -mean * response


def check_merge(
    report: dict, intent: list[str], bias: dict[str, float], z: int, k: int
) -> list[str]:
    """The partition tiles 1..m and its recomputed value is the reported opt."""
    merge = report["merge"]
    ranking, partition = merge["ranking"], merge["partition"]
    if [key for block in ranking for key in block] != intent:
        return ["merged ranking does not keep the pinned intent order"]
    expected_start = 1
    for (start, end), block in zip(partition, ranking):
        if start != expected_start or end < start or len(block) != end - start + 1:
            return [f"partition {partition} does not tile the ranking"]
        expected_start = end + 1
    if len(partition) != len(ranking) or expected_start != len(intent) + 1:
        return [f"partition {partition} does not tile 1..{len(intent)}"]
    exact = {key: Fraction(repr(value)) for key, value in bias.items()}

    def value(intervals) -> Fraction:
        return sum(
            (
                block_user_utility(start, end, exact[intent[p - 1]], z, k)
                for start, end in intervals
                for p in range(start, end + 1)
            ),
            Fraction(0),
        )

    opt = value(partition)
    problems = []
    if float(opt) != merge["opt"]:
        problems.append(f"partition value {float(opt)} differs from reported opt {merge['opt']}")
    size = len(intent)
    for label, other in (
        ("no merge", [(p, p) for p in range(1, size + 1)]),
        ("one block", [(1, size)]),
    ):
        if value(other) > opt:
            problems.append(f"reported optimum is beaten by {label}")
    return problems


def _is_equilibrium(game: dict, user: dict[str, str], source: dict[str, str]) -> bool:
    """Both players best-respond; off-path queries take the prior belief."""
    intents, queries = game["intents"], game["queries"]
    answers = game["interpretations"]
    u = {(t, b): game["payoff_user"][i][j] for i, t in enumerate(intents) for j, b in enumerate(answers)}
    v = {(t, b): game["payoff_source"][i][j] for i, t in enumerate(intents) for j, b in enumerate(answers)}
    prior = {t: Fraction(w) for t, w in zip(intents, game["prior"])}
    for t in intents:
        if max(u[t, source[q]] for q in queries) > u[t, source[user[t]]]:
            return False
    for q in queries:
        weights = {t: prior[t] for t in intents if user[t] == q} or prior
        payoff = {b: sum(w * v[t, b] for t, w in weights.items()) for b in answers}
        if max(payoff.values()) > payoff[source[q]]:
            return False
    return True


def check_equilibrium(report: dict, game: dict) -> list[str]:
    """Every listed pair is an equilibrium, classified and counted correctly."""
    problems = []
    seen = set()
    influential = 0
    for entry in report["equilibria"]:
        user, source = entry["user"], entry["source"]
        profile = (tuple(sorted(user.items())), tuple(sorted(source.items())))
        if profile in seen:
            problems.append(f"equilibrium listed twice: {profile}")
        seen.add(profile)
        if set(user) != set(game["intents"]) or set(source) != set(game["queries"]):
            problems.append(f"strategy pair does not cover the game: {profile}")
            continue
        if not _is_equilibrium(game, user, source):
            problems.append(f"not a best-response pair: {profile}")
        responses = {source[user[t]] for t in game["intents"]}
        expected = "NonInfluential" if len(responses) < 2 else "Influential"
        if entry["classification"] != expected:
            problems.append(f"{profile} classified {entry['classification']}, not {expected}")
        influential += expected != "NonInfluential"
    if report["influential_count"] != influential:
        problems.append("influential_count disagrees with the listed equilibria")
    witness = report.get("witness")
    if witness:
        if not _aligned(game, *witness):
            problems.append(f"witness {witness} violates a preference inequality")
    elif game["set_equivalent"] and any(
        _aligned(game, a, b, x, y)
        for a, b in itertools.permutations(game["intents"], 2)
        for x, y in itertools.permutations(game["interpretations"], 2)
    ):
        problems.append("no witness reported although an aligned pairing exists")
    return problems


def _aligned(game: dict, a: str, b: str, x: str, y: str) -> bool:
    """Both players weakly prefer x for intent a and y for intent b."""
    row = {t: i for i, t in enumerate(game["intents"])}
    col = {r: j for j, r in enumerate(game["interpretations"])}
    return all(
        table[row[a]][col[x]] >= table[row[a]][col[y]]
        and table[row[b]][col[y]] >= table[row[b]][col[x]]
        for table in (game["payoff_user"], game["payoff_source"])
    )
