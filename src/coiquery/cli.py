"""Command-line entry point: one binary, subcommand per analysis.

Subcommands
-----------
trust        screen a returned ranking for trustworthy vs flagged keys
influence    build the difference-constraint query for an intent, with
             its base ranking and ranking-set classification
maximize     run the merge dynamic program (optionally against the
             brute-force oracle)
equilibrium  analyze a finite game: witness search plus every
             pure equilibrium, found among the source's best replies
bench        timing sweeps (trust filter or merge DP) as CSV

This module is the package's JSON boundary: it reads every document and
writes every report.

Reports go to standard output (or the ``--output`` file) as one line of
compact JSON with sorted keys and a trailing newline (CSV for bench);
``python3 -m json.tool`` indents one for reading.  Diagnostics go to
standard error.  Exit codes: 0 success, 1 analysis failure (a report
value beyond the float range among them), 2 usage or configuration error
(invalid or too deeply nested JSON, an intent of more keys than ``z``,
an ``--output`` that cannot be written, and a ``bench --suite dp`` size
above 4000 among them).  ``COI_LOG`` sets the stderr log level; the one
record the package writes is the DEBUG line of ``influence`` when more
than one separation covers a bias gap.

The configuration file is a JSON object; all keys optional unless
noted::

    {
      "z": 10,                  // universe size (or derived from attributes)
      "k": 3,                   // top-k cutoff, default z
      "omitted_rank": null,     // default z + 1
      "kind_user": "quadratic_user",
      "kind_source": "quadratic_source_biased",
      "bias": {"entries": {"e1": 2.0}, "default": 0, "lower": 0, "upper": 3},
      "attributes": [{"name": "brand", "values": ["JBL", "Sony"]}],
      "bias_rules": [{"when": {"brand": "Sony"}, "bias": 2}],
      "scale": 1
    }

When ``attributes`` are given, each ``name`` a string and its
``values`` a list, ``z`` is the product of their value counts; no
element is built for it.  ``bias_rules`` then give each
element of that product, keyed ``e1 .. em`` in ``itertools.product``
order, the first matching rule's ``bias`` times ``scale`` (0 when none
matches), for products of at most ``10**6`` elements.  An explicit
``bias`` object takes precedence, and the rules are then not read.
Other keys are ignored.  ``z`` and every bias value (entries,
``default``, ``lower``, ``upper``, a rule's ``bias`` times ``scale``)
must have magnitude at most ``10**300``; larger values are configuration
errors.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import logging
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Sequence

from .core import (
    BiasFunction,
    ConfigurationError,
    QueryAnalysisError,
    WeakOrder,
    _exact,
    as_fraction,
)
from .equilibrium import (
    EquilibriumClass,
    FiniteGame,
    enumerate_pure_equilibria,
    influential_witness,
)
from .influence import (
    base_query,
    build_delta_query,
    classify_ranking_set,
    order_by_case_sketch,
)
from .merge import brute_force_merge_opt, maximize_merge_dp
from .trust import TrustReport, detect_trustworthy
from .utility import UtilityContext, UtilityKind

__all__ = ["load_config", "main", "run_command"]


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #


#: Largest magnitude accepted for ``z`` and for any bias value.
_MAX_MAGNITUDE = 10**300

#: Most attribute-product elements that ``bias_rules`` are evaluated over.
_MAX_RULE_ELEMENTS = 10**6

#: Largest ``bench --suite dp`` size: the score table holds m(m + 1)/2
#: 64-bit cells, and m = 4000 takes ~10 s and 80 MB.
_MAX_DP_SIZE = 4000


def _read_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path!r}: {exc}") from exc
    # JSONDecodeError, an integer over the digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc


def _parse_kind(data: dict, key: str, fallback: UtilityKind) -> UtilityKind:
    raw = data.get(key)
    if raw is None:
        return fallback
    try:
        return UtilityKind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"unknown utility kind {raw!r}") from exc


def _integer(data: dict, key: str, default: int | None = None) -> int | None:
    """``data.get(key, default)`` if it is an int (not a bool), or None
    with a None default (an optional setting); else a ConfigurationError."""
    value = data.get(key, default)
    if type(value) is int or (value is None and default is None):
        return value
    raise ConfigurationError(f"{key} must be an integer, got {value!r}")


def _read_attributes(raw: object) -> list[tuple[str, tuple]]:
    """The ``attributes`` list as ``(name, values)`` pairs, checked in order."""
    if not isinstance(raw, list):
        raise ConfigurationError("attributes must be a list")
    attributes = []
    for entry in raw:
        try:
            name, values = entry["name"], entry["values"]
            if not (isinstance(name, str) and isinstance(values, list)):
                raise ConfigurationError(
                    "malformed attribute entry: name must be a string, values a list"
                )
            if not name:
                raise ConfigurationError("attribute name must be nonempty")
            values = tuple(values)
            if not values:
                raise ConfigurationError(f"attribute {name!r} has an empty domain")
            if len(set(values)) != len(values):
                raise ConfigurationError(f"attribute {name!r} has duplicate values")
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed attribute entry: {exc}") from exc
        attributes.append((name, values))
    if not attributes:
        raise ConfigurationError("rank domain needs at least one attribute")
    return attributes


def _rule_bias(
    attributes: list[tuple[str, tuple]], rules: object, scale: object
) -> BiasFunction:
    """The bias ``bias_rules`` give each element of the attribute product.

    Elements are keyed ``e1 .. em`` in ``itertools.product`` order.  Each
    takes the first matching rule's bias times ``scale``, or 0 when no rule
    matches; the range is tight.  A rule names attributes by ``name``, and
    a repeated name tests its last attribute.
    """
    if not isinstance(rules, list):
        raise ConfigurationError("bias rules must be a list")
    parsed = []
    for rule in rules:
        try:
            when = sorted(rule.get("when", {}).items())
            parsed.append((when, as_fraction(rule["bias"])))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigurationError(f"malformed bias rule: {exc}") from exc
    scale = as_fraction(scale)
    column = {name: index for index, (name, _) in enumerate(attributes)}
    tests = []
    for when, bias in parsed:
        for name, _ in when:
            if name not in column:
                raise ConfigurationError(
                    f"bias rule references unknown attribute {name!r}"
                )
        tests.append(([(column[name], v) for name, v in when], _exact(bias * scale)))
    if math.prod(len(values) for _, values in attributes) > _MAX_RULE_ELEMENTS:
        raise ConfigurationError(
            f"bias_rules apply to at most {_MAX_RULE_ELEMENTS} attribute-product "
            "elements; give z and an explicit bias instead"
        )
    product = itertools.product(*(values for _, values in attributes))
    entries = {
        f"e{index}": next(
            (bias for when, bias in tests if all(element[i] == v for i, v in when)),
            0,
        )
        for index, element in enumerate(product, start=1)
    }
    # Each entry is one of these objects: the range needs only those in use.
    used = set(map(id, entries.values()))
    assigned = [bias for bias in (*(b for _, b in tests), 0) if id(bias) in used]
    return BiasFunction(entries, lower=min(assigned), upper=max(assigned))


def _read_bias(raw: object) -> BiasFunction:
    """The ``bias`` object: ``entries`` by key, ``default``, and the range."""
    if not isinstance(raw, dict):
        raise ConfigurationError("bias must be an object")
    entries = raw.get("entries", {})
    if not isinstance(entries, dict):
        raise ConfigurationError("bias entries must be an object")
    default = raw.get("default", 0)
    return BiasFunction(entries, default, raw.get("lower"), raw.get("upper"))


def _read_game(data: dict) -> FiniteGame:
    """A game document, its shape checked before the game is built.

    Labels must be lists of strings, payoffs lists of rows, the prior a
    list and ``set_equivalent`` a JSON boolean.  ``FiniteGame.build``
    refuses an entry that is neither a number nor a decimal string (a
    boolean among them).
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
    set_equivalent = data.get("set_equivalent", False)
    if not isinstance(set_equivalent, bool):
        raise ConfigurationError("set_equivalent must be true or false")
    return FiniteGame.build(*labels, *matrices, prior, set_equivalent)


def load_config(path: str) -> UtilityContext:
    """Parse and validate a configuration file (shape in module docs)."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")

    attributes = None
    if "attributes" in data:
        attributes = _read_attributes(data["attributes"])
    universe_size = _integer(data, "z")
    if attributes is not None:
        size = math.prod(len(values) for _, values in attributes)
        # A product beyond the bound stands in for z: the check below refuses it.
        if universe_size is None or size > _MAX_MAGNITUDE:
            universe_size = size
        elif size != universe_size:
            raise ConfigurationError(
                f"z={universe_size} disagrees with the {size}-element "
                "attribute product"
            )
    elif universe_size is None:
        raise ConfigurationError("config needs either z or attributes")

    if "bias" in data:
        bias = _read_bias(data["bias"])
    elif "bias_rules" in data:
        if attributes is None:
            raise ConfigurationError("bias_rules require attributes")
        bias = _rule_bias(attributes, data["bias_rules"], data.get("scale", 1))
    else:
        bias = BiasFunction({})

    # Entries lie in [lower, upper] (rule values included), so four checks do.
    extremes = (universe_size, bias.lower, bias.upper, bias.default)
    if max(map(abs, extremes)) > _MAX_MAGNITUDE:
        raise ConfigurationError("z and every bias value must lie within ±10**300")

    return UtilityContext(
        universe_size,
        _integer(data, "k", universe_size),
        bias,
        _integer(data, "omitted_rank"),
        _parse_kind(data, "kind_user", UtilityKind.QUADRATIC_USER),
        _parse_kind(data, "kind_source", UtilityKind.QUADRATIC_SOURCE_BIASED),
    )


def _read_intent(path: str, ctx: UtilityContext) -> WeakOrder:
    """The intent ranking, refused when it holds more keys than ``z`` positions."""
    intent = WeakOrder.from_lists(_read_json(path))
    if len(intent) > (z := ctx.universe_size):
        raise ConfigurationError(f"intent ranks {len(intent)} keys but z={z}")
    return intent


# --------------------------------------------------------------------------- #
# Subcommand handlers (each returns a report object or its text)
# --------------------------------------------------------------------------- #


def _trust_json(report: TrustReport) -> str:
    """Compact sorted-key JSON in one pass; interval ends are ``low / den``
    floats (``OverflowError`` beyond the float range)."""
    flagged = ",".join(
        f'{{"delta":{separation},"interval":[{low / den!r},{high / den!r}],'
        f'"key":{_quote(key)}}}'
        for key, (separation, low, high, den) in report.witnesses.items()
    )
    trustworthy = ",".join(map(_quote, report.trustworthy))
    return f'{{"flagged":[{flagged}],"trustworthy":[{trustworthy}]}}'


def _cmd_trust(args: argparse.Namespace) -> str:
    ctx = load_config(args.config)
    beta = WeakOrder.from_lists(_read_json(args.beta))
    return _trust_json(detect_trustworthy(beta, ctx)) + "\n"


def _cmd_influence(args: argparse.Namespace) -> dict:
    ctx = load_config(args.config)
    intent = _read_intent(args.intent, ctx)
    query = build_delta_query(intent, ctx.bias, ctx.universe_size)
    summary = classify_ranking_set(query)
    base = summary.require_base()
    return {
        "query": {
            "constraints": [
                {"e": c.subject, "eprime": c.rival, "delta": c.min_gap}
                for c in query.constraints
            ]
        },
        "base": base.as_lists(),
        "ranking_set": {
            "kind": summary.kind.value,
            "count": summary.count,
            "lower_bound": summary.lower_bound,
            "reason": summary.reason,
            "nodes": summary.nodes,
        },
        "sketch": order_by_case_sketch(query, base),
    }


def _cmd_maximize(args: argparse.Namespace) -> dict:
    ctx = load_config(args.config)
    intent = _read_intent(args.intent, ctx)
    base = base_query(build_delta_query(intent, ctx.bias, ctx.universe_size))
    # The oracle goes first: it rejects a base over its limit before the DP runs.
    if args.oracle:
        brute = brute_force_merge_opt(intent, ctx, base=base)
    result = maximize_merge_dp(intent, ctx, base=base)
    report: dict = {
        "merge": {
            "partition": [list(interval) for interval in result.partition.intervals],
            "ranking": result.ranking.as_lists(),
            "opt": float(result.opt_value),
        }
    }
    if args.oracle:
        report["oracle"] = {
            "opt": float(brute.opt_value),
            "agrees": brute.opt_value == result.opt_value,
        }
    return report


def _cmd_equilibrium(args: argparse.Namespace) -> dict:
    raw = _read_json(args.game)
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{args.game}: game must be a JSON object")
    game = _read_game(raw)
    report: dict = {"set_equivalent": game.set_equivalent}
    if game.set_equivalent:
        witness = influential_witness(game)
        report["witness"] = list(witness) if witness else None
    equilibria = enumerate_pure_equilibria(game)
    report["equilibria"] = [
        {
            "user": dict(entry.pair.user),
            "source": dict(entry.pair.source),
            "classification": entry.classification.value,
        }
        for entry in equilibria
    ]
    report["influential_count"] = sum(
        entry.classification is EquilibriumClass.INFLUENTIAL for entry in equilibria
    )
    return report


def _cmd_bench(args: argparse.Namespace) -> str:
    from . import bench as bench_mod  # only here: it loads csv and statistics

    if args.runs < 1:
        raise ConfigurationError(f"--runs must be at least 1, got {args.runs}")
    sizes = None
    if args.m:
        try:
            sizes = [int(part) for part in args.m.split(",") if part]
        except ValueError as exc:
            raise ConfigurationError(f"bad --m list {args.m!r}: {exc}") from exc
        if not sizes or any(s < 1 for s in sizes):
            raise ConfigurationError(f"bad --m list {args.m!r}")
        if args.suite == "dp" and max(sizes) > _MAX_DP_SIZE:
            raise ConfigurationError(
                f"dp sizes must be at most {_MAX_DP_SIZE}, got {max(sizes)}"
            )
    if args.suite == "trust":
        rows = bench_mod.run_trust_suite(
            sizes or bench_mod.DEFAULT_TRUST_SIZES,
            seed=args.seed,
            runs=args.runs,
        )
    else:
        rows = bench_mod.run_dp_suite(
            sizes or bench_mod.DEFAULT_DP_SIZES, seed=args.seed, runs=args.runs
        )
    buffer = io.StringIO()
    bench_mod.write_csv(rows, buffer)
    return buffer.getvalue()


# --------------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------------- #


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="coiquery",
        description="Conflict-of-interest query analyses over ranked results.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    trust = commands.add_parser("trust", help="screen a returned ranking")
    trust.add_argument("--config", required=True)
    trust.add_argument("--beta", required=True, help="returned ranking JSON")
    trust.add_argument("--output")
    trust.set_defaults(handler=_cmd_trust)

    influence = commands.add_parser(
        "influence", help="build a difference-constraint query"
    )
    influence.add_argument("--config", required=True)
    influence.add_argument("--intent", required=True, help="intent ranking JSON")
    influence.add_argument("--output")
    influence.set_defaults(handler=_cmd_influence)

    maximize = commands.add_parser("maximize", help="run the merge DP")
    maximize.add_argument("--config", required=True)
    maximize.add_argument("--intent", required=True, help="intent ranking JSON")
    maximize.add_argument(
        "--oracle", action="store_true", help="cross-check against brute force"
    )
    maximize.add_argument("--output")
    maximize.set_defaults(handler=_cmd_maximize)

    equilibrium = commands.add_parser(
        "equilibrium", help="analyze a finite game"
    )
    equilibrium.add_argument("--game", required=True, help="game JSON")
    equilibrium.add_argument("--output")
    equilibrium.set_defaults(handler=_cmd_equilibrium)

    bench = commands.add_parser("bench", help="timing sweeps as CSV")
    bench.add_argument("--suite", required=True, choices=("trust", "dp"))
    bench.add_argument("--m", help="comma-separated sizes, e.g. 100,200,400")
    bench.add_argument("--runs", type=int, default=5)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--output")
    bench.set_defaults(handler=_cmd_bench)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {output!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _configure_logging() -> None:
    level_name = os.environ.get("COI_LOG", "").upper()
    level = getattr(logging, level_name, None) if level_name else None
    logging.basicConfig(
        stream=sys.stderr,
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def run_command(argv: Sequence[str]) -> int:
    """Run one subcommand; returns the process exit code."""
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        report = args.handler(args)
        if not isinstance(report, str):  # trust writes its JSON, bench its CSV
            report = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        _emit(report, args.output)
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (QueryAnalysisError, OverflowError) as exc:  # Overflow: a float out of range
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
