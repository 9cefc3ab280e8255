"""End-to-end command-line tests: each subcommand against the library."""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import operator
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coiquery.bench
import coiquery.cli
import coiquery.equilibrium as equilibrium
import coiquery.influence as influence
import coiquery.merge
from coiquery import (
    BiasFunction,
    ConfigurationError,
    UtilityContext,
    WeakOrder,
    as_fraction,
    base_query,
    build_delta_query,
    classify_ranking_set,
    detect_trustworthy,
    maximize_merge_dp,
    order_by_case_sketch,
)
from coiquery.cli import load_config, run_command
from coiquery.equilibrium import commission_game
from coiquery.utility import UtilityKind
from oracles import (
    closed_form_gap_shift,
    delta_query_oracle,
    forward_reduction_oracle,
    rule_bias_oracle,
    trust_report_jsonable,
)


def _round_trip(payload):
    return json.loads(json.dumps(payload))


@pytest.fixture()
def mixed_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "z": 4,
                "k": 4,
                "bias": {
                    "entries": {"a": 3, "b": 1, "c": 0, "d": 2},
                    "default": 0,
                    "lower": 0,
                    "upper": 3,
                },
            }
        )
    )
    return path


# Bias from attribute rules: z = 4 from the attribute product, Sony at 1.
_RULES_CONFIG = {
    "attributes": [
        {"name": "brand", "values": ["JBL", "Sony"]},
        {"name": "tier", "values": ["lo", "hi"]},
    ],
    "bias_rules": [{"when": {"brand": "Sony"}, "bias": 2}],
    "scale": "1/2",
    "k": 2,
}


def _write_order(tmp_path, name, blocks):
    path = tmp_path / name
    path.write_text(json.dumps(blocks))
    return path


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #


def test_trust_command_matches_the_library(tmp_path, mixed_config, capsys):
    beta = _write_order(tmp_path, "beta.json", [["a"], ["b"], ["c"], ["d"]])
    code = run_command(
        ["trust", "--config", str(mixed_config), "--beta", str(beta)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    bias = BiasFunction(
        {"a": 3, "b": 1, "c": 0, "d": 2}, lower=Fraction(0), upper=Fraction(3)
    )
    expected = detect_trustworthy(
        WeakOrder.total(["a", "b", "c", "d"]), UtilityContext(4, 4, bias)
    )
    assert report == _round_trip(trust_report_jsonable(expected))
    assert report["trustworthy"] == ["c"]


def test_influence_command_matches_the_library(tmp_path, mixed_config, capsys):
    intent = _write_order(tmp_path, "intent.json", [["a"], ["b"], ["c"], ["d"]])
    code = run_command(
        ["influence", "--config", str(mixed_config), "--intent", str(intent)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    bias = BiasFunction(
        {"a": 3, "b": 1, "c": 0, "d": 2}, lower=Fraction(0), upper=Fraction(3)
    )
    query = build_delta_query(WeakOrder.total(["a", "b", "c", "d"]), bias, 4)
    base = base_query(query)
    summary = classify_ranking_set(query)
    assert report["query"] == {
        "constraints": [
            {"e": c.subject, "eprime": c.rival, "delta": c.min_gap}
            for c in query.constraints
        ]
    }
    assert report["base"] == _round_trip(base.as_lists())
    assert report["ranking_set"] == {
        "kind": summary.kind.value,
        "count": summary.count,
        "lower_bound": summary.lower_bound,
        "reason": summary.reason,
        "nodes": summary.nodes,
    }
    assert report["sketch"] == order_by_case_sketch(query, base)


def test_query_serialization_shape(tmp_path, mixed_config, capsys):
    # One forward constraint and one complement, each as an e/eprime/delta object.
    intent = _write_order(tmp_path, "intent.json", [["a"], ["b"], ["c"], ["d"]])
    argv = ["influence", "--config", str(mixed_config), "--intent", str(intent)]
    assert run_command(argv) == 0
    assert json.loads(capsys.readouterr().out)["query"] == {
        "constraints": [
            {"e": "a", "eprime": "d", "delta": 2},
            {"e": "c", "eprime": "b", "delta": -1},
        ]
    }


def test_maximize_command_agrees_with_its_oracle(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "z": 6,
                "k": 3,
                "bias": {
                    "entries": {"e1": "1/2", "e4": 2},
                    "default": 0,
                    "lower": 0,
                    "upper": 2,
                },
            }
        )
    )
    intent = _write_order(
        tmp_path, "intent.json", [[f"e{i}"] for i in range(1, 7)]
    )
    code = run_command(
        [
            "maximize",
            "--config",
            str(config),
            "--intent",
            str(intent),
            "--oracle",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle"]["agrees"] is True
    bias = BiasFunction(
        {"e1": Fraction(1, 2), "e4": 2}, lower=Fraction(0), upper=Fraction(2)
    )
    expected = maximize_merge_dp(
        WeakOrder.total([f"e{i}" for i in range(1, 7)]), UtilityContext(6, 3, bias)
    )
    assert report["merge"] == {
        "partition": [list(interval) for interval in expected.partition.intervals],
        "ranking": _round_trip(expected.ranking.as_lists()),
        "opt": float(expected.opt_value),
    }
    assert report["oracle"]["opt"] == pytest.approx(float(expected.opt_value))


def test_maximize_with_a_huge_omitted_rank_agrees_with_its_oracle(
    tmp_path, capsys
):
    # Every response past top-3 takes rank 10^12, so the score table's
    # cells exceed 64 bits and the DP must not overflow.
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "z": 8,
                "k": 3,
                "omitted_rank": 10**12,
                "bias": {"entries": {"e1": 2, "e5": -3, "e7": "1/2"}, "default": 0},
            }
        )
    )
    intent = _write_order(tmp_path, "intent.json", [[f"e{i}"] for i in range(1, 9)])
    argv = ["maximize", "--config", str(config), "--intent", str(intent), "--oracle"]
    assert run_command(argv) == 0
    assert json.loads(capsys.readouterr().out)["oracle"]["agrees"] is True


def test_oracle_rejects_a_base_over_its_limit_before_the_dp_runs(
    tmp_path, capsys, monkeypatch
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the merge DP ran on a base the oracle rejects")

    monkeypatch.setattr(coiquery.cli, "maximize_merge_dp", unreachable)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"z": 15}))
    intent = _write_order(tmp_path, "intent.json", [[f"e{i}"] for i in range(1, 16)])
    argv = ["maximize", "--config", str(config), "--intent", str(intent), "--oracle"]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "analysis error: 15 blocks exceed the enumeration limit 14\n"
    )


def test_equilibrium_command_reports_witness_and_counts(tmp_path, capsys):
    game = tmp_path / "game.json"
    game.write_text(json.dumps(_COMMISSION_GAME))
    code = run_command(["equilibrium", "--game", str(game)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["set_equivalent"] is True
    assert report["witness"] == ["tau", "tau_prime", "beta_prime", "beta"]
    assert len(report["equilibria"]) == 4
    assert report["influential_count"] == 2
    labels = sorted(entry["classification"] for entry in report["equilibria"])
    assert labels == [
        "Influential",
        "Influential",
        "NonInfluential",
        "NonInfluential",
    ]


def test_bench_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = run_command(
        [
            "bench",
            "--suite",
            "dp",
            "--m",
            "8,16",
            "--runs",
            "1",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,millis"
    assert len(lines) == 3
    assert lines[1].startswith("8,")
    assert lines[2].startswith("16,")

    code = run_command(
        ["bench", "--suite", "trust", "--m", "50", "--runs", "1"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == "m,millis"


def test_bench_has_no_top_k_flag(capsys):
    # The trust filter reads no cutoff, so the suite takes none.
    assert run_command(["bench", "--suite", "trust", "--top-k", "5"]) == 2
    assert "unrecognized arguments: --top-k 5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trust", "influence", "maximize", "equilibrium"])
def test_every_report_is_one_line_of_canonical_json(
    tmp_path, mixed_config, capsys, command
):
    order = _write_order(tmp_path, "order.json", [["a"], ["b"], ["c"], ["d"]])
    game = tmp_path / "game.json"
    game.write_text(json.dumps(_COMMISSION_GAME))
    argv = {
        "trust": ["--config", mixed_config, "--beta", order],
        "influence": ["--config", mixed_config, "--intent", order],
        "maximize": ["--config", mixed_config, "--intent", order, "--oracle"],
        "equilibrium": ["--game", game],
    }[command]
    assert run_command([command, *map(str, argv)]) == 0
    out = capsys.readouterr().out
    canonical = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
    assert out == canonical + "\n"
    assert out.count("\n") == 1


#: ``coiquery trust`` stdout for ``_GOLDEN_CONFIG``, byte for byte: one line
#: of compact JSON with sorted keys.
_GOLDEN_TRUST_STDOUT = (
    '{"flagged":['
    '{"delta":5,"interval":[0.6078431372549019,1.607843137254902],"key":"a"},'
    '{"delta":7,"interval":[2.5886524822695036,3.5886524822695036],"key":"x"},'
    '{"delta":5,"interval":[-0.058823529411764705,0.9411764705882353],"key":"d"},'
    '{"delta":5,"interval":[0.10784313725490197,1.107843137254902],"key":"e"},'
    '{"delta":5,"interval":[-0.6421568627450981,0.35784313725490197],"key":"f"}'
    '],"trustworthy":["b","c"]}\n'
)

#: The same report as the indented encoder wrote it before reports became
#: compact: the two must parse to the same JSON value.
_GOLDEN_TRUST_INDENTED = """\
{
  "flagged": [
    {
      "delta": 5,
      "interval": [
        0.6078431372549019,
        1.607843137254902
      ],
      "key": "a"
    },
    {
      "delta": 7,
      "interval": [
        2.5886524822695036,
        3.5886524822695036
      ],
      "key": "x"
    },
    {
      "delta": 5,
      "interval": [
        -0.058823529411764705,
        0.9411764705882353
      ],
      "key": "d"
    },
    {
      "delta": 5,
      "interval": [
        0.10784313725490197,
        1.107843137254902
      ],
      "key": "e"
    },
    {
      "delta": 5,
      "interval": [
        -0.6421568627450981,
        0.35784313725490197
      ],
      "key": "f"
    }
  ],
  "trustworthy": [
    "b",
    "c"
  ]
}
"""

#: At z=10 the pivot is separation 5 (gap 122/51, floor 71/51), so on
#: [0, 3] biases up to 71/51 are trustworthy ("b" and "1/3"), and the
#: integer, "p/q", decimal and float biases above it are flagged at the
#: pivot.  The default-valued "x" (6) needs a gap above 3: the search
#: past the pivot finds separation 7.
_GOLDEN_CONFIG = {
    "z": 10,
    "k": 10,
    "bias": {
        "entries": {"a": 3, "b": 0, "c": "1/3", "d": "7/3", "e": 2.5, "f": 1.75},
        "default": 6,
        "lower": 0,
        "upper": 3,
    },
}


def test_trust_command_output_is_pinned_byte_for_byte(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_GOLDEN_CONFIG))
    beta = _write_order(
        tmp_path, "beta.json", [["a"], ["b", "c"], ["x"], ["d"], ["e"], ["f"]]
    )
    code = run_command(["trust", "--config", str(config), "--beta", str(beta)])
    assert code == 0
    assert capsys.readouterr().out == _GOLDEN_TRUST_STDOUT
    assert json.loads(_GOLDEN_TRUST_STDOUT) == json.loads(_GOLDEN_TRUST_INDENTED)


#: ``coiquery trust`` stdout for ``_RULES_CONFIG``: the Sony rule gives e3
#: and e4 a bias of 2 · 1/2 = 1 on the range [0, 1], the pivot at z=4 is
#: separation 2, and both rule-biased keys are flagged there.
_GOLDEN_RULES_TRUST_STDOUT = (
    '{"flagged":['
    '{"delta":2,"interval":[-0.10256410256410256,0.46153846153846156],"key":"e3"},'
    '{"delta":2,"interval":[-0.10256410256410256,0.46153846153846156],"key":"e4"}'
    '],"trustworthy":["e1","e2"]}\n'
)


def test_trust_command_on_bias_rules_is_pinned_byte_for_byte(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_RULES_CONFIG))
    beta = _write_order(tmp_path, "beta.json", [["e3"], ["e1", "e4"], ["e2"]])
    code = run_command(["trust", "--config", str(config), "--beta", str(beta)])
    assert code == 0
    assert capsys.readouterr().out == _GOLDEN_RULES_TRUST_STDOUT


#: The two-intent sales game of ``equilibrium.commission_game(1, 2)``.
_COMMISSION_GAME = {
    "intents": ["tau", "tau_prime"],
    "queries": ["q", "q_prime"],
    "interpretations": ["beta", "beta_prime"],
    "payoff_user": [[0, 2], [2, 0]],
    "payoff_source": [[-1, 0], [1, -2]],
    "prior": [0.5, 0.5],
    "set_equivalent": True,
}

#: ``coiquery equilibrium`` stdout for ``_COMMISSION_GAME``: the witness
#: and all four pure equilibria, two of them influential.
_GOLDEN_EQUILIBRIUM_STDOUT = (
    '{"equilibria":['
    '{"classification":"NonInfluential","source":{"q":"beta","q_prime":"beta"},'
    '"user":{"tau":"q","tau_prime":"q"}},'
    '{"classification":"Influential","source":{"q":"beta_prime","q_prime":"beta"},'
    '"user":{"tau":"q","tau_prime":"q_prime"}},'
    '{"classification":"Influential","source":{"q":"beta","q_prime":"beta_prime"},'
    '"user":{"tau":"q_prime","tau_prime":"q"}},'
    '{"classification":"NonInfluential","source":{"q":"beta","q_prime":"beta"},'
    '"user":{"tau":"q_prime","tau_prime":"q_prime"}}'
    '],"influential_count":2,"set_equivalent":true,'
    '"witness":["tau","tau_prime","beta_prime","beta"]}\n'
)


def test_equilibrium_command_output_is_pinned_byte_for_byte(tmp_path, capsys):
    game = tmp_path / "game.json"
    game.write_text(json.dumps(_COMMISSION_GAME))
    assert run_command(["equilibrium", "--game", str(game)]) == 0
    assert capsys.readouterr() == (_GOLDEN_EQUILIBRIUM_STDOUT, "")


def test_equilibrium_command_exits_one_past_the_profile_cap(
    tmp_path, capsys, monkeypatch
):
    game = tmp_path / "game.json"
    game.write_text(json.dumps(_COMMISSION_GAME))
    monkeypatch.setattr(equilibrium, "_PROFILE_CAP", 15)
    assert run_command(["equilibrium", "--game", str(game)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "16 pure profiles exceed" in captured.err
    assert "Traceback" not in captured.err


#: The sales example under product utilities: bias 19/10 everywhere,
#: top-3 with omitted rank 5.  Merging the top two positions is optimal
#: at -38, and the brute-force oracle agrees.
_SALES_CONFIG = {
    "z": 4,
    "k": 3,
    "omitted_rank": 5,
    "kind_user": "product_user",
    "kind_source": "product_source_biased",
    "bias": {"default": "19/10"},
}

#: ``coiquery maximize --oracle`` stdout for ``_SALES_CONFIG`` and the
#: intent e3 > e2 > e1 > e4.
_GOLDEN_MAXIMIZE_STDOUT = (
    '{"merge":{"opt":-38.0,"partition":[[1,2],[3,3],[4,4]],'
    '"ranking":[["e3","e2"],["e1"],["e4"]]},'
    '"oracle":{"agrees":true,"opt":-38.0}}\n'
)


def test_maximize_oracle_output_is_pinned_byte_for_byte(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_SALES_CONFIG))
    intent = _write_order(tmp_path, "intent.json", [["e3"], ["e2"], ["e1"], ["e4"]])
    argv = ["maximize", "--config", str(config), "--intent", str(intent), "--oracle"]
    assert run_command(argv) == 0
    assert capsys.readouterr() == (_GOLDEN_MAXIMIZE_STDOUT, "")


def test_sales_result_serialization(tmp_path, capsys):
    # Without --oracle the report holds the merge alone: its partition as
    # [start, end] pairs of base blocks, the merged ranking, the optimum.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_SALES_CONFIG))
    intent = _write_order(tmp_path, "intent.json", [["e3"], ["e2"], ["e1"], ["e4"]])
    argv = ["maximize", "--config", str(config), "--intent", str(intent)]
    assert run_command(argv) == 0
    assert json.loads(capsys.readouterr().out) == {
        "merge": {
            "partition": [[1, 2], [3, 3], [4, 4]],
            "ranking": [["e3", "e2"], ["e1"], ["e4"]],
            "opt": -38.0,
        }
    }


def test_the_commission_game_document_reads_as_the_library_game():
    game, expected = coiquery.cli._read_game(_COMMISSION_GAME), commission_game(1, 2)
    assert vars(game) == vars(expected)


#: ``coiquery influence`` runs pinned byte for byte: (config, intent, exit
#: code, stdout, stderr).  "exact" enumerates a 5-key query with a
#: complemented constraint; "probe" stops a 13-key search at its second
#: order, with a base that is not the intent; "tied" is an intent that
#: satisfies its own query although no total order does, so it has no base.
_GOLDEN_INFLUENCE = {
    "exact": (
        {
            "z": 7,
            "bias": {
                "entries": {"e1": 0.0, "e2": 1.2, "e5": 2.5, "e3": 3.0, "e4": 1.7},
                "lower": 0,
                "upper": 3,
            },
        },
        [["e1"], ["e2"], ["e5"], ["e3"], ["e4"]],
        0,
        '{"base":[["e1"],["e2"],["e5"],["e3"],["e4"]],'
        '"query":{"constraints":[{"delta":2,"e":"e5","eprime":"e4"},'
        '{"delta":-2,"e":"e4","eprime":"e3"}]},'
        '"ranking_set":{"count":26,"kind":"Multiple",'
        '"lower_bound":26,"nodes":84,"reason":null},'
        '"sketch":"ORDER BY CASE key\\n  WHEN \'e1\' THEN 1\\n  WHEN \'e2\' THEN 2\\n'
        "  WHEN 'e5' THEN 3\\n  WHEN 'e3' THEN 4\\n  WHEN 'e4' THEN 5\\nEND\\n"
        '-- requires r(e4) - r(e5) >= 2\\n-- requires r(e3) - r(e4) >= -2"}\n',
        "",
    ),
    "probe": (
        {
            "z": 36,
            "bias": {
                "entries": {
                    "e13": 1.3, "e6": 0.5, "e10": 0.2, "e7": 1.0, "e1": 1.9,
                    "e3": 1.7, "e11": 3.0, "e12": 3.0, "e4": 0.4, "e2": 2.3,
                    "e5": 2.2, "e8": 2.8, "e9": 2.8,
                },
                "lower": 0,
                "upper": 3,
            },
        },
        [[f"e{i}"] for i in (13, 6, 10, 7, 1, 3, 11, 12, 4, 2, 5, 8, 9)],
        0,
        '{"base":[["e1"],["e3"],["e6"],["e10"],["e11"],["e12"],["e8"],["e2"],["e13"],'
        '["e7"],["e4"],["e5"],["e9"]],'
        '"query":{"constraints":[{"delta":-1,"e":"e6","eprime":"e13"},'
        '{"delta":-2,"e":"e10","eprime":"e13"},{"delta":1,"e":"e13","eprime":"e7"},'
        '{"delta":1,"e":"e6","eprime":"e10"},{"delta":1,"e":"e10","eprime":"e4"},'
        '{"delta":1,"e":"e7","eprime":"e4"},{"delta":1,"e":"e1","eprime":"e3"},'
        '{"delta":1,"e":"e1","eprime":"e5"},{"delta":3,"e":"e3","eprime":"e4"},'
        '{"delta":1,"e":"e11","eprime":"e12"},{"delta":-6,"e":"e4","eprime":"e11"},'
        '{"delta":-6,"e":"e4","eprime":"e12"},{"delta":2,"e":"e12","eprime":"e2"},'
        '{"delta":1,"e":"e12","eprime":"e8"},{"delta":1,"e":"e2","eprime":"e5"},'
        '{"delta":1,"e":"e8","eprime":"e9"}]},'
        '"ranking_set":{"count":null,"kind":"Multiple",'
        '"lower_bound":2,"nodes":18,"reason":"count_cap"},'
        '"sketch":"ORDER BY CASE key\\n  WHEN \'e1\' THEN 1\\n  WHEN \'e3\' THEN 2\\n'
        "  WHEN 'e6' THEN 3\\n  WHEN 'e10' THEN 4\\n  WHEN 'e11' THEN 5\\n"
        "  WHEN 'e12' THEN 6\\n  WHEN 'e8' THEN 7\\n  WHEN 'e2' THEN 8\\n"
        "  WHEN 'e13' THEN 9\\n  WHEN 'e7' THEN 10\\n  WHEN 'e4' THEN 11\\n"
        "  WHEN 'e5' THEN 12\\n  WHEN 'e9' THEN 13\\nEND\\n"
        '-- requires r(e13) - r(e6) >= -1\\n-- requires r(e13) - r(e10) >= -2\\n'
        '-- requires r(e7) - r(e13) >= 1\\n-- requires r(e10) - r(e6) >= 1\\n'
        '-- requires r(e4) - r(e10) >= 1\\n-- requires r(e4) - r(e7) >= 1\\n'
        '-- requires r(e3) - r(e1) >= 1\\n-- requires r(e5) - r(e1) >= 1\\n'
        '-- requires r(e4) - r(e3) >= 3\\n-- requires r(e12) - r(e11) >= 1\\n'
        '-- requires r(e11) - r(e4) >= -6\\n-- requires r(e12) - r(e4) >= -6\\n'
        '-- requires r(e2) - r(e12) >= 2\\n-- requires r(e8) - r(e12) >= 1\\n'
        '-- requires r(e5) - r(e2) >= 1\\n-- requires r(e9) - r(e8) >= 1"}\n',
        "",
    ),
    "tied": (
        {
            "z": 5,
            "bias": {
                "entries": {
                    "e1": 2, "e2": "12/5", "e3": "13/10", "e4": "27/10", "e5": "9/10"
                },
                "lower": 0,
                "upper": 3,
            },
        },
        [["e3", "e2", "e1", "e4"], ["e5"]],
        1,
        "",
        "analysis error: query admits no ranking; no base exists\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_INFLUENCE))
def test_influence_command_output_is_pinned_byte_for_byte(tmp_path, capsys, case):
    document, blocks, code, out, err = _GOLDEN_INFLUENCE[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    intent = _write_order(tmp_path, "intent.json", blocks)
    argv = ["influence", "--config", str(config), "--intent", str(intent)]
    assert run_command(argv) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_maximize_on_the_tied_intent_finds_no_base(tmp_path, capsys, oracle):
    # The same failure as the "tied" influence pin: maximize needs the base too.
    document, blocks, code, out, err = _GOLDEN_INFLUENCE["tied"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    intent = _write_order(tmp_path, "intent.json", blocks)
    argv = ["maximize", "--config", str(config), "--intent", str(intent), *oracle]
    assert run_command(argv) == code == 1
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize(
    "command", [["influence"], ["maximize"], ["maximize", "--oracle"]]
)
def test_an_intent_longer_than_the_universe_exits_two(tmp_path, capsys, command):
    # Five keys cannot hold positions 1..5 of a 2-position universe.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"z": 2}))
    intent = _write_order(tmp_path, "intent.json", [["a"], ["b"], ["c"], ["d"], ["e"]])
    argv = [*command, "--config", str(config), "--intent", str(intent)]
    assert run_command(argv) == 2
    assert capsys.readouterr() == (
        "", "configuration error: intent ranks 5 keys but z=2\n"
    )


@pytest.mark.parametrize(
    "command", [["influence"], ["maximize"], ["maximize", "--oracle"]]
)
def test_one_run_builds_one_query_and_searches_it_once(
    tmp_path, mixed_config, capsys, monkeypatch, command
):
    calls = Counter()
    for module, name in [
        (influence, "_iter_satisfying"),
        (coiquery.cli, "build_delta_query"),
        (coiquery.merge, "build_delta_query"),
    ]:

        def counted(*args, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    intent = _write_order(tmp_path, "intent.json", [["a"], ["b"], ["c"], ["d"]])
    argv = [*command, "--config", str(mixed_config), "--intent", str(intent)]
    assert run_command(argv) == 0
    assert capsys.readouterr().err == ""
    assert calls == {"_iter_satisfying": 1, "build_delta_query": 1}


@pytest.mark.parametrize("command", ["influence", "maximize"])
def test_a_thousand_key_intent_answers_without_recursion(tmp_path, capsys, command):
    # Equal biases make the query pin the intent; the base search then
    # goes 1,000 positions deep, past Python's recursion limit.
    keys = [f"e{i}" for i in range(1000, 0, -1)]
    config = tmp_path / "config.json"
    bias = {"entries": dict.fromkeys(keys, 1)}
    config.write_text(json.dumps({"z": 1000, "k": 250, "bias": bias}))
    intent = _write_order(tmp_path, "intent.json", [[key] for key in keys])
    report = tmp_path / "report.json"
    argv = [command, "--config", str(config), "--intent", str(intent)]
    if command == "influence":
        argv += ["--output", str(report)]
    assert run_command(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command == "influence":
        answer = json.loads(report.read_text())
        assert answer["base"] == [[key] for key in keys]
        assert answer["ranking_set"]["kind"] == "Singleton"
    else:
        ranking = json.loads(out)["merge"]["ranking"]
        assert sorted(key for block in ranking for key in block) == sorted(keys)


def test_trust_output_flag_writes_a_file(tmp_path, mixed_config, capsys):
    beta = _write_order(tmp_path, "beta.json", [["a"], ["b"], ["c"], ["d"]])
    out = tmp_path / "report.json"
    argv = ["trust", "--config", str(mixed_config), "--beta", str(beta)]
    assert run_command([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["trustworthy"] == ["c"]
    assert run_command(argv) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


def test_trust_command_answers_a_huge_universe_at_once(tmp_path, capsys):
    z = 100_000_000_000
    upper = 3 * z // 10
    biases = {"a": 0, "b": upper, "c": 5 * z // 10}  # c: the default, above range
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "z": z,
                "k": 80,
                "bias": {
                    "entries": {"a": 0, "b": upper},
                    "default": biases["c"],
                    "lower": 0,
                    "upper": upper,
                },
            }
        )
    )
    beta = _write_order(tmp_path, "beta.json", [["a"], ["b"], ["c"]])
    started = time.perf_counter()
    code = run_command(["trust", "--config", str(config), "--beta", str(beta)])
    assert time.perf_counter() - started < 2.0
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # Every window floor is at least the positive shift, so a zero-bias
    # key cannot move below the range's lower end.
    assert report["trustworthy"] == ["a"]
    assert [entry["key"] for entry in report["flagged"]] == ["b", "c"]
    for entry in report["flagged"]:
        value = biases[entry["key"]]
        gap, shift = closed_form_gap_shift(z, entry["delta"])
        floor = max(gap - 1, shift)
        assert floor < gap
        assert max(value - gap, 0) < min(value - floor, upper)
        assert entry["interval"] == [float(value - gap), float(value - floor)]


def test_influence_command_answers_a_huge_universe_at_once(tmp_path, capsys):
    z = 100_000_000_000
    entries = {"a": 1, "b": 0.5, "c": 0.25, "d": 0}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"z": z, "k": 4, "bias": {"entries": entries}}))
    intent = _write_order(tmp_path, "intent.json", [["a"], ["b"], ["c"], ["d"]])
    started = time.perf_counter()
    code = run_command(["influence", "--config", str(config), "--intent", str(intent)])
    assert time.perf_counter() - started < 2.0
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # Biases fall along the intent, so every gap is covered by a small
    # separation and the oracle's scan ends early.
    intent = WeakOrder.total(["a", "b", "c", "d"])
    expected = forward_reduction_oracle(
        delta_query_oracle(intent, BiasFunction(entries), z), intent
    )
    assert [
        (c["e"], c["eprime"], c["delta"]) for c in report["query"]["constraints"]
    ] == expected
    assert report["base"] == [["a"], ["b"], ["c"], ["d"]]


def test_influence_command_lists_a_reduced_query_over_a_thousand_keys(
    tmp_path, capsys
):
    # The full pairwise query here has 300,447 constraints; nearly all of
    # its forward ones are implied by longer paths through the others.
    rng = random.Random(1)
    keys = [f"e{i}" for i in range(1, 1001)]
    rng.shuffle(keys)
    entries = {key: rng.randint(0, 30) / 10 for key in keys}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"z": 2 * len(keys), "bias": {"entries": entries}}))
    intent = _write_order(tmp_path, "intent.json", [[key] for key in keys])
    argv = ["influence", "--config", str(config), "--intent", str(intent)]
    assert run_command(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["query"]["constraints"]) < 5_000


# --------------------------------------------------------------------------- #
# Exit codes
# --------------------------------------------------------------------------- #


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run_command(["no-such-command"]) == 2
    assert run_command(["trust"]) == 2  # missing required flags
    assert run_command(["bench", "--suite", "dp", "--no-such-flag"]) == 2
    assert run_command(["verify"]) == 2  # the oracle checks live in tests/ only
    assert "invalid choice: 'verify'" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("command", ["trust", "bench"])
def test_unwritable_output_exits_two(tmp_path, mixed_config, capsys, target, command):
    output = str({"missing": tmp_path / "no" / "x.json", "directory": tmp_path}[target])
    beta = _write_order(tmp_path, "beta.json", [["a"], ["b"], ["c"], ["d"]])
    argv = {
        "trust": ["trust", "--config", mixed_config, "--beta", beta],
        "bench": ["bench", "--suite", "dp", "--m", "4", "--runs", "1"],
    }[command]
    code = run_command([*map(str, argv), "--output", output])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: cannot write {output!r}: ")
    assert "Traceback" not in captured.err


def test_bench_refuses_a_dp_size_over_its_bound_before_building(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the dp suite ran past its size bound")

    monkeypatch.setattr(coiquery.bench, "run_dp_suite", unreachable)
    bound = coiquery.cli._MAX_DP_SIZE
    for sizes in (f"{bound + 1}", f"8,{10**6}"):
        assert run_command(["bench", "--suite", "dp", "--m", sizes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"dp sizes must be at most {bound}, got {10**6}" in captured.err
    assert "Traceback" not in captured.err


def test_configuration_errors_exit_two(tmp_path, capsys):
    beta = _write_order(tmp_path, "beta.json", [["a"]])
    missing = tmp_path / "nope.json"
    assert (
        run_command(["trust", "--config", str(missing), "--beta", str(beta)])
        == 2
    )
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert (
        run_command(["trust", "--config", str(broken), "--beta", str(beta)])
        == 2
    )
    assert run_command(["bench", "--suite", "dp", "--m", "8,oops"]) == 2
    for runs in ("0", "-1"):
        assert run_command(["bench", "--suite", "dp", "--m", "4", "--runs", runs]) == 2
    captured = capsys.readouterr()
    assert "--runs must be at least 1, got -1" in captured.err
    assert "Traceback" not in captured.err + captured.out


_GAME_WITHOUT_INTENTS = dict(
    _COMMISSION_GAME, intents=[], payoff_user=[], payoff_source=[], prior=[]
)


@pytest.mark.parametrize(
    "flag, document, message",
    [
        ("--config", {"z": 0}, "universe size must be at least 1"),
        ("--config", {"z": 4, "k": 0}, "top-k cutoff 0 outside 1..4"),
        ("--config", {"z": 4, "k": 5}, "top-k cutoff 5 outside 1..4"),
        (
            "--config",
            {"z": 4, "kind_user": "product_source_biased"},
            "UtilityKind.PRODUCT_SOURCE_BIASED is not a user utility",
        ),
        (
            "--config",
            {"z": 4, "kind_source": "quadratic_user"},
            "UtilityKind.QUADRATIC_USER is not a source utility",
        ),
        ("--config", [{"z": 4}], "{path}: config must be a JSON object"),
        ("--config", {"z": 4, "bias": {"entries": [["e1", 1]]}}, "bias entries must be an object"),
        ("--game", [_COMMISSION_GAME], "{path}: game must be a JSON object"),
        ("--game", _GAME_WITHOUT_INTENTS, "game needs at least one intent"),
        (
            "--game",
            dict(_COMMISSION_GAME, prior=[-0.5, 1.5]),
            "prior weights must be nonnegative",
        ),
        ("--game", dict(_COMMISSION_GAME, prior=[1]), "prior length must match the intents"),
        ("--m", "0", "bad --m list '0'"),
        ("--m", ",", "bad --m list ','"),
        # A JSON number is shown as written, not as a ``Decimal`` repr.
        ("--config", {"z": 4, "k": 2.5}, "k must be an integer, got 2.5"),
        (
            "--config",
            '{"z": 4, "bias": {"entries": {"e1": 1e10000000}}}',
            "not a rational value: 1E+10000000",
        ),
    ],
)
def test_each_configuration_fault_exits_two_naming_it(
    tmp_path, capsys, flag, document, message
):
    path = tmp_path / "document.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    beta = _write_order(tmp_path, "beta.json", [["a"]])
    argv = {
        "--config": ["trust", "--beta", str(beta), "--config", str(path)],
        "--game": ["equilibrium", "--game", str(path)],
        "--m": ["bench", "--suite", "dp", "--m", document],
    }[flag]
    assert run_command(argv) == 2
    expected = message.format(path=path)
    assert capsys.readouterr() == ("", f"configuration error: {expected}\n")


def _ten_value_attributes(count):
    """``count`` attributes of ten values each: a 10**count-element product."""
    return [{"name": f"a{i}", "values": list(range(10))} for i in range(count)]


@pytest.mark.parametrize(
    "document",
    [
        {"z": "abc"},
        {"z": 4, "k": "x"},
        {"z": 4, "omitted_rank": "x"},
        {"z": True},
        {"z": 4, "bias": {"entries": {"e1": True}}},
        {"z": 4, "bias": {"entries": {"e1": 1}, "lower": True}},
        {**_RULES_CONFIG, "bias_rules": [{"when": {"brand": "JBL"}, "bias": True}]},
        {**_RULES_CONFIG, "scale": True},
        {"z": 4, "bias": {"entries": {"e1": "1e10000000"}}},
        # 10**7 elements: past the bias_rules cap, refused before any is built
        {"attributes": _ten_value_attributes(7), "bias_rules": []},
    ],
)
def test_malformed_config_values_exit_two(tmp_path, capsys, document):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    beta = _write_order(tmp_path, "beta.json", [["a"]])
    started = time.monotonic()
    code = run_command(["trust", "--config", str(config), "--beta", str(beta)])
    assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("command", ["trust", "equilibrium"])
def test_oversized_json_integers_exit_two(tmp_path, capsys, command):
    huge = "9" * 5000  # past CPython's int/str digit limit
    beta = _write_order(tmp_path, "beta.json", [["a"]])
    if command == "trust":
        path = tmp_path / "config.json"
        path.write_text(f'{{"z": {huge}}}')
        argv = ["trust", "--config", str(path), "--beta", str(beta)]
    else:
        document = copy.deepcopy(_COMMISSION_GAME)
        document["payoff_user"][0][0] = "HUGE"
        path = tmp_path / "game.json"
        path.write_text(json.dumps(document).replace('"HUGE"', huge))
        argv = ["equilibrium", "--game", str(path)]
    code = run_command(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize(
    "literal",
    [
        "1e10000000",
        "1e-10000000",  # a float reads it as 0.0
        "3." + "1" * 199_999,  # 200,000 digits
        "1e1000000000000000000",  # past ``Decimal``'s own exponent range
    ],
    ids=["huge exponent", "tiny exponent", "200000 digits", "exponent past Decimal"],
)
@pytest.mark.parametrize("command", ["trust", "equilibrium"])
def test_oversized_json_decimals_exit_two_at_once(tmp_path, capsys, command, literal):
    beta = _write_order(tmp_path, "beta.json", [["a"]])
    if command == "trust":
        path = tmp_path / "config.json"
        path.write_text(f'{{"z": 4, "bias": {{"entries": {{"e1": {literal}}}}}}}')
        argv = ["trust", "--config", str(path), "--beta", str(beta)]
    else:
        path = tmp_path / "game.json"
        path.write_text(json.dumps(_COMMISSION_GAME).replace("[0.5, 0.5]", f"[{literal}, 0.5]"))
        argv = ["equilibrium", "--game", str(path)]
    started = time.monotonic()
    code = run_command(argv)
    assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("configuration error")
    assert len(captured.err) < 200  # the digits are not echoed back
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("document", ["config", "ranking", "game"])
def test_deeply_nested_json_exits_two(tmp_path, mixed_config, capsys, document):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    beta = _write_order(tmp_path, "beta.json", [["a"]])
    argv = {
        "config": ["trust", "--config", deep, "--beta", beta],
        "ranking": ["trust", "--config", mixed_config, "--beta", deep],
        "game": ["equilibrium", "--game", deep],
    }[document]
    code = run_command([str(part) for part in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid JSON" in captured.err
    assert "Traceback" not in captured.err + captured.out


_BOUND = 10**300


@pytest.mark.parametrize(
    "document",
    [
        {"z": 10, "bias": {"entries": {"a": 0, "b": "1e400"}, "default": 0}},
        {"z": 10**1000},
        {"z": _BOUND + 1},
        {"z": 10, "bias": {"entries": {"a": 0}, "default": -_BOUND - 1, "lower": 0}},
        {"z": 10, "bias": {"entries": {"a": 0}, "upper": f"{_BOUND}.5"}},
        {"z": 10, "bias": {"entries": {"a": 0}, "lower": -_BOUND - 1}},
        {**_RULES_CONFIG, "bias_rules": [{"when": {}, "bias": _BOUND}], "scale": 2},
        {"attributes": _ten_value_attributes(301)},
        {"z": 5, "attributes": _ten_value_attributes(301), "bias": {"entries": {}}},
    ],
)
def test_values_beyond_the_magnitude_bound_exit_two(tmp_path, capsys, document):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    beta = _write_order(tmp_path, "beta.json", [["a"], ["b"]])
    code = run_command(["trust", "--config", str(config), "--beta", str(beta)])
    captured = capsys.readouterr()
    assert code == 2
    assert "within ±10**300" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_values_at_the_magnitude_bound_are_accepted(tmp_path, capsys):
    config = tmp_path / "config.json"
    bias = {"entries": {"a": 0, "b": _BOUND, "c": -_BOUND}}
    config.write_text(json.dumps({"z": _BOUND, "k": 3, "bias": bias}))
    order = _write_order(tmp_path, "order.json", [["a"], ["b"], ["c"]])
    code = run_command(["trust", "--config", str(config), "--beta", str(order)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["trustworthy"] == ["c"]
    assert [entry["key"] for entry in report["flagged"]] == ["a", "b"]
    # A merge value near bias squared (~10**600) has no float: exit 1, no traceback.
    code = run_command(["maximize", "--config", str(config), "--intent", str(order)])
    captured = capsys.readouterr()
    assert code == 1
    assert "analysis error" in captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "extra",
    [
        {"seed": 7, "buckets": [{"attribute": "brand", "kind": "categorical"}]},
        {"seed": "x", "buckets": 5},
    ],
)
def test_seed_and_buckets_are_ignored_like_unknown_keys(tmp_path, capsys, extra):
    beta = _write_order(tmp_path, "beta.json", [["e2"], ["e1", "e3"], ["e4"]])
    outputs = []
    for document in (_RULES_CONFIG, {**_RULES_CONFIG, **extra}):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        code = run_command(["trust", "--config", str(config), "--beta", str(beta)])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_NUMBERS = (
    st.integers(-3, 6)
    | st.floats(-5, 5)
    | st.sampled_from(["1/2", "0.25", "-1.5", "1e3", "2e-4301", "1e10000000", True])
)
_ATTRIBUTES = st.lists(
    st.fixed_dictionaries(
        {
            "name": st.sampled_from(["brand", "tier"]),
            "values": st.lists(
                st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True
            ),
        }
    ),
    min_size=1,
    max_size=2,
    unique_by=lambda attribute: attribute["name"],
)
# Mostly well-formed values for the config keys; the test below overwrites
# up to two keys with arbitrary JSON.
_CONFIG_VALUES = {
    "z": st.integers(1, 12),
    "k": st.integers(1, 6),
    "omitted_rank": st.integers(10, 14) | st.none(),
    "kind_user": st.sampled_from(["quadratic_user", "product_user"]),
    "kind_source": st.sampled_from(
        ["quadratic_source_biased", "product_source_biased"]
    ),
    "bias": st.fixed_dictionaries(
        {},
        optional={
            "entries": st.dictionaries(
                st.sampled_from(["e1", "e2", "e3", "x"]), _NUMBERS, max_size=4
            ),
            "default": _NUMBERS,
            "lower": _NUMBERS,
            "upper": _NUMBERS,
        },
    ),
    "attributes": _ATTRIBUTES,
    "bias_rules": st.lists(
        st.fixed_dictionaries(
            {
                "when": st.dictionaries(
                    st.sampled_from(["brand", "tier"]),
                    st.sampled_from(["a", "b"]),
                    max_size=2,
                )
            },
            optional={"bias": _NUMBERS},
        ),
        max_size=3,
    ),
    "scale": _NUMBERS,
}
_CONFIGS = st.one_of(
    [
        st.fixed_dictionaries(
            {key: _CONFIG_VALUES[key]},
            optional={k: v for k, v in _CONFIG_VALUES.items() if k != key},
        )
        for key in ("z", "attributes")
    ]
)


@settings(max_examples=300, deadline=None)
@given(
    _CONFIGS,
    st.dictionaries(st.sampled_from(sorted(_CONFIG_VALUES)), _JSON_VALUES, max_size=2),
)
def test_any_config_object_exits_zero_one_or_two(document, junk):
    with tempfile.TemporaryDirectory() as workdir:
        config = Path(workdir) / "config.json"
        config.write_text(json.dumps({**document, **junk}))
        beta = Path(workdir) / "beta.json"
        beta.write_text(json.dumps([["e2"], ["e1", "e3"], ["x"]]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(
                ["trust", "--config", str(config), "--beta", str(beta)]
            )
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


_KEYS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])
# Arbitrary JSON, key lists with repeats and empty blocks, and weak orders
# cut into ties of one to three keys (up to 7 keys against z = 6).
_RANKINGS = st.one_of(
    _JSON_VALUES,
    st.lists(st.lists(_KEYS, max_size=3), max_size=5),
    st.tuples(st.lists(_KEYS, min_size=1, unique=True), st.integers(1, 3)).map(
        lambda cut: [cut[0][i : i + cut[1]] for i in range(0, len(cut[0]), cut[1])]
    ),
)


@settings(max_examples=200, deadline=None)
@given(_RANKINGS)
def test_any_ranking_document_exits_zero_one_or_two(ranking):
    with tempfile.TemporaryDirectory() as workdir:
        config = Path(workdir) / "config.json"
        config.write_text(
            json.dumps(
                {"z": 6, "k": 4, "bias": {"entries": {"a": 3, "b": 1}, "upper": 3}}
            )
        )
        order = Path(workdir) / "order.json"
        order.write_text(json.dumps(ranking))
        for command, flag in (
            ("trust", "--beta"),
            ("influence", "--intent"),
            ("maximize", "--intent"),
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command(
                    [command, "--config", str(config), flag, str(order)]
                )
            assert code in (0, 1, 2)
            assert "Traceback" not in out.getvalue() + err.getvalue()


# Exact bias values.  An integral one is drawn as an int and spelled by the
# rendering below; any other carries its own spelling: "p/q", a decimal
# string or a float that is not an integer.
_INTEGRAL = st.integers(-12, 12) | st.sampled_from([10**300, -(10**300), 2**53 + 1])
_FRACTIONAL = st.one_of(
    st.fractions(-12, 12, max_denominator=9)
    .filter(lambda value: value.denominator > 1)
    .map(lambda value: f"{value.numerator}/{value.denominator}"),
    st.integers(1, 1299)
    .filter(lambda cents: cents % 100)
    .map(lambda cents: f"{cents // 100}.{cents % 100:02d}"),
    st.sampled_from(["-0.5", "-3.25", "-11.75"]),
    st.floats(-12, 12).filter(lambda value: not value.is_integer()),
)
_BIAS_VALUES = _INTEGRAL | _FRACTIONAL
_INTEGRAL_SPELLINGS = (
    lambda n: n,
    lambda n: float(n) if float(n) == n else n,  # n.0 where the float is exact
    lambda n: f"{n}/1",
    lambda n: f"{n}.0",
)


def _spelled(value, spell):
    """``value`` with every int in it written by ``spell``."""
    if isinstance(value, dict):
        return {key: _spelled(item, spell) for key, item in value.items()}
    return spell(value) if type(value) is int else value


def _spelled_value(value: object) -> Fraction:
    """The value a bias spelling names: a float as the decimal ``json.dumps``
    writes for it (JSON numbers load as decimals), else by ``as_fraction``."""
    return Fraction(repr(value)) if type(value) is float else as_fraction(value)


def _stored_form(value: object) -> bool:
    """A bias value as stored: an ``int``, or a ``Fraction`` that is not integral."""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_BIAS_VALUES, min_size=1, max_size=5),
    _BIAS_VALUES,
    st.sampled_from(["derived", "tight", "drawn"]),
    st.tuples(_BIAS_VALUES, _BIAS_VALUES),
    st.data(),
)
def test_integral_bias_spellings_are_stored_and_answered_alike(
    values, default, range_kind, drawn, data
):
    keys = [f"e{i}" for i in range(1, len(values) + data.draw(st.integers(0, 3)) + 1)]
    exact = sorted(map(_spelled_value, values))
    tight = [int(v) if v.denominator == 1 else str(v) for v in (exact[0], exact[-1])]
    bounds = {"derived": (), "tight": tight, "drawn": drawn}[range_kind]
    bounds = dict(zip(("lower", "upper"), bounds))
    raw = {"entries": dict(zip(keys, values)), "default": default, **bounds}
    ranking = [[key] for key in data.draw(st.permutations(keys))]
    z = len(keys) + data.draw(st.integers(0, 4))
    answers = set()
    with tempfile.TemporaryDirectory() as workdir:
        config, order = Path(workdir) / "config.json", Path(workdir) / "order.json"
        order.write_text(json.dumps(ranking))

        def run(document, *argv):
            config.write_text(json.dumps(document))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command([*argv[:1], "--config", str(config), *argv[1:]])
            return code, out.getvalue(), err.getvalue()

        for spell in _INTEGRAL_SPELLINGS:
            spelled = _spelled(raw, spell)
            document = {"z": z, "k": max(1, z // 2), "bias": spelled}
            config.write_text(json.dumps(document))
            try:
                bias = load_config(str(config)).bias
            except ConfigurationError:
                pass
            else:
                given_values = [*spelled["entries"].values(), spelled["default"]]
                stored = [*bias.entries.values(), bias.default]
                for name in bounds:
                    given_values.append(spelled[name])
                    stored.append(getattr(bias, name))
                assert stored == [*map(_spelled_value, given_values)]
                assert all(map(_stored_form, [*stored, bias.lower, bias.upper]))
            answers.add(
                (
                    run(document, "trust", "--beta", str(order)),
                    run(document, "influence", "--intent", str(order)),
                    run(document, "maximize", "--intent", str(order), "--oracle"),
                )
            )
        assert len(answers) == 1
        field = data.draw(st.sampled_from(["entries", "default", "lower", "upper"]))
        flag = data.draw(st.booleans())
        spelled = {**raw, field: {keys[0]: flag} if field == "entries" else flag}
        code, out, err = run({"z": z, "bias": spelled}, "trust", "--beta", str(order))
        assert (code, out) == (2, "")
        assert err == f"configuration error: not a rational value: {flag}\n"


@st.composite
def _decimal_literals(draw, whole=st.integers(0, 10**6)):
    """A JSON number with a fraction, an exponent or both, as its text."""
    text = f"{draw(st.sampled_from(['', '-']))}{draw(whole)}"
    fraction = draw(st.text("0123456789", min_size=1, max_size=8) | st.none())
    exponent = draw(st.integers(-20, 20) | st.none())
    if fraction is not None or exponent is None:
        text += f".{fraction or 0}"
    if exponent is not None:
        sign = draw(st.sampled_from(["", "+"])) if exponent >= 0 else ""
        text += f"{draw(st.sampled_from('eE'))}{sign}{exponent}"
    return text


@st.composite
def _priors(draw):
    """One to four decimal literals of eight places that sum to exactly 1."""
    cuts = sorted(draw(st.lists(st.integers(0, 10**8), max_size=3)))
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, 10**8])]
    return [f"{weight // 10**8}.{weight % 10**8:08d}" for weight in weights]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_decimal_literals(), min_size=1, max_size=4),
    _decimal_literals(),
    _decimal_literals(),
    _decimal_literals(),
    _priors(),
    _decimal_literals(whole=st.integers(0, 99)),
)
def test_every_decimal_literal_loads_as_the_decimal_it_spells(
    entries, default, rule_bias, scale, prior, payoff
):
    keys = [f"e{i}" for i in range(1, len(entries) + 1)]
    spelled = ", ".join(f'"{key}": {text}' for key, text in zip(keys, entries))
    rule = {"when": {"brand": "Sony"}, "bias": "BIAS"}
    game = dict(
        _COMMISSION_GAME,
        intents=[f"t{i}" for i in range(len(prior))],
        payoff_user=[["PAYOFF", 0]] * len(prior),
        payoff_source=[[0, 0]] * len(prior),
        prior="PRIOR",
    )
    documents = {
        "bias": f'{{"z": 4, "bias": {{"entries": {{{spelled}}}, "default": {default}}}}}',
        "rules": json.dumps(dict(_RULES_CONFIG, bias_rules=[rule], scale="SCALE"))
        .replace('"BIAS"', rule_bias)
        .replace('"SCALE"', scale),
        "game": json.dumps(game)
        .replace('"PRIOR"', f"[{', '.join(prior)}]")
        .replace('"PAYOFF"', payoff),
    }
    with tempfile.TemporaryDirectory() as workdir:
        paths = {name: Path(workdir) / f"{name}.json" for name in documents}
        for name, text in documents.items():
            paths[name].write_text(text)
        bias = load_config(str(paths["bias"])).bias
        rules = load_config(str(paths["rules"])).bias
        game = coiquery.cli._read_game(coiquery.cli._read_json(str(paths["game"])))
    assert [*bias.entries.values(), bias.default] == [*map(Fraction, entries), Fraction(default)]
    sony = Fraction(rule_bias) * Fraction(scale)
    assert rules.entries == {"e1": 0, "e2": 0, "e3": sony, "e4": sony}
    assert game.prior == tuple(map(Fraction, prior))
    assert sum(game.prior) == 1
    assert {row[0] for row in game.payoff_user} == {Fraction(payoff)}


def test_a_float_spelled_bias_and_prior_load_exactly(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"z": 2, "bias": {"entries": {"e1": 2.1}}}')
    assert load_config(str(config)).bias.entries == {"e1": Fraction(21, 10)}
    thirds = [0.3333333333333333, 0.3333333333333333, 0.3333333333333334]
    game = dict(
        _COMMISSION_GAME,
        intents=["a", "b", "c"],
        payoff_user=[[0, 2]] * 3,
        payoff_source=[[1, 0]] * 3,
        prior=thirds,
    )
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game))
    prior = coiquery.cli._read_game(coiquery.cli._read_json(str(path))).prior
    assert sum(prior) == 1  # exactly; the nearest binary floats sum to 1 + 2**-54
    assert run_command(["equilibrium", "--game", str(path)]) == 0


@pytest.mark.parametrize(
    "change",
    [
        {"set_equivalent": "false"},
        {"set_equivalent": 0},
        {"intents": "ab"},
        {"queries": [1, 2]},
        {"prior": [True, 0]},
        {"payoff_user": [[True, 0], [0, 2]]},
        {"payoff_source": ["02", "20"]},
        {"prior": [float("inf"), 0]},
        {"interpretations": None},
    ],
)
def test_malformed_game_values_exit_two(tmp_path, capsys, change):
    document = dict(_COMMISSION_GAME, **change)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(document))
    code = run_command(["equilibrium", "--game", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("change", [{"prior": [0, True]}, {"payoff_user": [[1, 0], [0, True]]}])
def test_a_boolean_game_entry_is_refused_as_not_rational(tmp_path, capsys, change):
    # ``FiniteGame.build`` refuses it like any other entry that is no number.
    path = tmp_path / "game.json"
    path.write_text(json.dumps(dict(_COMMISSION_GAME, **change)))
    assert run_command(["equilibrium", "--game", str(path)]) == 2
    assert capsys.readouterr() == ("", "configuration error: not a rational value: True\n")


@pytest.mark.parametrize(
    "prior, total",
    [
        (["1e4000", 0.5], "2" + "0" * 3999 + "1/2"),
        (["1/3", "1/3"], "2/3"),
        (["9e4299", "9e4299"], "more than 1"),  # a total too long to print
        (["1e-4300", 0], "less than 1"),
    ],
)
def test_a_prior_off_one_exits_two_with_its_exact_sum(tmp_path, capsys, prior, total):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(dict(_COMMISSION_GAME, prior=prior)))
    assert run_command(["equilibrium", "--game", str(path)]) == 2
    assert capsys.readouterr() == (
        "",
        f"configuration error: prior sums to {total}, not 1\n",
    )


# Huge decimal strings and integers, division by zero, non-numbers and
# nesting, beside arbitrary JSON.
_GAME_ATOMS = _JSON_VALUES | st.sampled_from(
    [
        "1e4000", "-1e4000", "9e4299", "1e-4300", "1e10000000", "1/0", "0/0",
        "nan", "-inf", "1/3", "0.5", 10**4000, True, False, [], [[]], [[1, 2]], {},
    ]
).map(copy.deepcopy)  # a fresh copy: a later mutation may edit a list in place


def _paths(value, prefix=()):
    """Every path to a list item or object value below ``value``."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for step, child in children:
        yield prefix + (step,)
        yield from _paths(child, prefix + (step,))


@st.composite
def _game_documents(draw):
    """A commission game's document with up to three values replaced or deleted."""
    commission, loss = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    document = copy.deepcopy(_COMMISSION_GAME)
    document["payoff_source"] = [[commission - loss, 0], [commission, -loss]]
    for _ in range(draw(st.integers(1, 3))):
        *parents, last = draw(st.sampled_from(list(_paths(document))))
        container = functools.reduce(operator.getitem, parents, document)
        if isinstance(container, dict) and draw(st.booleans()):
            del container[last]
        else:
            container[last] = draw(_GAME_ATOMS)
    return document


@settings(max_examples=300, deadline=None)
@given(_game_documents())
def test_any_game_document_exits_zero_one_or_two(document):
    try:
        coiquery.cli._read_game(_round_trip(document))
    except ConfigurationError:
        pass
    with tempfile.TemporaryDirectory() as workdir:
        game = Path(workdir) / "game.json"
        game.write_text(json.dumps(document))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(["equilibrium", "--game", str(game)])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


def test_exhausted_base_search_exits_one_naming_the_budget(
    tmp_path, mixed_config, capsys, monkeypatch
):
    monkeypatch.setattr(influence, "_SEARCH_NODE_BUDGET", 2)
    intent = _write_order(tmp_path, "intent.json", [["a"], ["b"], ["c"], ["d"]])
    code = run_command(
        ["influence", "--config", str(mixed_config), "--intent", str(intent)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "node budget of 2 placements" in captured.err
    assert "Traceback" not in captured.err


def test_analysis_errors_exit_one(tmp_path, capsys):
    # 2^7 user strategies times 2^10 source strategies exceed the profile cap.
    game = {
        "intents": [f"t{i}" for i in range(7)],
        "queries": [f"q{i}" for i in range(10)],
        "interpretations": ["b1", "b2"],
        "payoff_user": [[0, 0]] * 7,
        "payoff_source": [[0, 0]] * 7,
        "prior": ["1/7"] * 7,
        "set_equivalent": False,
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(game))
    assert run_command(["equilibrium", "--game", str(path)]) == 1
    capsys.readouterr()


# --------------------------------------------------------------------------- #
# Logging
# --------------------------------------------------------------------------- #


_MULTIPLICITY_RECORD = (
    "DEBUG coiquery.influence: 2 separations cover bias gap 1 at universe size 4; "
    "returning the smallest\n"
)


@pytest.mark.parametrize(
    "level, logged",
    [
        ("DEBUG", _MULTIPLICITY_RECORD),
        ("debug", _MULTIPLICITY_RECORD),
        ("CHATTY", ""),  # an unknown level name keeps the WARNING default
    ],
)
def test_coi_log_sets_the_stderr_level_of_a_fresh_process(tmp_path, level, logged):
    # A subprocess: once pytest has configured logging, basicConfig does nothing.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"z": 4, "bias": {"entries": {"e1": 1, "e2": 0}}}))
    intent = _write_order(tmp_path, "intent.json", [["e1"], ["e2"]])
    source = Path(coiquery.cli.__file__).resolve().parent.parent
    env = {**os.environ, "COI_LOG": level, "PYTHONPATH": str(source)}
    argv = ["influence", "--config", str(config), "--intent", str(intent)]
    child = subprocess.run(
        [sys.executable, "-m", "coiquery.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, logged)
    assert json.loads(child.stdout)["base"] == [["e1"], ["e2"]]


#: Runs each argv of ``sys.argv[1]`` in turn and prints, per subcommand, its
#: exit code and whether ``coiquery.bench`` and ``csv`` are loaded after it.
_MODULES_AFTER_EACH_RUN = """
import contextlib, io, json, sys
from coiquery.cli import run_command
loaded = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_command(argv)
    loaded[argv[0]] = [code, "coiquery.bench" in sys.modules, "csv" in sys.modules]
print(json.dumps(loaded))
"""


def test_only_bench_loads_the_bench_module_and_csv(tmp_path, mixed_config):
    # A fresh process: this test session has imported ``coiquery.bench`` itself.
    order = str(_write_order(tmp_path, "order.json", [["a"], ["b"], ["c"], ["d"]]))
    game = tmp_path / "game.json"
    game.write_text(json.dumps(_COMMISSION_GAME))
    config = str(mixed_config)
    runs = [
        ["trust", "--config", config, "--beta", order],
        ["influence", "--config", config, "--intent", order],
        ["maximize", "--config", config, "--intent", order],
        ["equilibrium", "--game", str(game)],
        ["bench", "--suite", "dp", "--m", "4", "--runs", "1"],
    ]
    source = Path(coiquery.cli.__file__).resolve().parent.parent
    child = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_EACH_RUN, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    analyses = ("trust", "influence", "maximize", "equilibrium")
    expected = {command: [0, False, False] for command in analyses}
    assert json.loads(child.stdout) == {**expected, "bench": [0, True, True]}


# --------------------------------------------------------------------------- #
# Configuration loading
# --------------------------------------------------------------------------- #


def test_load_config_derives_z_from_attributes(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_RULES_CONFIG))
    ctx = load_config(str(path))
    assert ctx.universe_size == 4
    assert ctx.top_k == 2
    # Sony elements are e3 and e4 in attribute-product order.
    assert ctx.bias.entries == {
        "e1": Fraction(0),
        "e2": Fraction(0),
        "e3": Fraction(1),
        "e4": Fraction(1),
    }


def test_load_config_rejects_z_attribute_mismatch(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "z": 3,
                "attributes": [{"name": "brand", "values": ["JBL", "Sony"]}],
            }
        )
    )
    with pytest.raises(ConfigurationError, match="disagrees"):
        load_config(str(path))


def test_load_config_requires_some_universe(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k": 3}))
    with pytest.raises(ConfigurationError, match="either z or attributes"):
        load_config(str(path))


def test_load_config_rejects_rules_without_attributes(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"z": 4, "bias_rules": [{"when": {"x": "y"}, "bias": 1}]})
    )
    with pytest.raises(ConfigurationError, match="require attributes"):
        load_config(str(path))


def test_load_config_rejects_unknown_utility_kind(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"z": 4, "kind_user": "cubic"}))
    with pytest.raises(ConfigurationError, match="unknown utility kind"):
        load_config(str(path))


def test_analysis_config_builds_a_context(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"z": 5, "k": 3, "kind_user": "product_user"}))
    ctx = load_config(str(path))
    assert ctx.universe_size == 5
    assert ctx.top_k == 3
    assert ctx.omitted_rank == 6
    assert ctx.kind_user is UtilityKind.PRODUCT_USER
    assert ctx.kind_source is UtilityKind.QUADRATIC_SOURCE_BIASED
    assert ctx.bias("e1") == 0


_BRAND = [{"name": "brand", "values": ["JBL", "Sony"]}]


@pytest.mark.parametrize(
    "document, message",
    [
        ({"attributes": "brand"}, "attributes must be a list"),
        ({"attributes": []}, "rank domain needs at least one attribute"),
        ({"attributes": [{"values": ["a"]}]}, "malformed attribute entry: 'name'"),
        (
            {"attributes": [7]},
            "malformed attribute entry: 'int' object is not subscriptable",
        ),
        (
            {"attributes": [{"name": "brand", "values": 3}]},
            "malformed attribute entry: name must be a string, values a list",
        ),
        (
            {"attributes": [{"name": "", "values": []}]},
            "attribute name must be nonempty",
        ),
        (
            {"attributes": [{"name": "brand", "values": []}], "z": "x"},
            "attribute 'brand' has an empty domain",
        ),
        (
            {"attributes": [{"name": "brand", "values": [1, True]}]},
            "attribute 'brand' has duplicate values",
        ),
        (
            {"attributes": [{"name": "brand", "values": [[1], [2]]}]},
            "malformed attribute entry: unhashable type: 'list'",
        ),
        ({"attributes": _BRAND, "z": "3"}, "z must be an integer, got '3'"),
        (
            {"attributes": _BRAND, "z": 3},
            "z=3 disagrees with the 2-element attribute product",
        ),
        ({"z": 4, "bias_rules": []}, "bias_rules require attributes"),
        ({"attributes": _BRAND, "bias_rules": None}, "bias rules must be a list"),
        (
            {"attributes": _BRAND, "bias_rules": [["brand"]]},
            "malformed bias rule: 'list' object has no attribute 'get'",
        ),
        (
            {"attributes": _BRAND, "bias_rules": [{"when": None, "bias": 1}]},
            "malformed bias rule: 'NoneType' object has no attribute 'items'",
        ),
        (
            {"attributes": _BRAND, "bias_rules": [{"when": {"nope": 1}}]},
            "malformed bias rule: 'bias'",
        ),
        (
            {"attributes": _BRAND, "bias_rules": [], "scale": None},
            "not a rational value: None",
        ),
        (
            {
                "attributes": _BRAND,
                "bias_rules": [{"when": {"nope": 1}, "bias": 1}],
                "scale": "x",
            },
            "not a rational value: 'x'",
        ),
        (
            {
                "attributes": _BRAND,
                "bias_rules": [
                    {"when": {"brand": "x"}, "bias": 1},
                    {"when": {"b": 1, "a": 2}, "bias": 1},
                ],
            },
            "bias rule references unknown attribute 'a'",
        ),
        (
            {"attributes": _ten_value_attributes(7), "bias_rules": "x"},
            "bias rules must be a list",
        ),
        (
            {"attributes": _ten_value_attributes(7), "bias_rules": []},
            "bias_rules apply to at most 1000000 attribute-product elements; "
            "give z and an explicit bias instead",
        ),
        # A string domain is not its characters ("JBL" would give z=3, e1 biased 2).
        (
            {
                "attributes": [{"name": "brand", "values": "JBL"}],
                "bias_rules": [{"when": {"brand": "J"}, "bias": 2}],
            },
            "malformed attribute entry: name must be a string, values a list",
        ),
        (
            {"attributes": [{"name": "brand", "values": {"JBL": 1, "Sony": 2}}]},
            "malformed attribute entry: name must be a string, values a list",
        ),
        (
            {"attributes": [{"name": None, "values": ["a", "b"]}]},
            "malformed attribute entry: name must be a string, values a list",
        ),
    ],
)
def test_malformed_attribute_configs_report_the_first_defect(
    tmp_path, document, message
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ConfigurationError) as caught:
        load_config(str(path))
    assert str(caught.value) == message


def test_an_explicit_bias_leaves_bias_rules_unread(tmp_path):
    path = tmp_path / "config.json"
    explicit = {"entries": {"e1": 1}}
    path.write_text(
        json.dumps({"attributes": _BRAND, "bias_rules": "x", "bias": explicit})
    )
    assert load_config(str(path)).bias.entries == {"e1": 1}


def test_trust_answers_an_attribute_product_without_building_it(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"attributes": _ten_value_attributes(8), "k": 2}))
    beta = _write_order(tmp_path, "beta.json", [["e1"], ["e2"]])
    started = time.monotonic()
    code = run_command(["trust", "--config", str(config), "--beta", str(beta)])
    assert time.monotonic() - started < 1.0
    assert code == 0
    assert json.loads(capsys.readouterr().out)["trustworthy"] == ["e1", "e2"]
    assert load_config(str(config)).universe_size == 10**8


_RULE_VALUES = st.sampled_from(["a", "b", 1, 1.0, True, None])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries(
            {
                "name": st.sampled_from(["brand", "tier", "size"]),
                "values": st.lists(_RULE_VALUES, min_size=1, max_size=3, unique=True),
            }
        ),
        min_size=1,
        max_size=3,
    ),
    st.lists(
        st.fixed_dictionaries(
            {
                "when": st.dictionaries(
                    st.sampled_from(["brand", "tier", "size"]), _RULE_VALUES, max_size=2
                ),
                "bias": st.integers(-3, 3) | st.sampled_from(["1/2", "-0.25"]),
            }
        ),
        max_size=4,
    ),
    st.integers(-2, 2) | st.sampled_from(["1/3", "2.5"]),
)
def test_rule_bias_agrees_with_the_naive_oracle(attributes, rules, scale):
    document = {"attributes": attributes, "bias_rules": rules, "scale": scale}
    names = {attribute["name"] for attribute in attributes}
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "config.json"
        path.write_text(json.dumps(document))
        if any(name not in names for rule in rules for name in rule["when"]):
            with pytest.raises(ConfigurationError, match="unknown attribute"):
                load_config(str(path))
            return
        bias = load_config(str(path)).bias
    expected = rule_bias_oracle(json.loads(json.dumps(document)))
    assert bias.entries == expected
    assert (bias.lower, bias.upper) == (min(expected.values()), max(expected.values()))
