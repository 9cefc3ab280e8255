"""Every benchmark workload's first requests pass the benchmark's own checks.

``benchmark/oracle.py`` recomputes what each report claims (thresholds,
constraint satisfaction, merge values, equilibrium deviations) without
the package.  This runs the first requests of each workload in
``benchmark/workloads.py`` through ``run_command`` and those checks, so a
change that breaks oracle agreement fails here and not only in a
benchmark run.  The same requests then run under ``benchmark/spans.py``'s
recorder, as a traced benchmark run does.  The warm-up is skipped: it
only fills caches.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from coiquery.cli import run_command

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
import spans  # noqa: E402  (benchmark/ is not a package)
from workloads import WORKLOADS  # noqa: E402

#: Requests per workload, the first of the stream; kept small by count.
REQUESTS = 8
SEED = 20261020


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_requests_pass_the_benchmark_checks(tmp_path, name):
    workload = WORKLOADS[name](SEED, tmp_path)
    for request in itertools.islice(workload.requests(), REQUESTS):
        request.write_files()
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = run_command(request.argv)
        assert code == 0, request.argv
        assert request.check(json.loads(buffer.getvalue())) == [], request.argv


#: Per subcommand: the spans a traced request records, and a count that
#: the benchmark's per-layer metrics must find nonzero.
TRACED = {
    "trust": ({"cli.load_config", "trust.detect_trustworthy"}, "trust.keys_screened"),
    "influence": (
        {"influence.build_delta_query", "influence.classify_ranking_set"},
        "influence.constraints",
    ),
    "maximize": (
        {"influence.base_query", "merge.maximize_merge_dp"},
        "merge.cells",
    ),
    "equilibrium": (
        {"equilibrium.enumerate_pure_equilibria"},
        "equilibrium.profiles",
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_requests_run_under_the_benchmark_recorder(tmp_path, name):
    # The recorder rebinds names in ``cli`` and ``merge`` and reads fields
    # of the results; a change to either fails here, not only in a run
    # with ``--trace 1``.
    rebound = [
        (module, function)
        for table in (spans.SPANNED, spans.COUNTED)
        for function, modules in table.items()
        for module in modules
    ]
    originals = [getattr(module, function) for module, function in rebound]
    workload = WORKLOADS[name](SEED, tmp_path)
    universes: set[int] = set()
    recorder = spans.Recorder(universes)
    commands = set()
    for index, request in enumerate(itertools.islice(workload.requests(), REQUESTS)):
        request.write_files()
        buffer = io.StringIO()
        recorder.install(index)
        try:
            with contextlib.redirect_stdout(buffer):
                code = recorder.run(run_command, request.argv)
        finally:
            recorder.uninstall()
        assert [getattr(module, function) for module, function in rebound] == originals
        assert code == 0, request.argv
        assert request.check(json.loads(buffer.getvalue())) == [], request.argv
        if request.universe is not None:
            universes.add(request.universe)
        commands.add(request.argv[0])
    recorded = {span.name for span in recorder.spans}
    scales = dict.fromkeys(range(REQUESTS), 1.0)
    _, counts = spans.layer_metrics(recorder, list(range(REQUESTS)), scales)
    for command in commands:
        expected, counted = TRACED[command]
        assert expected | {"cli.run_command"} <= recorded, command
        assert counts[counted] > 0, (command, counted)
