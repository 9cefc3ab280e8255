"""Every benchmark workload's first requests pass the benchmark's own checks.

``benchmark/oracle.py`` recomputes what each report claims (thresholds,
constraint satisfaction, merge values, equilibrium deviations) without
the package.  This runs the first requests of each workload in
``benchmark/workloads.py`` through ``run_command`` and those checks, so a
change that breaks oracle agreement fails here and not only in a
benchmark run.  The warm-up is skipped: it only fills caches.
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
from workloads import WORKLOADS  # noqa: E402  (benchmark/ is not a package)

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
