"""Closed-loop benchmark of the ``coiquery`` command line.

    python3 benchmark/run.py --workload trust-cold --seed 1 --seconds 20 --trace 0

One client sends one request at a time and waits for it: each request
is a ``coiquery`` subcommand run in this process through
``coiquery.cli.run_command`` on JSON files generated from the seed.
Every report is checked by ``oracle.py``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The exit code
is nonzero when an output check fails.  Workloads, metrics and
findings are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Fresh interpreters started to time ``import coiquery.cli``.
SETUP_REPEATS = 9
#: Traced requests whose counts are replayed and must repeat exactly.
COUNT_PREFIX = 8
#: Samples a run must leave beyond its p90 latency.
TAIL_SAMPLES = 10
#: Shortest gap between speed-gauge samples; short requests share samples.
GAUGE_INTERVAL_S = 0.025
#: Consecutive request blocks whose median rate is reported as req_per_s.
RATE_BLOCKS = 20


#: Median duration of ``_probe_work`` on the machine the benchmark was
#: defined on (2-CPU container, Python 3.11.7); see README.md.
PROBE_REFERENCE_S = 0.0012


def _probe_work() -> None:
    """Fixed interpreter-bound work: exact fractions, dicts, strings, sorting."""
    total = Fraction(0)
    table = {}
    for i in range(1, 400):
        total += Fraction(i, i + 3)
        table[f"e{i}"] = (i * 7919) % 1009
    sorted(table.items(), key=lambda item: item[1])


class SpeedGauge:
    """Tracks the machine's speed with a probe timed between requests.

    The effective speed of a shared machine drifts by tens of percent
    over seconds.  Every timing the benchmark reports is scaled by
    ``PROBE_REFERENCE_S / probe time`` around it, the median of the five
    probes nearest to it, so it reads in seconds of the reference
    machine.  The probe is the benchmark's own code, runs with the
    collector off and is timed on its second pass, after its first has
    refilled the caches; so the program under test barely changes its
    speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the probe once; returns the index of the new sample."""
        gc.disable()
        try:
            _probe_work()  # refills the caches the last request evicted
            started = time.perf_counter()
            _probe_work()
            self.samples.append(time.perf_counter() - started)
        finally:
            gc.enable()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor for an interval between samples ``index`` and ``index + 1``."""
        window = self.samples[max(0, index - 2) : index + 3]
        return PROBE_REFERENCE_S / statistics.median(window)


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: every order statistic
    weighted by the Beta(p(n+1), (1-p)(n+1)) mass of its slot of [0, 1]
    (as ``scipy.stats.mstats.hdquantiles``, whose import alone would add
    tens of MB to the resident memory this benchmark reports).
    """
    ordered = np.sort(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    points = (np.arange(16 * n) + 0.5) / (16 * n)  # 16 midpoints per slot
    log_density = (a - 1) * np.log(points) + (b - 1) * np.log1p(-points)
    weights = np.exp(log_density - log_density.max()).reshape(n, 16).sum(axis=1)
    return float(np.dot(weights, ordered) / weights.sum())


def median_rate(seconds: list[float], ok: list[bool], round_size: int) -> float:
    """Checked requests per second: the median of the rates of up to
    ``RATE_BLOCKS`` consecutive blocks of whole rounds of the workload's
    size mix (a trailing partial round is left out).

    ``base_query`` now and then runs for seconds on one request in
    thousands (README.md, finding 4); the mean rate of a run then
    depends on whether it drew one, while the median block does not.
    Whole rounds give every block the same mix of request sizes.
    """
    rounds = len(seconds) // round_size
    if rounds == 0:  # a run too short for one round
        return sum(ok) / sum(seconds)
    used = rounds * round_size
    per_round = [
        np.asarray(values[:used], dtype=float).reshape(rounds, round_size).sum(axis=1)
        for values in (seconds, ok)
    ]
    blocks = zip(*(np.array_split(values, min(RATE_BLOCKS, rounds)) for values in per_round))
    return statistics.median(float(passed.sum() / spent.sum()) for spent, passed in blocks)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside the program when a request runs too long."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


class _Sink:
    """Stands in for stderr: the program still formats its log lines."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def time_setup(gauge: SpeedGauge) -> float:
    """Median time of a fresh interpreter importing ``coiquery.cli``."""
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    timed = []
    for _ in range(SETUP_REPEATS):
        before = gauge.sample()
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import coiquery.cli"], env=env, check=True, timeout=60
        )
        timed.append((time.perf_counter() - started, before))
    gauge.sample()
    return statistics.median(seconds * gauge.scale(i) for seconds, i in timed)


class Session:
    """One run: warm-up, the timed closed loop, checks and metrics."""

    def __init__(self, workload, seconds, trace, run_command, gauge) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.run_command = run_command
        self.gauge = gauge
        self.universes: set[int] = set()  # trust universes screened so far
        self.problems: list[str] = []

    def execute(self, request, recorder=None, request_id=0):
        """Run one request; returns (seconds, report or None, failure or None)."""
        request.write_files()
        buffer = io.StringIO()
        if recorder:
            recorder.install(request_id)
        failure = None
        signal.setitimer(signal.ITIMER_REAL, self.workload.deadline_s)
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                if recorder:
                    code = recorder.run(self.run_command, request.argv)
                else:
                    code = self.run_command(request.argv)
        except DeadlineExceeded:
            code, failure = None, f"deadline of {self.workload.deadline_s} s passed"
        except Exception:
            code, failure = None, "traceback: " + traceback.format_exc(limit=3)
            self.problems.append(f"{request.argv[0]} raised: {failure}")
        finally:
            elapsed = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
            if recorder:
                recorder.uninstall()
        if request.universe is not None:
            self.universes.add(request.universe)
        if failure is None and code != 0:
            failure = f"exit code {code}"
        if failure:
            return elapsed, None, failure
        text = buffer.getvalue()
        if recorder:
            recorder.counts[request_id]["cli.report_bytes"] += len(text.encode())
        try:
            report = json.loads(text)
        except ValueError:
            report, problems = None, ["report is not JSON"]
        else:
            problems = request.check(report)
        if problems:
            self.problems.extend(f"{request.argv[0]}: {p}" for p in problems[:3])
            return elapsed, None, "output check failed"
        return elapsed, report, None

    def warm_up(self) -> float:
        """Run the workload's declared warm-up; returns its scaled duration."""
        timed = []
        before = self.gauge.sample()
        for request in self.workload.warmup():
            elapsed, _, failure = self.execute(request)
            if failure:
                self.problems.append(f"warm-up request failed: {failure}")
            timed.append((elapsed, before))
            before = self.gauge.sample()
        return sum(seconds * self.gauge.scale(i) for seconds, i in timed)

    def run(self, setup_s: float) -> dict:
        import spans

        setup_s += self.warm_up()
        recorder = spans.Recorder(self.universes) if self.trace else None
        # Per measured request: (seconds, last gauge sample before it, traced, ok).
        timed: list[tuple[float, int, bool, bool]] = []
        decided = ok = 0
        prefix: list[tuple[int, object]] = []
        failures: dict[str, int] = {}
        stream = self.workload.requests()
        # A seeded coin, not alternation, picks the traced requests, so
        # they cannot line up with a workload's own request pattern.
        coin = random.Random(f"trace:{self.workload.seed}")
        before = self.gauge.sample()
        started = sampled_at = time.perf_counter()
        index = 0
        while time.perf_counter() - started < self.seconds or len(prefix) < COUNT_PREFIX * self.trace:
            request = next(stream)
            traced = self.trace and coin.random() < 0.5
            elapsed, report, failure = self.execute(request, recorder if traced else None, index)
            timed.append((elapsed, before, traced, failure is None))
            if time.perf_counter() - sampled_at >= GAUGE_INTERVAL_S:
                before = self.gauge.sample()
                sampled_at = time.perf_counter()
            if failure:
                failures[failure] = failures.get(failure, 0) + 1
            else:
                ok += 1
                decided += request.decided(report)
            if traced and len(prefix) < COUNT_PREFIX:
                prefix.append((index, request))
            index += 1
        attempted = len(timed)
        for failure, count in failures.items():
            print(f"{count} request(s) failed: {failure}", file=sys.__stderr__)
        self.gauge.sample()
        scales = [self.gauge.scale(i) for _, i, _, _ in timed]
        raw = [seconds for seconds, _, _, _ in timed]
        latency = {
            flag: [seconds * scale for (seconds, _, traced, _), scale in zip(timed, scales) if traced == flag]
            for flag in (False, True)
        }
        print(
            f"{attempted} requests in {sum(raw):.2f} s measured; speed scale "
            f"median {statistics.median(scales):.3f} (min {min(scales):.3f}, max {max(scales):.3f})",
            file=sys.__stderr__,
        )

        if self.trace:
            self._replay(spans, recorder, prefix)
            WORK.mkdir(exist_ok=True)
            recorder.write(WORK / f"{self.workload.name}-seed{self.workload.seed}.spans.jsonl")
            timings, counts = spans.layer_metrics(
                recorder, [i for i, _ in prefix], dict(enumerate(scales))
            )
            # Medians: the means of two random halves of a heavy-tailed
            # workload differ by more than the tracing overhead.
            untraced, traced_ = (statistics.median(latency[flag]) for flag in (False, True))
            metrics = {**timings, **counts, "trace.overhead_frac": 1 - untraced / traced_}
        else:
            samples = latency[False]
            # Harrell-Davis estimates weight every order statistic, so a
            # percentile that falls between two request classes (game
            # shapes, say) does not jump from one class to the other.
            p50, p90 = (hd_quantile(samples, p) for p in (0.5, 0.9))
            beyond = sum(value > p90 for value in samples)
            print(f"{beyond} samples beyond p90", file=sys.__stderr__)
            if beyond < TAIL_SAMPLES:
                print(f"warning: fewer than {TAIL_SAMPLES} samples beyond p90", file=sys.__stderr__)
            metrics = {
                "req_per_s": median_rate(
                    samples, [passed for *_, passed in timed], self.workload.round_size
                ),
                "latency_p50_ms": 1000 * p50,
                "latency_p90_ms": 1000 * p90,
                "ok_frac": ok / attempted,
                "decided_frac": decided / ok if ok else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": setup_s,
            }
        return {
            "correct": not self.problems,
            "attempted": attempted,
            "failed": attempted - ok,
            "metrics": metrics,
        }

    def _replay(self, spans, recorder, prefix) -> None:
        """Run the count prefix again and require identical counts."""
        again = spans.Recorder(self.universes)
        for index, request in prefix:
            _, _, failure = self.execute(request, again, index)
            if failure:
                self.problems.append(f"replayed request {index} failed: {failure}")
            elif again.counts[index] != recorder.counts[index]:
                self.problems.append(
                    f"counts of request {index} did not repeat: "
                    f"{dict(recorder.counts[index])} then {dict(again.counts[index])}"
                )


def labelled(metrics: dict, declared: list[dict]) -> dict:
    """Attach units from BENCHMARK.json; the two metric sets must agree."""
    names = {entry["name"] for entry in declared}
    if names != set(metrics):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ names)} disagree with BENCHMARK.json")
    return {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coiquery" / "cli.py").is_file():
        print(f"no coiquery sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import coiquery.cli
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    gauge = SpeedGauge()
    setup_s = time_setup(gauge)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    sys.stderr = _Sink()  # the program's log handler binds to this on first use
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        session = Session(
            workload, args.seconds, bool(args.trace), coiquery.cli.run_command, gauge
        )
        result = session.run(setup_s)
    finally:
        sys.stderr = sys.__stderr__
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in session.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result["metrics"] = labelled(
        result["metrics"], declared["per_layer" if args.trace else "end_to_end"]
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
