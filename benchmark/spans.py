"""Span recording for the traced run, from outside the package.

For the length of one traced request the recorder rebinds the public
names that ``coiquery.cli`` and ``coiquery.merge`` look up at call time
to wrappers that record a span (name, start, end, parent, request id)
and the counts the per-layer metrics need.  ``uninstall`` puts the
original functions back, so untraced requests run the package as
shipped.  GC pauses are taken from ``gc.callbacks`` over the same
window.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import coiquery.cli
import coiquery.merge

#: Function name -> modules whose global of that name is rebound.
SPANNED = {
    "load_config": (coiquery.cli,),
    "detect_trustworthy": (coiquery.cli,),
    "build_delta_query": (coiquery.cli, coiquery.merge),
    "base_query": (coiquery.cli, coiquery.merge),
    "classify_ranking_set": (coiquery.cli,),
    "maximize_merge_dp": (coiquery.cli,),
    "enumerate_pure_equilibria": (coiquery.cli,),
    "influential_witness": (coiquery.cli,),
}
#: Called tens of thousands of times per request: counted, not spanned.
COUNTED = {"block_expected_user_utility": (coiquery.merge,)}

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a request root
    request: int
    attrs: dict


class Recorder:
    """In-memory spans and per-request counts of the traced requests."""

    def __init__(self, universes: set[int]) -> None:
        """``universes``: sizes already screened in this process, kept by the caller."""
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[int, Counter] = {}
        self.gc_pause: dict[int, float] = {}
        self.gc_full: dict[int, int] = {}
        self.universes = universes
        self.originals: list[tuple[object, str, object]] = []
        self._gc_started = 0.0

    # -- installation ------------------------------------------------------

    def install(self, request: int) -> None:
        self.request = request
        self.counts[request] = Counter()
        self.gc_pause[request] = 0.0
        self.gc_full[request] = 0
        for table, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, modules in table.items():
                for module in modules:
                    original = getattr(module, name)
                    self.originals.append((module, name, original))
                    setattr(module, name, wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, name, original in reversed(self.originals):
            setattr(module, name, original)
        self.originals.clear()

    def run(self, function, *args):
        """Call ``function`` as the root span ``cli.run_command``."""
        return self._spanned("run_command", function, module="cli")(*args)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, function, module=None):
        label = f"{module or function.__module__.rsplit('.', 1)[-1]}.{name}"
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            attrs: dict = {}
            if before:
                before(attrs, *args)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = Span(label, start, end, parent, self.request, attrs)
            if after:
                after(attrs, result, *args)
            return result

        return traced

    def _counted(self, name, function):
        counts = self.counts[self.request]
        label = f"{function.__module__.rsplit('.', 1)[-1]}.{name}.calls"

        @functools.wraps(function)
        def counted(*args, **kwargs):
            counts[label] += 1
            return function(*args, **kwargs)

        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.gc_pause[self.request] += time.perf_counter() - self._gc_started
        self.gc_full[self.request] += info["generation"] == 2

    # -- observers: _before_<name>(attrs, *args), _after_<name>(attrs, result, *args)

    def _before_detect_trustworthy(self, attrs, beta, ctx, *rest):
        attrs["cold"] = ctx.universe_size not in self.universes
        attrs["keys"] = len(beta.keys())
        if attrs["cold"]:
            attrs["rss_mb"] = _rss_mb()

    def _after_detect_trustworthy(self, attrs, result, *args):
        if attrs["cold"]:
            attrs["rss_growth_mb"] = _rss_mb() - attrs.pop("rss_mb")
        counts = self.counts[self.request]
        counts["trust.keys_screened"] += attrs["keys"]
        counts["trust.flagged"] += len(result.flagged)

    def _after_build_delta_query(self, attrs, query, *args):
        self.counts[self.request]["influence.constraints"] += len(query.constraints)

    def _after_classify_ranking_set(self, attrs, summary, *args):
        kind = summary.kind.value.lower()
        self.counts[self.request][f"influence.ranking_set.{kind}"] += 1

    def _after_maximize_merge_dp(self, attrs, result, *args):
        size = result.partition.size
        self.counts[self.request]["merge.cells"] += size * (size + 1) // 2

    def _before_enumerate_pure_equilibria(self, attrs, game, *rest):
        attrs["profiles"] = len(game.queries) ** len(game.intents) * len(
            game.interpretations
        ) ** len(game.queries)

    def _after_enumerate_pure_equilibria(self, attrs, result, *args):
        counts = self.counts[self.request]
        counts["equilibrium.profiles"] += attrs["profiles"]
        counts["equilibrium.equilibria"] += len(result)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")

    def request_times(self, scales: dict[int, float]) -> dict[int, dict[str, float]]:
        """Per request: total and self milliseconds per span name, scaled."""
        durations = [1000 * (s.end - s.start) * scales[s.request] for s in self.spans]
        child_time = [0.0] * len(self.spans)
        for span, duration in zip(self.spans, durations):
            if span.parent >= 0:
                child_time[span.parent] += duration
        per_request: dict[int, dict[str, float]] = {}
        for span, duration, children in zip(self.spans, durations, child_time):
            times = per_request.setdefault(span.request, Counter())
            times[f"{span.name}.ms"] += duration
            times[f"{span.name}.self_ms"] += duration - children
        return per_request


def layer_metrics(
    recorder: Recorder, prefix: list[int], scales: dict[int, float]
) -> tuple[dict, dict]:
    """Per-layer metrics: (timings over all traced requests, prefix counts).

    Timings are medians over the traced requests that reached the
    layer (0 where none did), each scaled by its request's speed factor
    from ``scales``.  Counts are totals over the ``prefix`` requests,
    the same inputs for every run of one seed.
    """
    per_request = recorder.request_times(scales).values()

    def ms(span: Span) -> float:
        return 1000 * (span.end - span.start) * scales[span.request]

    timings = {}
    for name in (
        "cli.run_command.self_ms",
        "cli.load_config.ms",
        "influence.build_delta_query.ms",
        "influence.base_query.ms",
        "influence.classify_ranking_set.ms",
        "merge.maximize_merge_dp.self_ms",
        "equilibrium.enumerate_pure_equilibria.ms",
        "equilibrium.influential_witness.ms",
    ):
        values = [times[name] for times in per_request if name in times]
        timings[name] = statistics.median(values) if values else 0.0
    trust_spans = [s for s in recorder.spans if s.name == "trust.detect_trustworthy"]
    cold = [s for s in trust_spans if s.attrs["cold"]]
    warm = [s for s in trust_spans if not s.attrs["cold"]]
    timings["trust.detect_trustworthy.cold_ms"] = (
        statistics.median(ms(s) for s in cold) if cold else 0.0
    )
    timings["trust.detect_trustworthy.warm_us_per_key"] = (
        statistics.median(1000 * ms(s) / s.attrs["keys"] for s in warm)
        if warm
        else 0.0
    )
    timings["trust.rss_growth_mb"] = (
        statistics.median(s.attrs["rss_growth_mb"] for s in cold) if cold else 0.0
    )
    enumerations = [s for s in recorder.spans if s.name == "equilibrium.enumerate_pure_equilibria"]
    enumerated_ms = sum(ms(s) for s in enumerations)
    timings["equilibrium.profiles_per_ms"] = (
        sum(s.attrs["profiles"] for s in enumerations) / enumerated_ms if enumerations else 0.0
    )
    timings["runtime.gc_pause_ms"] = 1000 * statistics.fmean(
        pause * scales[request] for request, pause in recorder.gc_pause.items()
    )
    timings["runtime.gc_gen2_collections"] = sum(recorder.gc_full.values())

    totals = Counter()
    for request in prefix:
        totals.update(recorder.counts[request])
    counts = {
        name: totals[name]
        for name in (
            "cli.report_bytes",
            "trust.keys_screened",
            "influence.constraints",
            "influence.ranking_set.empty",
            "influence.ranking_set.singleton",
            "influence.ranking_set.multiple",
            "influence.ranking_set.unknown",
            "merge.cells",
            "posterior.block_expected_user_utility.calls",
            "equilibrium.profiles",
            "equilibrium.equilibria",
        )
    }
    counts["trust.flagged_frac"] = (
        totals["trust.flagged"] / totals["trust.keys_screened"]
        if totals["trust.keys_screened"]
        else 0.0
    )
    counts["posterior.evals_per_cell"] = (
        totals["posterior.block_expected_user_utility.calls"] / totals["merge.cells"]
        if totals["merge.cells"]
        else 0.0
    )
    return timings, counts
