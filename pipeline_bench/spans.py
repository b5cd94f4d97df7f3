"""Spans around petmine's public functions, installed from outside the program.

``Tracer.install`` replaces each function in ``SPANS`` with a wrapper in
every petmine module that holds it: the defining module and each module
that imported the name (``cli`` and ``lda`` import ``write_csv`` and
``save_arrays`` by name), so a call is caught where the caller looks the
name up.  Each call records a span (id, parent id, name, start, end); the
spans stay in memory until ``dump`` writes them out.  ``porter.stem`` runs
once per token, so for it only totals are kept, not a record per call.

Per name the tracer keeps total seconds, self seconds (total minus the
time of enclosed spans), calls and, for a few spans, the work done
(records parsed, tokens swept, draws, megabytes written) from which
rates and sizes are derived.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

SPANS = (
    "corpus.load_constituencies", "corpus.load_archive", "corpus.save_corpus",
    "corpus.load_corpus", "corpus.write_rejects_report",
    "textprep.build_dtm", "textprep.clean_tokens", "porter.stem",
    "textprep.save_dtm", "textprep.load_dtm",
    "lda.fit", "kernels.init_assignments", "kernels.gibbs_sweep",
    "kernels.log_likelihood", "lda.save_model", "lda.load_model",
    "lda.top_words", "lda.make_intrusion_instances",
    "lda.held_out_log_likelihood", "lda.infer_theta", "kernels.infer_doc",
    "issues.prevalence", "issues.success_probability",
    "issues.co_occurrence_network", "issues.word_distribution_network",
    "temporal.build_series", "temporal.smooth", "temporal.entropy_series",
    "temporal.detect_volatility",
    "geo.profile_constituencies", "geo.scaling_fit", "geo.pam_cluster",
    "geo.silhouette_sweep", "geo.cluster_issue_profile",
    "powerlaw.ccdf", "powerlaw.fit_powerlaw", "powerlaw.threshold_divergence",
    "util.write_csv", "util.save_arrays", "util.load_arrays",
)
# regions the benchmark opens around each CLI command
STAGES = ("cli.ingest", "cli.fit", "cli.report", "cli.grid")
# spans that enclose other spans, reported with their self time
ENCLOSING = STAGES + (
    "corpus.load_corpus", "corpus.write_rejects_report",
    "textprep.build_dtm", "textprep.clean_tokens", "textprep.save_dtm",
    "textprep.load_dtm", "lda.fit", "lda.save_model", "lda.load_model",
    "lda.make_intrusion_instances", "lda.held_out_log_likelihood",
    "lda.infer_theta",
)
TOTALS_ONLY = frozenset({"porter.stem"})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _megabytes(index, name):
    return lambda args, kwargs, result: (
        os.path.getsize(_arg(args, kwargs, index, name)) / 1e6)


# work done by one call, from its arguments and result
WORK = {
    "corpus.load_archive":
        lambda a, k, r: r.ingest_report.total_lines,
    "corpus.save_corpus": _megabytes(1, "path"),
    "kernels.gibbs_sweep":
        lambda a, k, r: len(_arg(a, k, 2, "token_word")),
    "kernels.infer_doc":
        lambda a, k, r: len(_arg(a, k, 0, "words")) * int(_arg(a, k, 4, "n_sweeps")),
    "util.write_csv": _megabytes(0, "path"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        # name -> [seconds, self seconds, calls, work]
        self.totals: dict[str, list[float]] = {}
        self._stack: list[list] = []      # [span id, child seconds]
        self._next_id = 0

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        total = self.totals.setdefault(name, [0.0, 0.0, 0, 0.0])
        total[0] += duration
        total[1] += duration - frame[1]
        total[2] += 1
        if name not in TOTALS_ONLY:
            self.spans.append((frame[0], -1 if parent is None else parent[0],
                               name, start, end))

    @contextlib.contextmanager
    def region(self, name: str):
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start, time.perf_counter())

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start, time.perf_counter())
            if work is not None:
                self.totals[name][3] += work(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        importlib.import_module("petmine.cli")    # imports every layer
        modules = [m for key, m in list(sys.modules.items())
                   if key == "petmine" or key.startswith("petmine.")]
        for span in SPANS:
            module_name, attr = span.split(".")
            original = getattr(sys.modules[f"petmine.{module_name}"], attr)
            wrapper = self.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans,
                       "totals": {name: dict(zip(("s", "self_s", "calls", "work"), v))
                                  for name, v in sorted(self.totals.items())}},
                      fh)


def call_overhead(calls: int = 50_000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def layer_metrics(tracer: Tracer, rounds: int,
                  pace: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, per round.

    Every span gives ``<span>.s``, its total seconds per round, and
    ``<span>.calls``, its calls per round; a span that encloses other
    spans also gives ``<span>.self_s``, its seconds outside them.  A span
    that does not run on a workload reads 0.  Rates and sizes follow.
    Times and rates are scaled to the reference pace by the run's
    ``pace`` factor (``pace.py``); the dumped spans keep wall times.
    """
    out: dict[str, tuple[float, str]] = {}
    for name in STAGES + SPANS:
        seconds, self_s, calls, _ = tracer.totals.get(name, (0.0, 0.0, 0, 0.0))
        out[f"{name}.s"] = (seconds / rounds / pace, "s")
        out[f"{name}.calls"] = (calls / rounds, "count")
        if name in ENCLOSING:
            out[f"{name}.self_s"] = (self_s / rounds / pace, "s")

    def rate(name):
        seconds, _, _, work = tracer.totals.get(name, (0.0, 0.0, 0, 0.0))
        return work / seconds * pace if seconds > 0 else 0.0

    def work(name):
        return tracer.totals.get(name, (0.0, 0.0, 0, 0.0))[3] / rounds

    out["corpus.load_archive.records_per_s"] = (rate("corpus.load_archive"), "1/s")
    out["kernels.gibbs_sweep.tokens_per_s"] = (rate("kernels.gibbs_sweep"), "1/s")
    out["kernels.infer_doc.draws_per_s"] = (rate("kernels.infer_doc"), "1/s")
    out["corpus.snapshot_mb"] = (
        work("corpus.save_corpus") / max(1.0, out["corpus.save_corpus.calls"][0]), "MB")
    out["util.write_csv.mb"] = (work("util.write_csv"), "MB")
    return out
