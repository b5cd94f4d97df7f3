"""Pipeline benchmark for petmine: ingest, DTM, fit, report and grid, timed.

    python3 pipeline_bench/run.py [--workload NAME|all] [--seed N]
                                  [--seconds S] [--trace 0|1]

Each workload is generated from ``--seed`` (see ``generate.py``) and set
up in three batches, each of as many set-ups as fill 1 s (one, at paper
scale); ``setup_s`` is the median of the batches' mean set-up times.
One worker process then repeats whole rounds of the workload's stages
until ``--seconds`` have passed and at least ``MIN_ROUNDS`` rounds ran.
Every time reported is scaled to the reference pace of the host
(``pace.py``): the wall time over the host's pace, sampled during the
same set-ups or stages.
Stages call the ``petmine`` CLI in-process (``cli.main``) or, for the DTM
step, the module functions ``petmine fit`` calls first.  After every round
the outputs are checked against the generator's truth (``checks.py``);
each stage and each check is one operation.

With ``--trace 0`` the last line carries the end-to-end metrics
(``setup_s``, ``pipeline_s`` -- the mean time of a round's stages -- and
``peak_rss_mb``); with ``--trace 1`` the
worker wraps petmine's public functions (``spans.py``) and the last line
carries the per-layer metrics, while the spans go to
``pipeline_bench/traces/``.  Stage times, the environment and failed
operations are printed above the last line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import checks
import generate
import pace
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
TRACES = os.path.join(HERE, "traces")
SETUPS = 3
SETUP_BATCH_S = 1.0         # set-ups shorter than this are timed in batches
TIME_LIMIT_S = 175
MIN_ROUNDS = 2              # the repeat checks need two
WINDOW = "2015-05-07,2017-05-03"
GRID_K = [5, 10]


@dataclasses.dataclass(frozen=True)
class Workload:
    scale: generate.Scale
    stages: tuple[str, ...]
    known_failure: str | None = None


WORKLOADS = {
    "paper-archive": Workload(generate.PAPER, ("ingest", "dtm", "report"),
                              known_failure="profiles_readback"),
    "fit-k10": Workload(generate.SMALL, ("ingest", "fit", "report")),
    "grid-heldout": Workload(generate.SMALL, ("grid",)),
}
FIT_ARGS = ["--k", "10", "--iterations", "30", "--burn-in", "20",
            "--sample-every", "5"]
GRID_ARGS = ["--k-values", ",".join(map(str, GRID_K)), "--holdout", "0.1",
             "--iterations", "10", "--burn-in", "5", "--sample-every", "5"]
QUALITY = ("lda.train_perplexity", "lda.heldout_perplexity")


# ---------------------------------------------------------------------------
# set-up (parent process)


def set_up(name: str, inputs: str, seed: int) -> str:
    """Write one workload's inputs and the truth its checks use.

    Returns a one-line description of the inputs' make-up.
    """
    scale = WORKLOADS[name].scale
    if name == "grid-heldout":
        planted, _ = generate.draw(scale, seed)
        os.makedirs(inputs)
        terms = generate.write_planted_dtm(planted, scale,
                                           os.path.join(inputs, "dtm.bin"))
        makeup = f"{len(planted.ids)} documents, {terms} terms"
    else:
        planted = generate.write_archive(inputs, scale, seed)
        if name == "paper-archive":
            generate.write_planted_model(planted, scale, seed,
                                         os.path.join(inputs, "model.bin"))
        makeup = (f"{len(planted.ids)} petitions, {scale.constituencies} "
                  f"constituencies, {planted.pairs} petition x constituency "
                  f"pairs, {int(planted.uk.sum())} UK signatures, "
                  f"{planted.raw_tokens} raw tokens, "
                  f"{planted.distinct_tokens} distinct stemmer inputs")
    generate.save_truth(planted, os.path.join(inputs, "truth.npz"),
                        tail_exponent=generate.TAIL_EXPONENT)
    return (makeup + f", {sum(len(r) for r in planted.token_rows)} "
            "planted content tokens")


# ---------------------------------------------------------------------------
# worker process


class Operations:
    """Counts operations and records the ones that fail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def run(self, name, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:    # one failed operation must not end the run
            if not isinstance(exc, checks.CheckFailed):
                traceback.print_exc()
            self.failures.append((name, f"{type(exc).__name__}: {exc}"))
            return None


def _stage(stage: str, out: str, inputs: str, seed: int, tracer) -> float:
    from petmine import cli, corpus, textprep

    common = ["--output-dir", out, "--seed", str(seed)]
    archive = ["--archive", os.path.join(inputs, "archive.jsonl"),
               "--constituencies", os.path.join(inputs, "constituencies.csv"),
               "--window", WINDOW]
    argv = {"ingest": ["ingest"] + common + archive,
            "fit": ["fit"] + common + archive + FIT_ARGS,
            "report": ["report"] + common + archive,
            "grid": ["grid"] + common + GRID_ARGS}
    t0 = time.perf_counter()
    if stage == "dtm":
        # the first half of `petmine fit`, with its default settings:
        # reload the snapshot, build, save
        cfg = cli.PipelineConfig()
        c = corpus.load_corpus(os.path.join(out, "corpus.jsonl"))
        dtm = textprep.build_dtm(c, textprep.load_stopwords(cfg.stopwords),
                                 cfg.min_doc_fraction)
        textprep.save_dtm(dtm, os.path.join(out, "dtm.bin"))
        elapsed = time.perf_counter() - t0
    else:
        if tracer is None:
            rc = cli.main(argv[stage])
        else:
            with tracer.region(f"cli.{stage}"):
                rc = cli.main(argv[stage])
        elapsed = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"petmine {stage} exited with {rc}")
    return elapsed


def _checks(name: str, out: str, truth: dict):
    """(operation name, callable) for every output check of a round."""
    from petmine import cli

    pam_k = cli.PipelineConfig().pam_k
    if name == "grid-heldout":
        return [("heldout_perplexity",
                 lambda: checks.heldout_perplexity(out, truth, GRID_K))]
    # paper-archive reports on the planted model, fit-k10 on its own fit
    theta = (lambda: truth["theta"]) if name == "paper-archive" else (
        lambda: checks.model_theta(out))
    ops = [("ingest_counts", lambda: checks.ingest_counts(out, truth)),
           ("dtm_docs", lambda: checks.dtm_docs(out, truth))]
    if name == "fit-k10":
        ops += [("model_rows", lambda: checks.model_rows(out, truth)),
                ("likelihood_rises", lambda: checks.likelihood_rises(out, truth)),
                ("purity", lambda: checks.purity(out, truth)),
                ("train_perplexity", lambda: checks.train_perplexity(out, truth))]
    ops += [("signature_totals", lambda: checks.signature_totals(out, truth)),
            ("prevalence", lambda: checks.prevalence(out, truth, theta())),
            ("profile_shares", lambda: checks.profile_shares(out, truth)),
            ("clusters", lambda: checks.clusters(out, truth, pam_k)),
            ("entropy", lambda: checks.entropy(
                out, truth, burst=name == "paper-archive"))]
    if name == "paper-archive":
        ops.append(("powerlaw", lambda: checks.powerlaw(out, truth)))
    ops.append(("profiles_readback", lambda: checks.profiles_readback(out, truth)))
    return ops


def worker(name: str, work: str, seed: int, seconds: float, traced: bool) -> dict:
    import importlib

    import numpy
    import scipy
    from petmine import kernels

    importlib.import_module("petmine.cli")     # imports every layer, untimed

    workload = WORKLOADS[name]
    inputs = os.path.join(work, "inputs")
    out = os.path.join(work, "out")
    truth = generate.load_truth(os.path.join(inputs, "truth.npz"))
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    repeat_file = {"fit-k10": "model.bin", "grid-heldout": "grid.csv"}.get(name)
    ops = Operations()
    rounds: list[dict[str, float]] = []
    quality: dict[str, list[float]] = {}
    first_digest = ""
    start = time.perf_counter()
    pacer = pace.Pace()
    try:
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            for snapshot in ("model.bin", "dtm.bin"):
                if os.path.exists(os.path.join(inputs, snapshot)):
                    shutil.copy(os.path.join(inputs, snapshot), out)
            times = {}
            for stage in workload.stages:
                with pacer.timed():
                    times[stage] = ops.run(stage, _stage, stage, out, inputs,
                                           seed, tracer)
            rounds.append(times)
            for check, fn in _checks(name, out, truth):
                value = ops.run(check, fn)
                if check in ("train_perplexity", "heldout_perplexity") and value:
                    quality.setdefault(f"lda.{check}", []).append(value)
            if repeat_file is not None:
                path = os.path.join(out, repeat_file)
                if len(rounds) == 1:
                    first_digest = (checks.digest(path)
                                    if os.path.exists(path) else "")
                else:
                    ops.run(f"{repeat_file}_repeats", checks.repeats, path,
                            first_digest)
    finally:
        pacer.stop()
    result = {
        "rounds": len(rounds),
        "stage_s": {s: [r[s] for r in rounds if r[s] is not None]
                    for s in workload.stages},
        "pipeline_s": [sum(r.values()) for r in rounds
                       if None not in r.values()],
        "attempted": ops.attempted,
        "failures": ops.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pace": pacer.factor(),
        "pace_samples": len(pacer.samples),
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "numba_enabled": bool(kernels.NUMBA_ENABLED),
                "cores": len(os.sched_getaffinity(0))},
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer, len(rounds), result["pace"])
        for metric in QUALITY:
            values = quality.get(metric)
            layers[metric] = (statistics.median(values) if values else 0.0, "1")
        calls = sum(t[2] for t in tracer.totals.values()) / len(rounds)
        layers["trace.overhead_s"] = (
            calls * spans.call_overhead() / result["pace"], "s")
        layers["trace.pipeline_s"] = (_pipeline(result), "s")
        result["layers"] = layers
        os.makedirs(TRACES, exist_ok=True)
        tracer.dump(os.path.join(TRACES, f"{name}-seed{seed}.json"))
    return result


def _pipeline(result: dict) -> float:
    """Mean time of a round's stages, at the reference pace.

    The host's pace was sampled all through the stages, so the rounds'
    mean wall time over the mean pace is their time at the reference
    pace, whether the run fell in a fast or a slow spell.
    """
    return statistics.fmean(result["pipeline_s"]) / result["pace"]


# ---------------------------------------------------------------------------
# parent process


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> bool:
    t_start = time.perf_counter()
    from petmine import lda, textprep  # noqa: F401  (kept out of setup_s)

    work = os.path.join(WORK, f"{name}-seed{seed}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    pacer = pace.Pace()
    try:
        # a batch of short set-ups gathers enough pace samples to scale
        # its mean set-up time by
        setup_times = []
        while len(setup_times) < SETUPS:
            batch_s, batch_n = 0.0, 0
            first_sample = len(pacer.samples)
            with pacer.timed():
                while batch_s < SETUP_BATCH_S:
                    shutil.rmtree(work, ignore_errors=True)
                    t0 = time.perf_counter()
                    makeup = set_up(name, inputs, seed)
                    batch_s += time.perf_counter() - t0
                    batch_n += 1
            setup_times.append(batch_s / batch_n / pacer.factor(
                pacer.samples[first_sample:]))
        pacer.stop()    # no ticks while the worker runs
        cmd = [sys.executable, os.path.abspath(__file__), "--worker", work,
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced))]
        budget = TIME_LIMIT_S - (time.perf_counter() - t_start)
        try:
            proc = subprocess.run(cmd, timeout=max(1.0, budget))
        except subprocess.TimeoutExpired:
            print(f"pipeline_bench: {name} worker ran past {TIME_LIMIT_S} s",
                  file=sys.stderr)
            return False
        if proc.returncode != 0:
            print(f"pipeline_bench: {name} worker exited with {proc.returncode}",
                  file=sys.stderr)
            return False
        with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        pacer.stop()
        shutil.rmtree(work, ignore_errors=True)

    workload = WORKLOADS[name]
    failed = len(result["failures"])
    unexpected = [f for f in result["failures"] if f[0] != workload.known_failure]
    complete = all(len(v) == result["rounds"] for v in result["stage_s"].values())
    correct = not unexpected and complete
    env = result["env"]
    print(f"workload {name}: seed {seed}, {result['rounds']} rounds, "
          f"trace {int(traced)}")
    print(f"inputs: {makeup}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items())
          + f" (kernels {'numba' if env['numba_enabled'] else 'pure Python'})")
    print(f"host pace: {result['pace']:.3f} x the reference, from "
          f"{result['pace_samples']} samples; wall times follow")
    for stage, values in result["stage_s"].items():
        if values:
            print(f"  {stage}_s mean {statistics.fmean(values):.4f} s "
                  f"({statistics.fmean(values) / result['pace']:.4f} s at "
                  f"the reference pace), fastest {min(values):.4f} s, "
                  f"of {len(values)}")
    print("  rounds' wall time: "
          + ", ".join(f"{v:.4f}" for v in result["pipeline_s"]) + " s")
    if traced:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pipeline_s": (_pipeline(result), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} {value:.6g} {unit}")
    print(f"operations: {result['attempted']} attempted, {failed} failed")
    for op, message in result["failures"]:
        known = " (known fault)" if op == workload.known_failure else ""
        print(f"  failed {op}{known}: {message}")
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return correct


def _stop(signum, frame):
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # worker before this process ends
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "petmine", "__init__.py")):
        print(f"pipeline_bench: no petmine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.worker:
        result = worker(args.workload, args.worker, args.seed, args.seconds,
                        bool(args.trace))
        with open(os.path.join(args.worker, "result.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    signal.signal(signal.SIGTERM, _stop)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok = run_workload(name, args.seed, args.seconds, bool(args.trace)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
