"""Command-line pipeline driver.

Each analysis stage is a subcommand that reads and writes files under a
single output directory, so stages compose through snapshots rather than
in-memory state.  All randomness flows from one top-level seed: stage
seeds are derived as ``derive_seed(seed, "stage:<name>")``, which keeps
partial reruns reproducible.  Every CSV and JSON output starts with a
metadata header carrying the tool version, the configuration digest and
the seed; a snapshot records its format and version instead.
"""

import argparse
import csv
import dataclasses
import datetime
import functools
import io
import itertools
import json
import logging
import math
import os
import shutil
import sys
import tempfile
import typing

import numpy as np

from . import (__version__, corpus, geo, issues, lda, powerlaw, temporal,
               textprep)
from .errors import ConfigError, PetmineError, ValidationError
from .util import (check_types, config_digest, derive_seed, read_text,
                   transpose, write_csv, write_text)

log = logging.getLogger(__name__)

# the sampler's own defaults, but the pipeline's k; a None seed is derived
# from the top-level seed
_LDA_DEFAULTS = {
    **{f.name: f.default for f in dataclasses.fields(lda.LdaConfig)},
    "k": 10,
    "seed": None,
}

NETWORK_KEEP_FRACTION = 0.2
SILHOUETTE_K_RANGE = range(2, 11)


@dataclasses.dataclass
class PipelineConfig:
    """The run's settings, checked when built; the ``lda`` section holds
    the sampler's settings, resolved over ``_LDA_DEFAULTS``, and ``grid``
    sweeps each of ``k_values x alpha_values x beta_values`` over them."""

    archive: str | None = None
    constituencies: str | None = None
    stopwords: str | None = None
    output_dir: str = "out"
    topic_names: list[str] | None = None
    window: list[str] | None = None          # [start, end] ISO dates
    lda: dict = dataclasses.field(default_factory=dict)
    min_doc_fraction: float = 0.001
    entropy_window_days: int = 7
    smoothing_windows: list[int] = dataclasses.field(
        default_factory=lambda: [7, 30, 90])
    pam_k: int = 6
    pam_metric: str = "euclidean"
    powerlaw_x_min: int = 10
    thresholds: list[int] = dataclasses.field(
        default_factory=lambda: [10_000, 100_000])
    k_values: list[int] = dataclasses.field(
        default_factory=lambda: [5, 10, 15])
    alpha_values: list[float] = dataclasses.field(default_factory=lambda: [0.1])
    beta_values: list[float] = dataclasses.field(default_factory=lambda: [0.1])
    holdout: float = 0.1                     # grid's held-out document share
    x_mins: list[int] | None = None          # None: from the counts
    answers: str | None = None               # topic,subject,position CSV
    seed: int = 0

    def __post_init__(self):
        # equal settings digest alike, however they were given; bad
        # sampler settings, windows and counts surface now, not mid-run
        self.lda = {**_LDA_DEFAULTS, **self.lda}
        for name in ("k_values", "alpha_values", "beta_values"):
            if not getattr(self, name):
                raise ConfigError(f"{name} lists no values")
        # a repeated setting would be fitted or scanned twice
        for name in ("k_values", "alpha_values", "beta_values", "x_mins"):
            values = getattr(self, name) or []
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"{name} repeats {value!r}, "
                                      f"got {values}")
        self.grid_configs()                  # and so lda_config()
        self.window_dates()
        for name in ("thresholds", "smoothing_windows"):
            values = getattr(self, name)
            if any(a >= b for a, b in zip([0, *values], values)):
                raise ConfigError(
                    f"{name} must be positive and strictly ascending, "
                    f"got {values}")
        for name in ("pam_k", "entropy_window_days", "powerlaw_x_min"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        if self.x_mins is not None and not self.x_mins:
            raise ConfigError("x_mins lists no values")
        if self.x_mins is not None and min(self.x_mins) < 1:
            raise ConfigError(
                f"x_mins must be at least 1, got {self.x_mins}")
        for name in ("min_doc_fraction", "holdout"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(
                    f"{name} must be in (0, 1), got {getattr(self, name)}")
        if self.pam_metric not in geo._METRICS:
            raise ConfigError(
                f"pam_metric must be one of {sorted(geo._METRICS)}, "
                f"got {self.pam_metric!r}")

    def lda_config(self) -> "lda.LdaConfig":
        seed = self.lda["seed"]
        return lda.LdaConfig(**dict(
            self.lda, seed=self.stage_seed("lda") if seed is None else seed))

    def grid_configs(self) -> list["lda.LdaConfig"]:
        base = self.lda_config()
        return [dataclasses.replace(base, k=k, alpha=alpha, beta=beta)
                for k, alpha, beta in itertools.product(
                    self.k_values, self.alpha_values, self.beta_values)]

    def window_dates(self) -> tuple[datetime.date, datetime.date] | None:
        if self.window is None:
            return None
        try:
            return corpus.parse_window(self.window)
        except ValueError:
            raise ConfigError(f"window must be two ISO dates START,END in "
                              f"order, got {self.window}") from None

    def stage_seed(self, stage: str) -> int:
        return derive_seed(self.seed, f"stage:{stage}")

    @functools.cached_property
    def meta(self) -> dict:
        """The header every artifact of a run carries, digested once."""
        # where the files are written is not part of what they hold
        values = {k: v for k, v in dataclasses.asdict(self).items()
                  if k != "output_dir"}
        return {
            "tool": f"petmine {__version__}",
            "config": config_digest(values),
            "seed": self.seed,
        }

    def path(self, name: str) -> str:
        return os.path.join(self.output_dir, name)


# the JSON types of the config and of its lda section, where a null seed
# is derived from the top level
_CONFIG_TYPES = typing.get_type_hints(PipelineConfig)
_LDA_TYPES = dict(typing.get_type_hints(lda.LdaConfig), seed=int | None)

# every setting a flag sets, by the flag's dest: its type, and its key in
# the lda section or None; the sampler's seed is --lda-seed, as --seed is
# the top-level one
_FLAGS = {
    **{name: (hint, None) for name, hint in _CONFIG_TYPES.items()
       if name != "lda"},
    **{("lda_seed" if key == "seed" else key): (hint, key)
       for key, hint in _LDA_TYPES.items()},
}


def load_config(config_path: str | None, overrides: dict) -> PipelineConfig:
    """Merge file values and flag overrides over the defaults.

    ``overrides`` maps flag dests to values, None where a flag is not
    given.  A config file that cannot be read or is not a JSON object, or
    that holds an unknown key or a value of the wrong JSON type, is a
    configuration error naming the file, not a no-op or a crash;
    :class:`PipelineConfig` checks the values' ranges.
    """
    values: dict = {}
    if config_path is not None:
        text = read_text(config_path, "config file", ConfigError)
        try:
            values = json.loads(text)
        except ValueError as exc:
            raise ConfigError(
                f"{config_path}: config file is not valid JSON ({exc})"
            ) from None
        if not isinstance(values, dict):
            raise ConfigError(
                f"{config_path}: config file must hold a JSON object")
        try:
            check_types(values, _CONFIG_TYPES)
            check_types(values.get("lda", {}), _LDA_TYPES, "lda.")
        except TypeError as exc:
            raise ConfigError(f"{config_path}: config {exc}") from None
    for dest, value in overrides.items():
        if value is None:
            continue
        key = _FLAGS[dest][1]
        if key is None:
            values[dest] = value
        else:
            values["lda"] = {**values.get("lda", {}), key: value}
    return PipelineConfig(**values)


def _require_input(cfg: PipelineConfig, key: str) -> str:
    # missing *configured* inputs are usage errors (exit 2)
    path = getattr(cfg, key)
    if path is None:
        raise ConfigError(f"no {key} path configured: set '{key}' (--{key})")
    if not os.path.exists(path):
        raise ConfigError(f"{path}: {key} not found")
    if not os.path.isfile(path):
        raise ConfigError(f"{path}: {key} is not a regular file")
    return path


def _sanitize(obj):
    """Make a payload of Python values JSON-safe: non-finite floats to None."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(cfg: PipelineConfig, name: str, payload: dict) -> None:
    obj = {"_meta": cfg.meta}
    obj.update(payload)
    text = json.dumps(_sanitize(obj), indent=2, allow_nan=False)
    write_text(cfg.path(name), text + "\n")


def _topic_names(cfg: PipelineConfig, k: int) -> list[str]:
    if cfg.topic_names is None:
        return [f"topic_{t}" for t in range(k)]
    if len(cfg.topic_names) != k:
        raise ConfigError(
            f"{len(cfg.topic_names)} topic names for {k} topics")
    return list(cfg.topic_names)


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(cfg: PipelineConfig) -> int:
    archive = _require_input(cfg, "archive")
    constituencies: tuple = ()
    if cfg.constituencies is not None:
        constituencies = corpus.load_constituencies(
            _require_input(cfg, "constituencies"))
    c = corpus.load_archive(archive, cfg.window_dates(), constituencies)
    corpus.save_corpus(c, cfg.path("corpus.jsonl"))
    corpus.write_rejects_report(c.ingest_report, cfg.path("rejects.csv"), cfg.meta)
    log.info("ingest: %d accepted, %d rejected, %d dropped for state, "
             "%d UK signatures", len(c.ids), len(c.ingest_report.rejects),
             c.ingest_report.dropped_state, corpus.uk_signature_total(c))
    return 0


def cmd_fit(cfg: PipelineConfig) -> int:
    # settle the names and stopwords before the snapshot is read or a
    # sampler runs
    lda_cfg = cfg.lda_config()
    names = _topic_names(cfg, lda_cfg.k)
    stopwords = textprep.load_stopwords(cfg.stopwords)
    c = corpus.load_corpus(cfg.path("corpus.jsonl"))
    dtm = textprep.build_dtm(c, stopwords, cfg.min_doc_fraction)
    # the word tables and intrusion instances need six distinct words a
    # topic and an intruder, so a smaller vocabulary is refused unsampled
    n_terms = len(dtm.vocabulary.terms)
    if n_terms < lda.MIN_TERMS:
        raise ConfigError(
            f"the vocabulary has {n_terms} terms (document frequency >= "
            f"{dtm.prune_report.df_threshold}, from min_doc_fraction "
            f"{cfg.min_doc_fraction}); fit needs at least {lda.MIN_TERMS}")
    textprep.save_dtm(dtm, cfg.path("dtm.bin"))
    model = lda.fit(dtm, lda_cfg)
    lda.save_model(model, cfg.path("model.bin"))
    write_csv(cfg.path("ll_trace.csv"), cfg.meta,
              ["sweep", "log_likelihood"],
              [model.trace_sweeps, model.log_likelihood_trace])

    topics = range(model.k)
    words = [f"word{i}" for i in range(1, 7)]
    write_csv(cfg.path("topic_names.csv"), cfg.meta,
              ["topic_index", "name"], [topics, names])
    write_csv(cfg.path("top_words.csv"), cfg.meta, ["topic", "name", *words],
              [topics, names, *transpose(
                  [lda.top_words(model, t, 6) for t in topics], 6)])
    instances = lda.make_intrusion_instances(model, cfg.stage_seed("intrusion"))
    write_csv(cfg.path("intrusion_instances.csv"), cfg.meta,
              ["topic", *words],
              [[inst.topic_index for inst in instances],
               *transpose([inst.shown_words for inst in instances], 6)])
    log.info("fit: k=%d, vocabulary=%d, %d retained samples",
             model.k, len(model.terms), len(model.config.retained_sweeps()))
    return 0


def _report_prevalence(cfg, model, c, names):
    prev = issues.prevalence(model, c)
    columns = ["topic", "name", "mass_by_petitions", "rank_p",
               "mass_by_signatures", "rank_s"]
    table = [prev.by_petitions, prev.rank_by_petitions,
             prev.by_signatures, prev.rank_by_signatures]
    success = {}
    for t in cfg.thresholds:
        success[t] = issues.success_probability(model, c, t)
        columns += [f"success_{t}", f"success_smoothed_{t}"]
        table += success[t]
    write_csv(cfg.path("prevalence.csv"), cfg.meta, columns,
              [range(model.k), names, *table])
    return prev, success


def _report_networks(cfg, model, prev, names):
    write_csv(cfg.path("network_nodes.csv"), cfg.meta,
              ["topic", "name", "signatures"],
              [range(model.k), names, prev.by_signatures])
    nets = {
        "network_cooccurrence": issues.co_occurrence_network(model),
        "network_worddist": issues.word_distribution_network(model),
    }
    strongest = {}
    for stem, weights in nets.items():
        edges = issues.edge_list(weights)
        write_csv(cfg.path(f"{stem}_edges.csv"), cfg.meta,
                  ["source", "target", "weight"], transpose(edges, 3))
        pruned = issues.prune_network(weights, NETWORK_KEEP_FRACTION)
        write_csv(cfg.path(f"{stem}_edges_pruned.csv"), cfg.meta,
                  ["source", "target", "weight"],
                  transpose(issues.edge_list(pruned), 3))
        if edges:
            i, j, _ = max(edges, key=lambda e: (e[2], -e[0], -e[1]))
            strongest[stem] = [i, j]
        else:
            strongest[stem] = None
    return strongest


def _report_issues(cfg, model, c, names):
    prev, success = _report_prevalence(cfg, model, c, names)
    strongest = _report_networks(cfg, model, prev, names)
    return {
        "prevalence": {
            "rank_by_petitions": prev.rank_by_petitions.tolist(),
            "rank_by_signatures": prev.rank_by_signatures.tolist(),
            "success": {str(t): success[t][0].tolist()
                        for t in cfg.thresholds},
            "success_smoothed": {str(t): success[t][1].tolist()
                                 for t in cfg.thresholds},
        },
        "networks": {
            "strongest_co_occurrence_edge": strongest["network_cooccurrence"],
            "strongest_word_distribution_edge": strongest["network_worddist"],
        },
    }


def _report_temporal(cfg, model, c):
    series = temporal.build_series(model, c)
    days = [d.isoformat() for d in series.dates]
    headers = ["date"] + [f"issue_{k}" for k in range(model.k)]
    write_csv(cfg.path("series_raw.csv"), cfg.meta, headers,
              [days, *series.values.T])
    for w in cfg.smoothing_windows:
        smoothed = temporal.smooth(series, w)
        write_csv(cfg.path(f"series_smooth_{w}.csv"), cfg.meta, headers,
                  [days, *smoothed.values.T])
    es = temporal.entropy_series(series, cfg.entropy_window_days)
    try:
        flags = temporal.detect_volatility(es)
    except PetmineError as exc:
        log.warning("volatility detection skipped: %s", exc)
        flags = {}
    write_csv(cfg.path("entropy.csv"), cfg.meta,
              ["date", "entropy", "pct_change", "flagged", "direction"],
              [days, es.h, es.pct_change,
               [int(d in flags) for d in es.dates],
               [flags.get(d, "") for d in es.dates]])
    mean, std, n = temporal.pct_change_stats(es)
    finite = es.h[np.isfinite(es.h)]
    stats = {
        "mean": float(np.mean(finite)) if finite.size else None,
        "min": float(np.min(finite)) if finite.size else None,
        "max": float(np.max(finite)) if finite.size else None,
        "pct_change_mean": mean,
        "pct_change_std": std,
        "pct_change_n": n,
        "flagged_dates": {d.isoformat(): flags[d] for d in sorted(flags)},
    }
    return stats


def _report_geo(cfg, model, c):
    profiles = geo.profile_constituencies(model, c)
    k_issues = model.k
    n_with = int(np.count_nonzero(profiles.totals))
    scaling = {}
    for mode in ("raw", "binned"):
        fit = geo.scaling_fit(profiles.electorate, profiles.totals, mode,
                              n_bins=min(10, n_with))
        scaling[mode] = dataclasses.asdict(fit)
        _write_json(cfg, f"scaling_{mode}.json", scaling[mode])

    rows = np.flatnonzero(profiles.clustered)
    z = profiles.z[rows]
    codes = [profiles.meta[i].code for i in rows]
    # silhouettes need 2 <= k < clustered rows; the pam_k clustering comes
    # from the same sweep, solved first so an out-of-range pam_k is refused
    # before any other solve
    ks = [k for k in SILHOUETTE_K_RANGE if k < len(rows)]
    sweep = geo.silhouette_sweep(
        z, [cfg.pam_k, *(k for k in ks if k != cfg.pam_k)], cfg.pam_metric)
    result = sweep[cfg.pam_k][0]
    labels = result.labels.tolist()
    write_csv(cfg.path("clusters.csv"), cfg.meta, ["code", "cluster"],
              transpose(sorted(zip(codes, labels)), 2))
    shares = geo.cluster_issue_profile(profiles.share[rows], result.labels,
                                       cfg.pam_k)
    write_csv(cfg.path("cluster_issue_shares.csv"), cfg.meta,
              ["cluster"] + [f"share_{k}" for k in range(k_issues)],
              [range(len(shares)), *shares.T])

    silhouette = {k: sweep[k][1] for k in ks}
    write_csv(cfg.path("silhouette.csv"), cfg.meta, ["k", "score"],
              [list(silhouette), list(silhouette.values())])

    cluster = [""] * len(profiles.meta)
    for i, label in zip(rows.tolist(), labels):
        cluster[i] = label
    per_elector = profiles.per_elector
    write_csv(cfg.path("constituency_profiles.csv"), cfg.meta,
              ["code", "name", "electorate", "total_signatures", "per_elector"]
              + [f"share_{k}" for k in range(k_issues)]
              + [f"z_{k}" for k in range(k_issues)] + ["cluster"],
              [*transpose([(m.code, m.name, m.electorate)
                           for m in profiles.meta], 3),
               profiles.totals, per_elector, *profiles.share.T,
               *profiles.z.T, cluster])

    stats = {
        "scaling": scaling,
        "mean_signatures_per_constituency": float(np.mean(profiles.totals)),
        "mean_per_elector": float(np.mean(per_elector)),
        "clusters": {
            "k": cfg.pam_k,
            "sizes": np.bincount(result.labels, minlength=cfg.pam_k).tolist(),
            "total_cost": result.total_cost,
            "medoid_codes": [codes[i] for i in result.medoid_indices],
        },
        "silhouette": {str(k): v for k, v in silhouette.items()},
    }
    return stats


def _report_powerlaw(cfg, c):
    counts = c.uk
    cc = powerlaw.ccdf(counts)
    write_csv(cfg.path("ccdf.csv"), cfg.meta, ["x", "p"], [cc.x, cc.p])
    # fit below the first threshold: behavior changes once a petition
    # crosses it, so the power law is only claimed for the region before
    truncated = counts[counts <= cfg.thresholds[0]] if cfg.thresholds else counts
    try:
        fit = powerlaw.fit_powerlaw(truncated, cfg.powerlaw_x_min)
    except ValidationError as exc:
        # too few petitions reach x_min for a fit; the report goes on
        log.warning("power-law fit skipped: %s", exc)
        n_tail = int(np.count_nonzero(truncated >= cfg.powerlaw_x_min))
        payload = dict(x_min=cfg.powerlaw_x_min, exponent=None, n_tail=n_tail,
                       ks_distance=None,
                       divergences={str(t): None for t in cfg.thresholds})
    else:
        divergences = powerlaw.threshold_divergence(counts, fit, cfg.thresholds)
        payload = dict(dataclasses.asdict(fit),
                       divergences={str(t): v for t, v in divergences.items()})
    _write_json(cfg, "powerlaw.json", payload)
    return payload


def cmd_report(cfg: PipelineConfig) -> int:
    c = corpus.load_corpus(cfg.path("corpus.jsonl"))
    if not c.constituencies:
        raise ConfigError(
            "report needs constituency metadata: set 'constituencies' "
            "(--constituencies) and re-run ingest")
    model = lda.load_model(cfg.path("model.bin"))
    names = _topic_names(cfg, model.k)

    summary: dict = {
        "corpus": {
            "accepted": len(c.ids),
            "uk_signature_total": corpus.uk_signature_total(c),
            "window": [c.window[0].isoformat(), c.window[1].isoformat()],
        },
        "lda": {
            "k": model.k,
            "mean_max_theta": float(np.mean(model.theta.max(axis=1))),
        },
    }
    # the stages write into a hidden directory inside the output directory
    # (the bytes do not depend on where they are written), and the files
    # move into place only after the summary is written, so a failed report
    # leaves the output directory as it found it
    staging = tempfile.mkdtemp(prefix=".report-", dir=cfg.output_dir)
    staged = dataclasses.replace(cfg, output_dir=staging)
    # each stage writes its files and returns its sections of the summary
    stages = [
        ("issues", lambda: _report_issues(staged, model, c, names)),
        ("temporal", lambda: {"entropy": _report_temporal(staged, model, c)}),
        ("geo", lambda: {"geo": _report_geo(staged, model, c)}),
        ("powerlaw", lambda: {"powerlaw": _report_powerlaw(staged, c)}),
    ]
    try:
        for module_name, stage in stages:
            try:
                summary.update(stage())
            except PetmineError as exc:
                raise type(exc)(f"{module_name}: {exc}") from exc
        _write_json(staged, "summary.json", summary)
        for name in sorted(os.listdir(staging)):
            os.replace(os.path.join(staging, name), cfg.path(name))
    finally:
        shutil.rmtree(staging)
    log.info("report: wrote %s", cfg.path("summary.json"))
    return 0


def cmd_intrusion_score(cfg: PipelineConfig) -> int:
    # the answers are read before the model snapshot, as fit reads its
    # stopwords first, so a fault in them is not hidden behind the model's
    answers_path = _require_input(cfg, "answers")
    text = read_text(answers_path, "answers file", ConfigError)
    # each row but comments and blank lines, with the line it ends on
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = [(reader.line_num, r) for r in reader
            if r and not r[0].startswith("#")]
    if not rows or [c.strip() for c in rows[0][1]] != ["topic", "subject",
                                                       "position"]:
        raise ConfigError(
            f"answers CSV must have header topic,subject,position: {answers_path}")
    model = lda.load_model(cfg.path("model.bin"))
    instances = lda.make_intrusion_instances(model, cfg.stage_seed("intrusion"))
    by_topic = {inst.topic_index: inst for inst in instances}

    picked, answers = [], []
    for line_no, row in rows[1:]:
        where = f"{answers_path}:{line_no}"
        if len(row) != 3:
            raise ConfigError(f"{where}: answers row has {len(row)} fields")
        try:
            topic, position = int(row[0]), int(row[2])
        except ValueError:
            raise ConfigError(f"{where}: answers row is not numeric") from None
        if topic not in by_topic:
            raise ConfigError(
                f"{where}: answers reference unknown topic {topic}")
        shown = len(by_topic[topic].shown_words)
        if not 0 <= position < shown:
            raise ConfigError(f"{where}: answer position {position} "
                              f"is outside 0..{shown - 1}")
        picked.append(by_topic[topic])
        answers.append(position)
    score = lda.score_intrusion(picked, answers)

    n_by_topic: dict[int, int] = {}
    for inst in picked:
        n_by_topic[inst.topic_index] = n_by_topic.get(inst.topic_index, 0) + 1
    rows_out = [[t, n_by_topic[t], score.per_topic[t],
                 int(t in score.flagged)]
                for t in sorted(score.per_topic)]
    rows_out.append(["overall", len(answers), score.overall, ""])
    write_csv(cfg.path("intrusion_score.csv"), cfg.meta,
              ["topic", "n_answers", "accuracy", "flagged"],
              transpose(rows_out, 4))
    log.info("intrusion-score: overall accuracy %.3f, %d topics flagged",
             score.overall, len(score.flagged))
    return 0


def cmd_grid(cfg: PipelineConfig) -> int:
    dtm = textprep.load_dtm(cfg.path("dtm.bin"))
    n_hold = int(math.ceil(cfg.holdout * dtm.n_docs))
    if n_hold >= dtm.n_docs:
        raise ConfigError("holdout fraction leaves no training documents")
    rng = np.random.Generator(np.random.PCG64(cfg.stage_seed("grid")))
    order = rng.permutation(dtm.n_docs)
    hold, train = np.sort(order[:n_hold]), np.sort(order[n_hold:])
    train_dtm = textprep.DocumentTermMatrix(
        n_docs=len(train), vocabulary=dtm.vocabulary,
        counts=dtm.counts[train], doc_ids=tuple(dtm.doc_ids[i] for i in train))
    rows = lda.grid_rows(train_dtm, dtm.counts[hold], cfg.grid_configs())
    for k, alpha, beta, _, _, per_token in rows:
        log.info("grid: k=%d alpha=%g beta=%g per-token %.4f",
                 k, alpha, beta, per_token)
    write_csv(cfg.path("grid.csv"), cfg.meta,
              ["k", "alpha", "beta", "train_log_likelihood",
               "holdout_log_likelihood", "holdout_per_token"],
              transpose(rows, 6))
    return 0


def cmd_xmin_scan(cfg: PipelineConfig) -> int:
    counts = corpus.load_corpus(cfg.path("corpus.jsonl")).uk
    if cfg.x_mins is not None:
        candidates = cfg.x_mins
    else:
        # every observed value that keeps at least 10 tail points
        unique = np.unique(counts)
        candidates = [int(v) for v in unique
                      if v >= 1 and (counts >= v).sum() >= 10]
        if len(candidates) > 200:
            idx = np.linspace(0, len(candidates) - 1, 200).round().astype(int)
            candidates = [candidates[i] for i in np.unique(idx)]
    feasible = [v for v in candidates if powerlaw.fittable(counts, v)]
    dropped = sorted(set(candidates) - set(feasible))
    if dropped:
        log.warning("xmin-scan: dropped infeasible candidates %s", dropped)
    if not feasible:
        raise PetmineError("no feasible x_min candidate")
    fits = [powerlaw.fit_powerlaw(counts, v) for v in feasible]
    best = powerlaw.best_by_ks(fits)
    write_csv(cfg.path("xmin_scan.csv"), cfg.meta,
              ["x_min", "exponent", "n_tail", "ks_distance", "best"],
              transpose([[f.x_min, f.exponent, f.n_tail, f.ks_distance,
                          int(f.x_min == best.x_min)] for f in fits], 5))
    log.info("xmin-scan: KS-minimizing x_min=%d (alpha=%.4f)",
             best.x_min, best.exponent)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _flag_type(hint):
    """What argparse reads a setting's flag with: ``X`` for ``X | None``,
    and comma-separated ``X`` values for ``list[X]``."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is list:
        def values(text: str) -> list:
            return [args[0](v) for v in text.split(",") if v]
        values.__name__ = str(hint)      # argparse's "invalid list[int] value"
        return values
    return _flag_type(args[0]) if args else hint


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: each
    subcommand stores the name of the function that runs it."""
    # one flag per setting, named after its config key
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    for dest, (hint, key) in _FLAGS.items():
        read = _flag_type(hint)
        common.add_argument(
            "--" + dest.replace("_", "-"), dest=dest, type=read,
            help=f"config key {'lda.' + key if key else dest} "
                 f"({read.__name__})")

    parser = argparse.ArgumentParser(
        prog="petmine",
        description="Opinion-mining pipeline for petition archives.",
        epilog="Every config key but the lda section is a flag, and so is "
               "every lda key (lda.seed as --lda-seed); flags win over the "
               "config file, and a list flag takes comma-separated values.")
    parser.add_argument("--version", action="version",
                        version=f"petmine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, command, about in (
            ("ingest", "cmd_ingest",
             "parse the archive into a corpus snapshot"),
            ("fit", "cmd_fit", "fit the topic model and export top words"),
            ("report", "cmd_report",
             "run all analytics and write the summary"),
            ("intrusion-score", "cmd_intrusion_score",
             "score annotator answers against the hidden intruders"),
            ("grid", "cmd_grid",
             "sweep sampler settings against held-out likelihood"),
            ("xmin-scan", "cmd_xmin_scan",
             "fit the signature tail at every cutoff candidate")):
        sub.add_parser(name, parents=[common], help=about
                       ).set_defaults(run=command)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config,
                          {dest: getattr(args, dest) for dest in _FLAGS})
        # the command is looked up now, so a replaced one runs; the output
        # directory is made by the first file written to it
        return globals()[args.run](cfg)
    except ConfigError as exc:
        print(f"petmine: config error: {exc}", file=sys.stderr)
        return 2
    except PetmineError as exc:
        print(f"petmine: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
