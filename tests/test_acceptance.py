"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Tier 1 runs on synthetic data and must always pass.  Tier 2 reproduces the
headline numbers of the 2015-2017 UK petition archive and runs only when
the archive is supplied through environment variables:

    PETMINE_ARCHIVE         JSON-lines petition archive
    PETMINE_CONSTITUENCIES  constituency metadata CSV
    PETMINE_STOPWORDS       optional stopword list override

Unset variables record the corresponding criteria as SKIP.
"""

import datetime
import itertools
import json
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from petmine import cli, geo, lda, porter, powerlaw, temporal, textprep
from petmine.corpus import ConstituencyMeta

from conftest import (make_corpus, make_model, make_petition,
                      make_planted_dtm, record_criterion, record_skip)
from test_powerlaw import sample_discrete

ARCHIVE_ENV = "PETMINE_ARCHIVE"
CONS_ENV = "PETMINE_CONSTITUENCIES"
STOPWORDS_ENV = "PETMINE_STOPWORDS"


def _match_topics(phi_a, phi_b):
    """Optimal topic pairing by cosine; returns (row_idx, col_idx, cosines)."""
    a = phi_a / np.linalg.norm(phi_a, axis=1, keepdims=True)
    b = phi_b / np.linalg.norm(phi_b, axis=1, keepdims=True)
    sim = a @ b.T
    rows, cols = linear_sum_assignment(-sim)
    return rows, cols, sim[rows, cols]


# ---------------------------------------------------------------------------
# Tier 1


def test_criterion_01_planted_topic_recovery():
    description = ("planted-topic recovery: matched phi cosine >= 0.9 on a "
                   "200-doc disjoint-vocabulary corpus in under 60 s")
    dtm, phi_true, _, = make_planted_dtm()
    config = lda.LdaConfig(k=3, iterations=300, burn_in=100, sample_every=10,
                           seed=1)
    t0 = time.monotonic()
    model = lda.fit(dtm, config)
    elapsed = time.monotonic() - t0
    _, _, cosines = _match_topics(phi_true, model.phi)
    if not ((cosines >= 0.9).all() and elapsed < 60.0):
        print(f"matched cosines {cosines}, fit took {elapsed:.1f}s")
    record_criterion(1, description,
                     bool((cosines >= 0.9).all()) and elapsed < 60.0)


def test_criterion_02_normalization_and_determinism(planted):
    description = ("phi/theta rows sum to 1 within 1e-9 and identical-seed "
                   "fits are byte-identical")
    _, _, _, model = planted
    sums_ok = (np.allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
               and np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)
               and (model.phi > 0).all() and (model.theta > 0).all())
    dtm, _, _ = make_planted_dtm(n_docs=45, tokens_per_doc=30, seed=2)
    config = lda.LdaConfig(k=3, iterations=80, burn_in=20, sample_every=5,
                           seed=6)
    one = lda.fit(dtm, config)
    two = lda.fit(dtm, config)
    identical = (one.phi.tobytes() == two.phi.tobytes()
                 and one.theta.tobytes() == two.theta.tobytes()
                 and one.log_likelihood_trace == two.log_likelihood_trace)
    record_criterion(2, description, bool(sums_ok) and identical)


def test_criterion_03_powerlaw_recovery():
    description = ("discrete power-law fitting recovers alpha=2.0 within "
                   "0.05 in at least 95 of 100 seeded trials in under 30 s")
    t0 = time.monotonic()
    hits = 0
    worst = 0.0
    for seed in range(100):
        sample = sample_discrete(alpha=2.0, x_min=10, n=10_000, seed=seed)
        fit = powerlaw.fit_powerlaw(sample, x_min=10)
        err = abs(fit.exponent - 2.0)
        worst = max(worst, err)
        if err <= 0.05:
            hits += 1
    elapsed = time.monotonic() - t0
    if hits < 95 or elapsed >= 30.0:
        print(f"{hits}/100 within 0.05 (worst {worst:.4f}), {elapsed:.1f}s")
    record_criterion(3, description, hits >= 95 and elapsed < 30.0)


def test_criterion_04_entropy_anchors_and_flag():
    description = ("entropy anchors: uniform window 1, single-issue window "
                   "0, injected jump flagged exactly once")
    dates = tuple(datetime.date(2015, 6, 1) + datetime.timedelta(days=i)
                  for i in range(5))
    uniform = temporal.IssueSeries(
        dates=dates, values=np.full((5, 4), 2.5))
    h_uniform = temporal.entropy_series(uniform, window_days=7).h
    uniform_ok = bool(np.all(np.abs(h_uniform - 1.0) <= 1e-12))

    single = np.zeros((5, 3))
    single[:, 1] = 9.0
    h_single = temporal.entropy_series(
        temporal.IssueSeries(dates=dates, values=single), window_days=7).h
    single_ok = bool(np.all(h_single == 0.0))

    n = 40
    long_dates = tuple(datetime.date(2015, 6, 1) + datetime.timedelta(days=i)
                       for i in range(n))
    pct = np.empty(n)
    pct[0] = np.nan
    pct[1:] = [1.0 if i % 2 else -1.0 for i in range(1, n)]
    base = temporal.EntropySeries(dates=long_dates, h=np.full(n, 0.5),
                                  pct_change=pct.copy())
    mu, sigma, _ = temporal.pct_change_stats(base)
    pct[25] = mu + 10.0 * sigma
    jump = temporal.EntropySeries(dates=long_dates, h=np.full(n, 0.5),
                                  pct_change=pct)
    flags = temporal.detect_volatility(jump)
    flag_ok = flags == {long_dates[25]: "increase"}
    record_criterion(4, description, uniform_ok and single_ok and flag_ok)


def test_criterion_05_pam_optimality():
    description = ("PAM equals exhaustive search on 50 fixtures with "
                   "n <= 12, k <= 3, and every solution is 1-swap-optimal")
    rng = np.random.default_rng(77)
    all_ok = True
    for trial in range(50):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 4))
        k = min(k, n - 1)
        z = rng.normal(size=(n, 3))
        result = geo.pam_cluster(z, k=k)
        from scipy.spatial.distance import cdist
        dist = cdist(z, z)
        brute = min(
            float(dist[:, c].min(axis=1).sum())
            for c in itertools.combinations(range(n), k)
        )
        optimal = abs(result.total_cost - brute) <= 1e-9
        medoids = list(result.medoid_indices)
        swap_optimal = True
        for pos in range(k):
            for cand in range(n):
                if cand in medoids:
                    continue
                trial_m = medoids.copy()
                trial_m[pos] = cand
                cost = float(dist[:, trial_m].min(axis=1).sum())
                if cost < result.total_cost - 1e-9:
                    swap_optimal = False
        if not (optimal and swap_optimal):
            print(f"fixture {trial}: n={n} k={k} cost={result.total_cost} "
                  f"brute={brute} swap_optimal={swap_optimal}")
            all_ok = False
    record_criterion(5, description, all_ok)


def test_criterion_06_z_score_standardization():
    description = ("Z-score columns have mean 0 and sample SD 1 within "
                   "1e-9 on every fixture")
    rng = np.random.default_rng(15)
    all_ok = True
    for trial in range(5):
        n_cons = int(rng.integers(6, 13))
        n_docs = int(rng.integers(5, 11))
        k = int(rng.integers(2, 5))
        codes = [f"E{i}" for i in range(n_cons)]
        theta = rng.dirichlet(np.ones(k), size=n_docs)
        petitions = [
            make_petition(d, {c: int(rng.integers(1, 60)) for c in codes})
            for d in range(n_docs)
        ]
        model = make_model(theta, doc_ids=tuple(str(d)
                                                for d in range(n_docs)))
        profiles = geo.profile_constituencies(model, make_corpus(
            petitions, [ConstituencyMeta(c, c, 60_000) for c in codes]))
        z = profiles.z
        mean_ok = np.all(np.abs(z.mean(axis=0)) <= 1e-9)
        sd_ok = np.all(np.abs(z.std(axis=0, ddof=1) - 1.0) <= 1e-9)
        if not (mean_ok and sd_ok):
            print(f"fixture {trial}: means {z.mean(axis=0)}, "
                  f"sds {z.std(axis=0, ddof=1)}")
            all_ok = False
    record_criterion(6, description, all_ok)


def test_criterion_07_scaling_regression_exact():
    description = ("log-log regression on an exactly collinear fixture "
                   "recovers the exponent to 1e-9 with R squared 1")
    electorates = np.array([100, 200, 400, 800, 1600])
    fit = geo.scaling_fit(electorates, 3 * electorates ** 2)
    exp_ok = abs(fit.exponent - 2.0) <= 1e-9
    r2_ok = abs(fit.r_squared - 1.0) <= 1e-12
    if not (exp_ok and r2_ok):
        print(f"exponent {fit.exponent!r}, r_squared {fit.r_squared!r}")
    record_criterion(7, description, exp_ok and r2_ok)


def test_criterion_08_share_and_z_hand_fixture():
    description = ("3-constituency share and Z-score hand fixture "
                   "reproduced exactly")
    petitions = [make_petition(1, {"E1": 30, "E2": 10, "E3": 10}),
                 make_petition(2, {"E1": 10, "E2": 10, "E3": 30})]
    model = make_model(np.eye(2), doc_ids=("1", "2"))
    meta = [ConstituencyMeta(c, c, 70_000) for c in ("E1", "E2", "E3")]
    profiles = geo.profile_constituencies(model, make_corpus(petitions, meta))
    shares, z = profiles.share, profiles.z
    shares_ok = np.array_equal(
        shares, [[0.75, 0.25], [0.5, 0.5], [0.25, 0.75]])
    z_ok = np.array_equal(z, [[1.0, -1.0], [0.0, 0.0], [-1.0, 1.0]])
    if not (shares_ok and z_ok):
        print(f"shares {shares}, z {z}")
    record_criterion(8, description, bool(shares_ok and z_ok))


# ---------------------------------------------------------------------------
# Tier 2: full-archive reproduction


@pytest.fixture(scope="session")
def archive_run(tmp_path_factory):
    archive = os.environ.get(ARCHIVE_ENV)
    constituencies = os.environ.get(CONS_ENV)
    if not archive or not constituencies:
        return None
    workdir = tmp_path_factory.mktemp("archive_run")
    out = workdir / "out"
    config = {
        "archive": archive,
        "constituencies": constituencies,
        "output_dir": str(out),
        # the paper's span, so records outside it are rejected
        "window": ["2015-05-07", "2017-05-03"],
    }
    stopwords = os.environ.get(STOPWORDS_ENV)
    if stopwords:
        config["stopwords"] = stopwords
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    t0 = time.monotonic()
    for command in ("ingest", "fit", "report"):
        rc = cli.main([command, "--config", str(config_path)])
        assert rc == 0, f"{command} failed on the supplied archive"
    runtime = time.monotonic() - t0
    print(f"full-archive pipeline finished in {runtime / 60:.1f} min")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    return SimpleNamespace(out=out, summary=summary, runtime=runtime)


def _tier2(archive_run, number, description):
    if archive_run is None:
        record_skip(number, description,
                    f"set {ARCHIVE_ENV} and {CONS_ENV} to run")
        pytest.skip("petition archive not supplied")
    return archive_run


def test_criterion_09_archive_totals(archive_run):
    description = ("full archive: 10,950 accepted petitions and "
                   "30,420,983 UK signatures, exact")
    run = _tier2(archive_run, 9, description)
    corpus_stats = run.summary["corpus"]
    ok = (corpus_stats["accepted"] == 10_950
          and corpus_stats["uk_signature_total"] == 30_420_983)
    if not ok:
        print(f"accepted {corpus_stats['accepted']}, "
              f"uk total {corpus_stats['uk_signature_total']}")
    record_criterion(9, description, ok)


def test_criterion_10_vocabulary_size(archive_run):
    description = ("full archive: pruned vocabulary of 3,592 terms "
                   "(within 5% if the stopword list differs)")
    run = _tier2(archive_run, 10, description)
    dtm = textprep.load_dtm(str(run.out / "dtm.bin"))
    size = len(dtm.vocabulary.terms)
    if size != 3_592:
        print(f"vocabulary discrepancy: {size} terms vs 3,592 expected "
              f"({(size - 3_592) / 3_592:+.2%})")
    record_criterion(10, description, abs(size - 3_592) / 3_592 <= 0.05)


def test_criterion_11_powerlaw_exponent(archive_run):
    description = ("full archive: sub-10,000 signature tail fits a power "
                   "law with exponent 1.42 +/- 0.05 at x_min 10")
    run = _tier2(archive_run, 11, description)
    fit = run.summary["powerlaw"]
    ok = fit["x_min"] == 10 and abs(fit["exponent"] - 1.42) <= 0.05
    if not ok:
        print(f"x_min {fit['x_min']}, exponent {fit['exponent']}")
    record_criterion(11, description, ok)


def test_criterion_12_entropy_profile(archive_run):
    description = ("full archive: weekly entropy mean 0.438 +/- 0.02, "
                   "endpoints 0.114/0.533 +/- 0.03, 9 +/- 2 flagged dates")
    run = _tier2(archive_run, 12, description)
    ent = run.summary["entropy"]
    n_flags = len(ent["flagged_dates"])
    ok = (abs(ent["mean"] - 0.438) <= 0.02
          and abs(ent["min"] - 0.114) <= 0.03
          and abs(ent["max"] - 0.533) <= 0.03
          and abs(n_flags - 9) <= 2)
    if not ok:
        print(f"mean {ent['mean']}, min {ent['min']}, max {ent['max']}, "
              f"{n_flags} flags")
    record_criterion(12, description, ok)


def test_criterion_13_scaling_exponents(archive_run):
    description = ("full archive: raw scaling exponent 1.47 +/- 0.05 with "
                   "R squared 0.39 +/- 0.05; binned exponent 1.32 +/- 0.05")
    run = _tier2(archive_run, 13, description)
    raw = run.summary["geo"]["scaling"]["raw"]
    binned = run.summary["geo"]["scaling"]["binned"]
    ok = (abs(raw["exponent"] - 1.47) <= 0.05
          and abs(raw["r_squared"] - 0.39) <= 0.05
          and abs(binned["exponent"] - 1.32) <= 0.05)
    if not ok:
        print(f"raw {raw}, binned {binned}")
    record_criterion(13, description, ok)


def test_criterion_14_constituency_means(archive_run):
    description = ("full archive: mean signatures per constituency "
                   "46,800 +/- 1%, mean per elector 0.65 +/- 0.02")
    run = _tier2(archive_run, 14, description)
    g = run.summary["geo"]
    ok = (abs(g["mean_signatures_per_constituency"] - 46_800) / 46_800 <= 0.01
          and abs(g["mean_per_elector"] - 0.65) <= 0.02)
    if not ok:
        print(f"mean signatures {g['mean_signatures_per_constituency']}, "
              f"per elector {g['mean_per_elector']}")
    record_criterion(14, description, ok)


# characteristic top terms of the ten issues in the 2015-2017 UK archive,
# used to label fitted topics by stemmed-word overlap
ISSUE_TERMS = {
    "international affairs": "british govern country nation world citizen",
    "democracy and the eu": "vote referendum govern parliament leave will",
    "law and order": "law police act public protect crime",
    "school": "school children student education year young",
    "driving": "road car use driver drive vehicle",
    "family": "children child parent people family need",
    "work and pay": "pay tax work year cost money",
    "animals and the environment": "dog animal ban use food can",
    "healthcare": "nhs health people care mental need",
    "local government": "govern housing local will council fund",
}


def _label_topics(model):
    """Assign each fitted topic an issue label by stemmed top-word overlap."""
    issues = list(ISSUE_TERMS)
    stemmed = [
        {porter.stem(w) for w in ISSUE_TERMS[name].split()} for name in issues
    ]
    tops = [set(lda.top_words(model, t, 15)) for t in range(model.k)]
    overlap = np.array([
        [len(tops[t] & stemmed[i]) for i in range(len(issues))]
        for t in range(model.k)
    ], dtype=np.float64)
    rows, cols = linear_sum_assignment(-overlap)
    labels = {int(t): issues[int(i)] for t, i in zip(rows, cols)}
    return labels, overlap


def test_criterion_15_issue_network_extremes(archive_run):
    description = ("full archive: mean max theta in [0.5, 0.75]; school-"
                   "family is the strongest word-distribution edge and "
                   "law and order-family the strongest co-occurrence edge")
    run = _tier2(archive_run, 15, description)
    theta_ok = 0.5 <= run.summary["lda"]["mean_max_theta"] <= 0.75
    model = lda.load_model(str(run.out / "model.bin"))
    labels, overlap = _label_topics(model)
    word_edge = run.summary["networks"]["strongest_word_distribution_edge"]
    co_edge = run.summary["networks"]["strongest_co_occurrence_edge"]
    word_pair = {labels[word_edge[0]], labels[word_edge[1]]}
    co_pair = {labels[co_edge[0]], labels[co_edge[1]]}
    word_ok = word_pair == {"school", "family"}
    co_ok = co_pair == {"law and order", "family"}
    if not (theta_ok and word_ok and co_ok):
        print(f"mean max theta {run.summary['lda']['mean_max_theta']}, "
              f"word edge {word_pair}, co-occurrence edge {co_pair}")
        print(f"topic labels: {labels}")
    record_criterion(15, description, theta_ok and word_ok and co_ok)
