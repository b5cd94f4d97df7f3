"""Constituency profiles, scaling regression, and medoid clustering."""

import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from petmine import geo
from petmine.corpus import UNKNOWN_CODE, ConstituencyMeta
from petmine.errors import ConfigError, ValidationError

from conftest import (constituency_signatures, make_corpus, make_model,
                      make_petition)


def _meta(code, electorate=70_000):
    return ConstituencyMeta(code, f"Seat {code}", electorate)


# ---------------------------------------------------------------------------
# profiles


def _two_petition_setup(*extra_meta):
    petitions = [make_petition(1, {"E1": 30, "E2": 10, "E3": 10}),
                 make_petition(2, {"E1": 10, "E2": 10, "E3": 30})]
    model = make_model(np.eye(2), doc_ids=("1", "2"))
    meta = [_meta("E1"), _meta("E2", 50_000), _meta("E3"), *extra_meta]
    return model, make_corpus(petitions, meta), meta


def test_profiles_hand_case_exact():
    model, corpus, meta = _two_petition_setup()
    profiles = geo.profile_constituencies(model, corpus)
    assert profiles.meta == tuple(meta)
    assert np.array_equal(profiles.share,
                          [[0.75, 0.25], [0.5, 0.5], [0.25, 0.75]])
    # shares are equally spaced so the Z-scores come out exactly integral
    assert np.array_equal(profiles.z, [[1.0, -1.0], [0.0, 0.0], [-1.0, 1.0]])
    assert profiles.totals.dtype == np.int64
    assert profiles.totals.tolist() == [40, 20, 40]
    assert profiles.electorate.tolist() == [70_000, 50_000, 70_000]
    assert profiles.per_elector[1] == 20 / 50_000
    assert profiles.clustered.tolist() == [True, True, True]


def test_profiles_standardization():
    rng = np.random.default_rng(4)
    theta = rng.dirichlet(np.ones(3), size=6)
    codes = [f"E{i}" for i in range(8)]
    petitions = [
        make_petition(d, {c: int(rng.integers(1, 80)) for c in codes})
        for d in range(6)
    ]
    model = make_model(theta, doc_ids=tuple(str(d) for d in range(6)))
    profiles = geo.profile_constituencies(
        model, make_corpus(petitions, [_meta(c) for c in codes]))
    assert np.allclose(profiles.z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(profiles.z.std(axis=0, ddof=1), 1.0, atol=1e-12)
    assert np.allclose(profiles.share.sum(axis=1), 1.0)


def test_profiles_zero_signature_constituency_nan():
    model, corpus, _ = _two_petition_setup(_meta("E9"))
    profiles = geo.profile_constituencies(model, corpus)
    assert profiles.totals[3] == 0
    assert profiles.per_elector[3] == 0.0
    assert np.isnan(profiles.share[3]).all()
    assert np.isnan(profiles.z[3]).all()
    assert profiles.clustered.tolist() == [True, True, True, False]
    # the live constituencies standardize exactly as before
    assert np.array_equal(profiles.z[:3],
                          [[1.0, -1.0], [0.0, 0.0], [-1.0, 1.0]])


def test_profiles_skip_unlisted_codes():
    petitions = [make_petition(1, {"E1": 30, "UNKNOWN": 500, "E2": 10}),
                 make_petition(2, {"E1": 10, "E2": 30, "ZZZ": 99})]
    model = make_model(np.eye(2), doc_ids=("1", "2"))
    corpus = make_corpus(petitions, [_meta("E1"), _meta("E2")])
    # ingest folds the unlisted codes into the last column ...
    assert corpus.codes == ("E1", "E2", "UNKNOWN")
    assert corpus.signatures[:, 2].toarray().ravel().tolist() == [500, 99]
    # ... which the profiles skip
    profiles = geo.profile_constituencies(model, corpus)
    assert profiles.totals.tolist() == [40, 40]


def test_profiles_errors():
    model, corpus, meta = _two_petition_setup()
    bare = make_corpus([make_petition(1, {"E1": 30}),
                        make_petition(2, {"E3": 30})])
    with pytest.raises(ValidationError, match="no constituency metadata"):
        geo.profile_constituencies(model, bare)
    other = make_model(np.eye(2), doc_ids=("8", "9"))
    with pytest.raises(ValidationError, match="misaligned"):
        geo.profile_constituencies(other, corpus)
    lone = make_corpus([make_petition(1, {"E1": 5})], meta)
    lone_model = make_model(np.eye(1), doc_ids=("1",))
    with pytest.raises(ValidationError, match="at least 2"):
        geo.profile_constituencies(lone_model, lone)


def _profile_mass_loop(model, petitions, meta):
    # the per-pair accumulation, kept as the reference; also returns the
    # codes met that the metadata does not list
    index = {m.code: i for i, m in enumerate(meta)}
    mass = np.zeros((len(meta), model.k))
    totals = np.zeros(len(meta), dtype=np.int64)
    unlisted = set()
    for d, p in enumerate(petitions):
        for code, n in constituency_signatures(p).items():
            i = index.get(code)
            if i is None:
                unlisted.add(code)
                continue
            mass[i] += n * model.theta[d]
            totals[i] += n
    return mass, totals, unlisted


def test_profiles_match_per_pair_loop(caplog):
    rng = np.random.default_rng(21)
    codes = [f"E{i}" for i in range(40)] + [UNKNOWN_CODE]
    # E35..E39 and UNKNOWN are unlisted; E99 is listed but never signed
    meta = [_meta(c) for c in codes[:35]] + [_meta("E99")]
    for trial in range(6):
        n_docs, k = int(rng.integers(20, 200)), int(rng.integers(2, 12))
        theta = rng.dirichlet(np.full(k, 0.3), size=n_docs)
        petitions = []
        for d in range(n_docs):
            chosen = rng.choice(codes, size=int(rng.integers(0, 30)),
                                replace=False)
            counts = (rng.pareto(1.2, size=len(chosen)) * 50).astype(int)
            # zero-padded ids, so that ingest's id order is the order given
            petitions.append(make_petition(f"{d:03d}", dict(zip(
                chosen.tolist(), counts.tolist()))))
        model = make_model(theta,
                           doc_ids=tuple(f"{d:03d}" for d in range(n_docs)))
        mass, totals, unlisted = _profile_mass_loop(model, petitions, meta)
        caplog.clear()
        with caplog.at_level("WARNING"):
            corpus = make_corpus(petitions, meta)
            profiles = geo.profile_constituencies(model, corpus)
        assert np.array_equal(profiles.totals, totals)
        live = totals > 0
        shares = profiles.share
        assert np.array_equal(
            shares[live], mass[live] / mass[live].sum(axis=1, keepdims=True))
        assert np.isnan(shares[~live]).all()
        # ingest warns once per unlisted code, in code order, as it folds
        # them into UNKNOWN; the profiles skip that column without a word
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("petmine.corpus",
             f"unknown constituency code {code}; bucketing as UNKNOWN")
            for code in sorted(unlisted)]


# ---------------------------------------------------------------------------
# scaling regression


def test_scaling_fit_exact_power_law():
    electorates = np.array([100, 200, 400, 800, 1600])
    fit = geo.scaling_fit(electorates, 3 * electorates ** 2)
    assert fit.mode == "raw"
    assert fit.n == 5
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3), abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_scaling_fit_binned():
    rng = np.random.default_rng(9)
    totals = rng.integers(40_000, 110_000, size=40)
    raw = geo.scaling_fit(2 * totals, totals)
    binned = geo.scaling_fit(2 * totals, totals, mode="binned", n_bins=8)
    assert binned.mode == "binned"
    assert binned.n == 8
    # proportional data keeps slope 1 under both treatments
    assert raw.exponent == pytest.approx(1.0, abs=1e-6)
    assert binned.exponent == pytest.approx(1.0, abs=1e-2)


def test_scaling_fit_ignores_silent_constituencies():
    fit = geo.scaling_fit(np.array([100, 200, 400, 800]),
                          np.array([200, 400, 800, 0]))
    assert fit.n == 3


def test_scaling_fit_sorts_by_electorate_then_signatures():
    electorate = np.array([400, 100, 200, 200, 100, 300])
    totals = np.array([90, 5, 40, 30, 7, 60])
    order = sorted(range(6), key=lambda i: (electorate[i], totals[i]))
    for mode in ("raw", "binned"):
        got = geo.scaling_fit(electorate, totals, mode, n_bins=3)
        want = geo.scaling_fit(electorate[order], totals[order], mode,
                               n_bins=3)
        assert got == want


def test_scaling_fit_errors():
    good = np.array([100, 200, 400])
    with pytest.raises(ConfigError, match="unknown scaling mode"):
        geo.scaling_fit(good, good, mode="magic")
    with pytest.raises(ValidationError, match="at least 3"):
        geo.scaling_fit(good[:2], good[:2])
    with pytest.raises(ValidationError, match="cannot fill"):
        geo.scaling_fit(good, good, mode="binned", n_bins=10)
    with pytest.raises(ValidationError, match="all equal"):
        geo.scaling_fit(np.full(3, 500), np.array([10, 20, 30]))


# ---------------------------------------------------------------------------
# clustering


def _blobs(n_per=6, spread=0.05, seed=0):
    # two tight blobs of Z-score rows: n_per rows each, the first blob first
    rng = np.random.default_rng(seed)
    centers = [np.array([3.0, 0.0, -1.0]), np.array([-2.0, 1.5, 2.0])]
    return np.array([center + rng.normal(0.0, spread, size=3)
                     for center in centers for _ in range(n_per)])


def _brute_medoid_cost(dist, k):
    return min(
        float(dist[:, c].min(axis=1).sum())
        for c in itertools.combinations(range(dist.shape[0]), k)
    )


def _pam_swap_loop(dist, medoids, max_iter=500):
    # the per-candidate scan, kept as the reference
    n = dist.shape[0]
    for _ in range(max_iter):
        dm = dist[:, medoids]
        order = np.argsort(dm, axis=1, kind="stable")
        rows = np.arange(n)
        near_pos = order[:, 0]
        d1 = dm[rows, near_pos]
        d2 = dm[rows, order[:, 1]] if len(medoids) > 1 else np.full(n, np.inf)
        cost = float(d1.sum())
        candidates = [h for h in range(n) if h not in medoids]
        best_delta, best = 0.0, None
        for i in range(len(medoids)):
            base = np.where(near_pos == i, d2, d1)
            for h in candidates:
                delta = float(np.minimum(base, dist[:, h]).sum()) - cost
                if delta < best_delta - 1e-12:
                    best_delta, best = delta, (i, h)
        if best is None:
            return medoids, cost
        medoids[best[0]] = best[1]
        medoids = sorted(medoids)
    raise AssertionError("reference swap did not settle")


def _pam_exact_loop(dist, k):
    # the per-subset scan, kept as the reference
    best_cost, best = np.inf, None
    for combo in itertools.combinations(range(dist.shape[0]), k):
        cost = float(dist[:, combo].min(axis=1).sum())
        if cost < best_cost - 1e-12:
            best_cost, best = cost, combo
    return list(best), best_cost


def _first_improvement_loop(scores, best):
    # the per-candidate scan, kept as the reference
    pos = None
    for j, score in enumerate(scores.tolist()):
        if score < best - 1e-12:
            best = score
            pos = j
    return pos, best


def test_first_improvement_matches_per_candidate_loop():
    rng = np.random.default_rng(52)
    cases = [(np.empty(0), 0.0), (np.empty(0), -1.0), (np.empty(0), np.inf)]
    for trial in range(300):
        n = int(rng.integers(1, 60))
        base = float(rng.normal(0.0, 10.0 ** rng.integers(-3, 4)))
        scores = base + rng.normal(0.0, 1.0, size=n)
        if trial % 3 == 0:
            # near-ties: steps of about 1e-13 and 1e-12 around one value
            scores = base + rng.choice([-2e-12, -1e-12, -1e-13, 0.0, 1e-13,
                                        1e-12], size=n)
        best = [0.0, -abs(base), base, float(scores[0]) + 1e-12,
                np.inf][trial % 5]
        cases.append((scores, best))
    for scores, best in cases:
        assert geo._first_improvement(scores, best) == \
            _first_improvement_loop(scores, best)


def test_pam_build_picks_are_a_prefix_of_larger_k():
    rng = np.random.default_rng(53)
    for trial in range(12):
        dist = _pam_case(rng, trial, int(rng.integers(12, 80)), 3)
        picks = geo._pam_build(dist, 10)
        for k in range(1, 10):
            assert geo._pam_build(dist, k) == picks[:k]


def _pam_case(rng, trial, n, dim):
    # every third case sits on a small integer grid, so distances tie
    if trial % 3 == 0:
        z = rng.integers(0, 3, size=(n, dim)).astype(np.float64)
    else:
        z = rng.normal(size=(n, dim))
    from scipy.spatial.distance import cdist
    return cdist(z, z, ("euclidean", "cityblock")[trial % 2])


def test_pam_swap_matches_per_candidate_loop():
    rng = np.random.default_rng(50)
    cases = [(int(rng.integers(6, 120)), int(rng.integers(1, 7)))
             for _ in range(24)] + [(650, 8)]
    for trial, (n, k) in enumerate(cases):
        dist = _pam_case(rng, trial, n, int(rng.integers(1, 6)))
        start = sorted(geo._pam_build(dist, k))
        assert geo._pam_swap(dist, list(start)) == \
            _pam_swap_loop(dist, list(start))


def test_pam_exact_matches_per_subset_loop():
    rng = np.random.default_rng(51)
    for trial in range(24):
        n = int(rng.integers(4, 40))
        k = int(rng.integers(1, min(4, n)))
        dist = _pam_case(rng, trial, n, int(rng.integers(1, 6)))
        assert geo._pam_exact(dist, k) == _pam_exact_loop(dist, k)


def test_pam_exact_working_set_is_quadratic():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(200, 5))
    from scipy.spatial.distance import cdist
    dist = cdist(z, z)
    tracemalloc.start()
    try:
        got = geo._pam_exact(dist, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 19,900 subsets: holding all their columns at once would take
    # 19,900 * 200 * 8 bytes (31.8 MB), 100 times the distance matrix
    assert peak < 4 * dist.nbytes
    assert got == _pam_exact_loop(dist, 2)


def test_pam_separates_blobs():
    z = _blobs()
    before = z.copy()
    result = geo.pam_cluster(z, k=2)
    assert result.labels.shape == (12,)
    assert len(set(result.labels[:6].tolist())) == 1
    assert len(set(result.labels[6:].tolist())) == 1
    assert result.labels[0] != result.labels[6]
    # each medoid sits in its own cluster, and the input is untouched
    assert result.labels[list(result.medoid_indices)].tolist() == [0, 1]
    assert np.array_equal(z, before)


def test_pam_matches_brute_force():
    rng = np.random.default_rng(12)
    for trial in range(10):
        z = rng.normal(size=(9, 3))
        result = geo.pam_cluster(z, k=3)
        from scipy.spatial.distance import cdist
        dist = cdist(z, z)
        assert result.total_cost == pytest.approx(
            _brute_medoid_cost(dist, 3), abs=1e-9)


def test_pam_swap_path_is_one_swap_optimal():
    rng = np.random.default_rng(33)
    z = rng.normal(size=(14, 3))
    from scipy.spatial.distance import cdist
    dist = cdist(z, z)
    # the heuristic path, checked for no improving single exchange
    medoids, cost = geo._pam_swap(dist, sorted(geo._pam_build(dist, 3)))
    base = float(dist[:, medoids].min(axis=1).sum())
    assert cost == pytest.approx(base)
    for pos in range(len(medoids)):
        for cand in range(len(z)):
            if cand in medoids:
                continue
            trial = medoids.copy()
            trial[pos] = cand
            assert float(dist[:, trial].min(axis=1).sum()) >= base - 1e-9


def test_pam_deterministic():
    a = geo.pam_cluster(_blobs(seed=5), k=2)
    b = geo.pam_cluster(_blobs(seed=5), k=2)
    assert a.medoid_indices == b.medoid_indices
    assert np.array_equal(a.labels, b.labels)
    assert a.total_cost == b.total_cost


def test_pam_clusters_the_finite_profile_rows():
    model, corpus, _ = _two_petition_setup(_meta("E9"))
    profiles = geo.profile_constituencies(model, corpus)
    rows = np.flatnonzero(profiles.clustered)
    assert rows.tolist() == [0, 1, 2]
    result = geo.pam_cluster(profiles.z[rows], k=2)
    assert result.labels.shape == (3,)
    assert result.labels[0] != result.labels[2]


def test_pam_manhattan_metric():
    result = geo.pam_cluster(_blobs(), k=2, metric="manhattan")
    assert len(set(result.labels.tolist())) == 2


def test_pam_validation():
    z = _blobs(n_per=2)
    with pytest.raises(ConfigError, match="metric"):
        geo.pam_cluster(z, k=2, metric="cosine")
    with pytest.raises(ConfigError, match="k must satisfy"):
        geo.pam_cluster(z, k=0)
    with pytest.raises(ConfigError, match="k must satisfy"):
        geo.pam_cluster(z, k=4)


def test_cluster_issue_profile_means():
    share = np.array([[1.0, 0.0], [0.8, 0.2], [0.0, 1.0]])
    result = geo.pam_cluster(share, k=2)
    means = geo.cluster_issue_profile(share, result.labels, 2)
    assert means[result.labels[0]] == pytest.approx([0.9, 0.1])
    assert means[result.labels[2]] == pytest.approx([0.0, 1.0])


def test_cluster_issue_profile_empty_cluster_is_nan():
    share = np.array([[1.0, 0.0], [0.5, 0.5]])
    means = geo.cluster_issue_profile(share, np.array([0, 2]), 3)
    assert means[0].tolist() == [1.0, 0.0]
    assert np.isnan(means[1]).all()
    assert means[2].tolist() == [0.5, 0.5]


# ---------------------------------------------------------------------------
# silhouette


def test_silhouette_separated_blobs_near_one():
    z = _blobs(spread=0.01)
    from scipy.spatial.distance import cdist
    dist = cdist(z, z)
    labels = np.array([0] * 6 + [1] * 6)
    assert geo.silhouette_score(dist, labels) > 0.95


def test_silhouette_singletons_score_zero():
    dist = np.array([[0.0, 1.0, 5.0],
                     [1.0, 0.0, 5.0],
                     [5.0, 5.0, 0.0]])
    labels = np.array([0, 0, 1])
    # the singleton contributes 0; the pair scores (5-1)/5 each
    want = (0.8 + 0.8 + 0.0) / 3
    assert geo.silhouette_score(dist, labels) == pytest.approx(want)


def test_silhouette_sweep_shape_and_range():
    z = _blobs()
    sweep = geo.silhouette_sweep(z, k_values=range(1, 12))
    scores = {k: score for k, (_, score) in sweep.items()}
    again = geo.silhouette_sweep(z, k_values=range(1, 12))
    assert {k: score for k, (_, score) in again.items()} == scores
    assert sorted(scores) == list(range(1, 12))
    # undefined for one cluster
    assert scores.pop(1) is None
    assert all(-1.0 <= v <= 1.0 for v in scores.values())
    assert max(scores, key=scores.get) == 2
    # k values at or above the point count are refused, as pam_cluster does
    for k in (0, 12):
        with pytest.raises(ConfigError, match="k must satisfy"):
            geo.silhouette_sweep(z, k_values=[2, k])


def test_silhouette_sweep_metric_validation():
    with pytest.raises(ConfigError):
        geo.silhouette_sweep(_blobs(), [2], metric="cosine")


def test_silhouettes_do_not_depend_on_the_blas_thread_count():
    # a BLAS product's last bits move with its thread count, so one run
    # per count; only a host with several cores can tell the two apart
    script = (
        "import numpy as np\n"
        "from scipy.spatial.distance import cdist\n"
        "from petmine import geo\n"
        "rng = np.random.default_rng(0)\n"
        "z = rng.random((650, 10))\n"
        "dist = cdist(z, z)\n"
        "for k in range(2, 11):\n"
        "    labels = rng.integers(0, k, size=650)\n"
        "    print(geo.silhouette_score(dist, labels).hex())\n")
    src = str(pathlib.Path(geo.__file__).parents[1])
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src
    outputs = [subprocess.run([sys.executable, "-c", script],
                              env={**env, **threads}, capture_output=True,
                              text=True, check=True).stdout
               for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {})]
    assert len(outputs[0].split()) == 9
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("metric", sorted(geo._METRICS))
def test_silhouette_sweep_clusterings_are_pam_cluster(metric, monkeypatch):
    z = np.random.default_rng(8).normal(size=(30, 3))
    # the report's order: its pam_k first, then the rest
    ks = [5, 1, 2, 3, 4, 6, 8]
    # on 30 rows k <= 3 is solved exactly and k >= 4 by BUILD and SWAP
    assert [math.comb(30, k) <= geo._EXACT_BUDGET for k in ks] == \
        [False, True, True, True, False, False, False]
    from scipy.spatial.distance import cdist
    dist = cdist(z, z, geo._METRICS[metric])
    builds, starts = [], {}
    build, swap = geo._pam_build, geo._pam_swap

    def counted(d, k):
        builds.append(k)
        return build(d, k)

    def recorded(d, medoids):
        starts[len(medoids)] = list(medoids)
        return swap(d, medoids)

    monkeypatch.setattr(geo, "_pam_build", counted)
    monkeypatch.setattr(geo, "_pam_swap", recorded)
    sweep = geo.silhouette_sweep(z, ks, metric)
    # one BUILD, to the largest SWAP-path k, whose first k picks seed k;
    # none when every k is exact
    assert builds == [8]
    assert starts == {k: sorted(build(dist, k)) for k in (4, 5, 6, 8)}
    geo.silhouette_sweep(z, [1, 2, 3], metric)
    assert builds == [8]
    assert sorted(sweep) == sorted(ks)
    for k, (result, score) in sweep.items():
        want = geo.pam_cluster(z, k, metric)
        assert result.medoid_indices == want.medoid_indices
        assert np.array_equal(result.labels, want.labels)
        assert result.total_cost == want.total_cost
        assert score == (None if k == 1
                         else geo.silhouette_score(dist, want.labels))


def _silhouette_loop(dist, labels):
    # the per-point definition, kept as the reference
    n = dist.shape[0]
    scores = np.zeros(n)
    clusters = np.unique(labels)
    for i in range(n):
        own = labels[i]
        same = (labels == own) & (np.arange(n) != i)
        if not same.any():
            continue
        a = dist[i, same].mean()
        b = min(dist[i, labels == other].mean()
                for other in clusters if other != own)
        denom = max(a, b)
        if denom > 0:
            scores[i] = (b - a) / denom
    return float(scores.mean())


def test_silhouette_matches_per_point_loop():
    from scipy.spatial.distance import cdist
    z = _blobs()
    cases = [
        (cdist(z, z), np.array([0] * 6 + [1] * 6)),
        (cdist(z, z, "cityblock"), np.arange(12) % 5),
        (np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 5.0], [5.0, 5.0, 0.0]]),
         np.array([0, 0, 1])),
    ]
    rng = np.random.default_rng(650)
    pts = rng.normal(size=(650, 10))
    cases.append((cdist(pts, pts), rng.integers(0, 8, size=650)))
    # coincident points: a and b can both be 0
    cases.append((np.zeros((4, 4)), np.array([0, 0, 1, 1])))
    for dist, labels in cases:
        got = geo.silhouette_score(dist, labels)
        assert got == pytest.approx(_silhouette_loop(dist, labels),
                                    rel=1e-12, abs=1e-15)


def test_silhouette_needs_two_clusters():
    with pytest.raises(ValidationError):
        geo.silhouette_score(np.zeros((3, 3)), np.zeros(3, dtype=int))
