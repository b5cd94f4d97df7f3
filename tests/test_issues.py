"""Issue prevalence, success probability, and similarity networks."""

import numpy as np
import pytest

from petmine import issues
from petmine.errors import ConfigError, ValidationError

from conftest import (constituency_signatures, make_corpus, make_model,
                      make_petition)


def _aligned(theta, sigs_per_doc, totals=None):
    """Model plus corpus whose ids line up with the model rows."""
    theta = np.asarray(theta, dtype=np.float64)
    petitions = []
    for i, s in enumerate(sigs_per_doc):
        p = make_petition(i, {"E1": s})
        if totals is not None:
            extra = totals[i] - s
            p = make_petition(i, {"E1": s}, country_extra=extra)
        petitions.append(p)
    model = make_model(theta, doc_ids=tuple(str(i) for i in range(len(theta))))
    return model, make_corpus(petitions)


# ---------------------------------------------------------------------------
# prevalence


def test_prevalence_hand_case():
    theta = [[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]]
    model, corpus = _aligned(theta, [100, 10, 1000])
    prev = issues.prevalence(model, corpus)
    assert np.allclose(prev.by_petitions, [1.4, 1.6])
    # 0.8*100 + 0.5*10 + 0.1*1000, 0.2*100 + 0.5*10 + 0.9*1000
    assert np.allclose(prev.by_signatures, [185.0, 925.0])
    assert prev.rank_by_petitions.tolist() == [2, 1]
    assert prev.rank_by_signatures.tolist() == [2, 1]


def test_prevalence_masses_conserve():
    rng = np.random.default_rng(3)
    theta = rng.dirichlet(np.ones(4), size=9)
    sigs = rng.integers(1, 500, size=9).tolist()
    model, corpus = _aligned(theta, sigs)
    prev = issues.prevalence(model, corpus)
    assert prev.by_petitions.sum() == pytest.approx(9.0)
    assert prev.by_signatures.sum() == pytest.approx(sum(sigs))
    assert sorted(prev.rank_by_petitions) == [1, 2, 3, 4]


def test_prevalence_rank_ties_stable():
    theta = np.array([[0.5, 0.25, 0.25]])
    model, corpus = _aligned(theta, [10])
    prev = issues.prevalence(model, corpus)
    # equal masses rank in index order
    assert prev.rank_by_petitions.tolist() == [1, 2, 3]


def test_prevalence_misaligned_corpus():
    model = make_model(np.eye(2), doc_ids=("a", "b"))
    corpus = make_corpus([make_petition("a", {"E1": 5})])
    with pytest.raises(ValidationError, match="misaligned"):
        issues.prevalence(model, corpus)


def _random_petitions(rng, n_docs):
    # zero-padded ids, so that ingest's id order is the order given
    codes = ["E1", "E2", "Ross, Skye", "UNKNOWN"]
    return [make_petition(
                f"{d:03d}",
                {c: int(rng.pareto(1.1) * 200)
                 for c in rng.choice(codes, int(rng.integers(0, 4)),
                                     replace=False).tolist()},
                country_extra=int(rng.integers(0, 3)) * 5_000)
            for d in range(n_docs)]


def test_prevalence_and_success_match_per_petition_loops():
    rng = np.random.default_rng(11)
    for trial in range(8):
        n_docs, k = int(rng.integers(1, 300)), int(rng.integers(2, 12))
        theta = rng.dirichlet(np.full(k, 0.3), size=n_docs)
        petitions = _random_petitions(rng, n_docs)
        corpus = make_corpus(petitions)
        model = make_model(theta, doc_ids=corpus.ids)
        # the per-petition signature and threshold vectors, kept as the
        # reference
        sigs = np.array([sum(constituency_signatures(p).values())
                         for p in petitions], dtype=np.float64)
        prev = issues.prevalence(model, corpus)
        assert np.array_equal(prev.by_signatures, sigs @ theta)
        for t in (1, 5_000, 10_000):
            hit = np.array([p["attributes"]["signature_count"] >= t
                            for p in petitions],
                           dtype=np.float64)
            raw, smoothed = issues.success_probability(model, corpus,
                                                       threshold=t)
            mine = [hit[theta.argmax(axis=1) == i] for i in range(k)]
            assert np.array_equal(
                raw, [h.sum() / h.size if h.size else np.nan for h in mine],
                equal_nan=True)
            assert np.array_equal(
                smoothed,
                [(h.sum() + 1) / (h.size + 2) if h.size else np.nan
                 for h in mine], equal_nan=True)


# ---------------------------------------------------------------------------
# success probability


def test_success_probability_hand_case():
    # topic 0 gets docs 0,1,2 (one over threshold), topic 1 gets doc 3
    theta = [[0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.2, 0.8]]
    sigs = [12_000, 500, 30, 11_000]
    model, corpus = _aligned(theta, sigs)
    raw, smoothed = issues.success_probability(model, corpus,
                                               threshold=10_000)
    assert raw[0] == pytest.approx(1 / 3)
    assert raw[1] == pytest.approx(1.0)
    assert smoothed[0] == pytest.approx(2 / 5)
    assert smoothed[1] == pytest.approx(2 / 3)


def test_success_probability_uses_platform_total():
    # overseas signatures count toward the success threshold
    theta = [[1.0, 0.0]]
    model, corpus = _aligned(theta, [500], totals=[10_500])
    raw, _ = issues.success_probability(model, corpus, threshold=10_000)
    assert raw[0] == 1.0


def test_success_probability_empty_topic_nan():
    theta = [[0.9, 0.1], [0.8, 0.2]]
    model, corpus = _aligned(theta, [10, 20])
    raw, smoothed = issues.success_probability(model, corpus, threshold=10)
    assert np.isnan(raw[1])
    assert raw[0] == 1.0
    assert np.isnan(smoothed[1])


def test_success_probability_threshold_positive():
    model, corpus = _aligned([[1.0]], [10])
    with pytest.raises(ConfigError):
        issues.success_probability(model, corpus, threshold=0)


# ---------------------------------------------------------------------------
# networks


def _sample_model():
    rng = np.random.default_rng(8)
    theta = rng.dirichlet(np.ones(4), size=30)
    phi = rng.dirichlet(np.ones(50), size=4)
    return make_model(theta, phi=phi)


@pytest.mark.parametrize("build", [
    issues.co_occurrence_network, issues.word_distribution_network,
])
def test_network_well_formed(build):
    model = _sample_model()
    weights = build(model)
    k = model.k
    assert weights.shape == (k, k)
    assert np.array_equal(weights, weights.T)
    assert np.array_equal(np.diag(weights), np.ones(k))
    assert (weights >= -1).all() and (weights <= 1).all()


def _cosine(u, v) -> float:
    """Cosine similarity of two nonzero vectors, clamped to [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(np.clip(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)),
                         -1.0, 1.0))


def test_network_weights_match_cosine():
    model = _sample_model()
    weights = issues.word_distribution_network(model)
    for i in range(model.k):
        for j in range(i + 1, model.k):
            want = _cosine(model.phi[i], model.phi[j])
            assert weights[i, j] == pytest.approx(want, abs=1e-12)
    co = issues.co_occurrence_network(model)
    want01 = _cosine(model.theta[:, 0], model.theta[:, 1])
    assert co[0, 1] == pytest.approx(want01, abs=1e-12)


def test_prune_keeps_strongest_edges():
    weights = np.array([
        [1.0, 0.9, 0.2, 0.5],
        [0.9, 1.0, 0.3, 0.8],
        [0.2, 0.3, 1.0, 0.1],
        [0.5, 0.8, 0.1, 1.0],
    ])
    pruned = issues.prune_network(weights, 0.34)   # ceil(0.34 * 6) = 3 edges
    kept = issues.edge_list(pruned)
    assert kept == [(0, 1, 0.9), (0, 3, 0.5), (1, 3, 0.8)]
    assert np.array_equal(np.diag(pruned), np.ones(4))
    assert np.array_equal(pruned, pruned.T)
    # the original is untouched
    assert weights[0, 2] == 0.2


def test_prune_retains_cutoff_ties():
    weights = np.ones((3, 3)) * 0.6
    np.fill_diagonal(weights, 1.0)
    pruned = issues.prune_network(weights, 0.34)   # nominal 1 edge, all tied
    assert len(issues.edge_list(pruned)) == 3


def test_prune_full_fraction_is_identity():
    weights = issues.co_occurrence_network(_sample_model())
    pruned = issues.prune_network(weights, 1.0)
    assert np.array_equal(pruned, weights)


def test_prune_fraction_bounds():
    weights = issues.co_occurrence_network(_sample_model())
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            issues.prune_network(weights, bad)


def test_prune_single_node():
    weights = np.ones((1, 1))
    pruned = issues.prune_network(weights, 0.5)
    assert pruned.tolist() == [[1.0]]
    assert pruned is not weights


def test_edge_list_skips_zeros():
    weights = np.array([[1.0, 0.0, 0.4],
                        [0.0, 1.0, 0.0],
                        [0.4, 0.0, 1.0]])
    assert issues.edge_list(weights) == [(0, 2, 0.4)]


def test_edge_list_matches_upper_triangle_loop():
    rng = np.random.default_rng(5)
    weights = np.where(rng.random((7, 7)) < 0.3, 0.0, rng.random((7, 7)))
    want = [(i, j, float(weights[i, j]))
            for i in range(7) for j in range(i + 1, 7) if weights[i, j] != 0.0]
    got = issues.edge_list(weights)
    assert got == want
    assert all(type(v) is int for e in got for v in e[:2])
