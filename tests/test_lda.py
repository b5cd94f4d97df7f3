"""Topic model fitting, inference, intrusion scoring, and snapshots."""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

from petmine import kernels, lda, textprep, util
from petmine.errors import ArchiveFormatError, ConfigError, EmptyCorpusError

from conftest import make_model, make_planted_dtm


@pytest.fixture(scope="module")
def small_fit():
    dtm, _, _ = make_planted_dtm(n_docs=45, tokens_per_doc=30, seed=2)
    config = lda.LdaConfig(k=3, iterations=80, burn_in=20, sample_every=5,
                           seed=11)
    return dtm, config, lda.fit(dtm, config)


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize("kw", [
    dict(k=0),
    dict(k=-2),
    dict(k=3, alpha=0.0),
    dict(k=3, beta=-1.0),
    dict(k=3, iterations=0),
    dict(k=3, iterations=10, burn_in=10),
    dict(k=3, iterations=10, burn_in=-1),
    dict(k=3, sample_every=0),
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ConfigError):
        lda.LdaConfig(**kw)


def test_config_allows_single_topic():
    assert lda.LdaConfig(k=1).k == 1


def test_retained_sweeps_schedule():
    config = lda.LdaConfig(k=2, iterations=1000, burn_in=200, sample_every=10)
    sweeps = config.retained_sweeps()
    assert sweeps[0] == 210
    assert sweeps[-1] == 1000
    assert len(sweeps) == 80
    assert lda.LdaConfig(k=2, iterations=30, burn_in=0,
                         sample_every=7).retained_sweeps() == [7, 14, 21, 28]


# ---------------------------------------------------------------------------
# fitting


def test_fit_rows_normalized_and_positive(small_fit):
    _, _, model = small_fit
    assert np.allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)
    assert (model.phi > 0).all()
    assert (model.theta > 0).all()


def test_fit_carries_labels_and_trace(small_fit):
    dtm, config, model = small_fit
    assert model.terms == dtm.vocabulary.terms
    assert model.doc_ids == dtm.doc_ids
    assert model.k == 3
    assert model.trace_sweeps[0] == 1
    assert model.trace_sweeps[1:] == [s for s in range(10, 81, 10)]
    assert all(np.isfinite(v) for v in model.log_likelihood_trace)


def test_fit_likelihood_improves(small_fit):
    _, config, model = small_fit
    trace = np.asarray(model.log_likelihood_trace)
    sweeps = np.asarray(model.trace_sweeps)
    post = trace[sweeps > config.burn_in]
    assert post.mean() >= trace[0]


def test_fit_bit_deterministic(small_fit):
    dtm, config, model = small_fit
    again = lda.fit(dtm, config)
    assert model.phi.tobytes() == again.phi.tobytes()
    assert model.theta.tobytes() == again.theta.tobytes()
    assert model.log_likelihood_trace == again.log_likelihood_trace


def test_fit_logs_kernel_k_and_progress_at_each_likelihood(caplog,
                                                           monkeypatch):
    dtm, _, _ = make_planted_dtm(n_docs=12, tokens_per_doc=10, seed=3)
    config = lda.LdaConfig(k=2, iterations=25, burn_in=5, sample_every=5)
    # the share of tokens each sweep left on their topic, in percent
    kept = {}
    gibbs_sweep = kernels.gibbs_sweep

    def recording_sweep(n, *args):
        before = args[-1].assignments().copy()
        gibbs_sweep(n, *args)
        kept[n] = f"{100 * np.mean(before == args[-1].assignments()):.0f}"

    monkeypatch.setattr(kernels, "gibbs_sweep", recording_sweep)
    with caplog.at_level("INFO", logger="petmine.lda"):
        model = lda.fit(dtm, config)
    lines = [r.getMessage() for r in caplog.records]
    assert lines[0] in ("fit: pure-Python kernels specialised to K=2",
                        "fit: numba-compiled kernels, K=2")
    progress = lines[1:-1]
    assert len(progress) == len(model.trace_sweeps) == 3
    pattern = (r"fit: sweep (\d+)/25, \d+ tokens/s, (\d+)% kept, "
               r"ll (-?\d+\.\d), ETA \d+ s")
    for line, sweep, ll in zip(progress, model.trace_sweeps,
                               model.log_likelihood_trace):
        match = re.fullmatch(pattern, line)
        assert match, line
        assert int(match[1]) == sweep
        assert match[2] == kept[sweep]
        assert match[3] == f"{ll:.1f}"
    assert lines[-1].startswith("fitted k=2 on 12 docs")
    # with one topic every draw keeps it
    caplog.clear()
    with caplog.at_level("INFO", logger="petmine.lda"):
        lda.fit(dtm, lda.LdaConfig(k=1, iterations=25, burn_in=5,
                                   sample_every=5))
    progress = [r.getMessage() for r in caplog.records][1:-1]
    assert len(progress) == 3
    assert all(", 100% kept, " in line for line in progress), progress


def test_fit_reads_the_counts_only_at_likelihood_and_retained_sweeps(
        monkeypatch):
    dtm, _, _ = make_planted_dtm(n_docs=12, tokens_per_doc=10, seed=3)
    config = lda.LdaConfig(k=2, iterations=25, burn_in=5, sample_every=10)
    sweeps, read = [], []
    for state in (kernels._ArrayState, kernels._ListState):
        counts = state.counts
        monkeypatch.setattr(state, "counts", lambda self, counts=counts: (
            read.append(sweeps[-1] if sweeps else 0) or counts(self)))
    sweep = kernels.gibbs_sweep
    monkeypatch.setattr(kernels, "gibbs_sweep", lambda *args: (
        sweeps.append(args[0]) or sweep(*args)))
    lda.fit(dtm, config)
    assert sweeps == list(range(1, 26))
    # likelihood at 1, 10, 20; samples kept at 15, 25
    assert [s for s in read if s] == [1, 10, 15, 20, 25]


def test_fit_seed_changes_result(small_fit):
    dtm, config, model = small_fit
    other = lda.fit(dtm, dataclasses.replace(config, seed=12))
    assert model.phi.tobytes() != other.phi.tobytes()


def test_fit_errors():
    dtm, _, _ = make_planted_dtm(n_docs=12, tokens_per_doc=10)
    with pytest.raises(ConfigError, match="retained"):
        lda.fit(dtm, lda.LdaConfig(k=2, iterations=5, burn_in=4,
                                   sample_every=10))
    empty = textprep.DocumentTermMatrix(
        n_docs=2,
        vocabulary=textprep.Vocabulary(terms=("a", "b"),
                                       doc_frequency=np.zeros(2, np.int64)),
        counts=sp.csr_matrix((2, 2), dtype=np.int32),
        doc_ids=("x", "y"))
    with pytest.raises(EmptyCorpusError):
        lda.fit(empty, lda.LdaConfig(k=2, iterations=4, burn_in=0,
                                     sample_every=2))


def test_fit_exchange_symmetry(planted):
    dtm, _, _, model = planted
    rng = np.random.default_rng(17)
    perm = rng.permutation(dtm.n_docs)
    shuffled = textprep.DocumentTermMatrix(
        n_docs=dtm.n_docs,
        vocabulary=dtm.vocabulary,
        counts=dtm.counts[perm],
        doc_ids=tuple(dtm.doc_ids[i] for i in perm))
    other = lda.fit(shuffled, model.config)
    # match topics between the two runs by phi cosine similarity
    a = model.phi / np.linalg.norm(model.phi, axis=1, keepdims=True)
    b = other.phi / np.linalg.norm(other.phi, axis=1, keepdims=True)
    sim = a @ b.T
    rows, cols = linear_sum_assignment(-sim)
    assert (sim[rows, cols] >= 0.999).all()
    relabeled = other.theta[:, cols]
    # row d of the original corresponds to the shuffled row holding doc d
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(dtm.n_docs)
    matched = relabeled[inverse]
    assert (matched.argmax(axis=1) == model.theta.argmax(axis=1)).all()
    assert np.abs(matched - model.theta).max() < 0.05


# ---------------------------------------------------------------------------
# top words


def test_top_words_orders_by_probability():
    phi = np.array([[0.5, 0.3, 0.1, 0.1],
                    [0.25, 0.25, 0.25, 0.25]])
    model = make_model(np.eye(2), phi=phi, terms=("d", "c", "b", "a"))
    assert lda.top_words(model, 0, 2) == ["d", "c"]
    # ties break lexicographically
    assert lda.top_words(model, 0, 4) == ["d", "c", "a", "b"]
    assert lda.top_words(model, 1, 4) == ["a", "b", "c", "d"]


def _top_words_numpy(model, topic, n):
    # the sort on NumPy scalars, kept as the reference
    row = model.phi[topic]
    order = sorted(range(len(model.terms)),
                   key=lambda i: (-row[i], model.terms[i]))
    return [model.terms[i] for i in order[:n]]


def _random_topics(rng, trial):
    # shuffled term names; every other model draws phi from a few values,
    # so probabilities tie, at the median too
    k, vocab = int(rng.integers(1, 6)), int(rng.integers(7, 40))
    if trial % 2:
        phi = rng.choice([0.5, 1.0, 2.0, 4.0], size=(k, vocab))
    else:
        phi = rng.dirichlet(np.full(vocab, 0.3), size=k)
    phi = phi / phi.sum(axis=1, keepdims=True)
    terms = tuple(rng.permutation([f"w{i:02d}" for i in range(vocab)]))
    return make_model(np.eye(k), phi=phi, terms=terms)


def test_top_words_match_sort_on_numpy_scalars():
    rng = np.random.default_rng(14)
    for trial in range(60):
        model = _random_topics(rng, trial)
        for t in range(model.k):
            for n in (1, 5, len(model.terms)):
                assert lda.top_words(model, t, n) == \
                    _top_words_numpy(model, t, n)


def test_top_words_errors():
    model = make_model(np.eye(2))
    with pytest.raises(ConfigError):
        lda.top_words(model, 2, 3)
    with pytest.raises(ConfigError):
        lda.top_words(model, -1, 3)
    with pytest.raises(ConfigError):
        lda.top_words(model, 0, 0)


# ---------------------------------------------------------------------------
# inference on new documents


def test_infer_theta_recovers_planted_topic(planted):
    dtm, _, doc_topic, model = planted
    # a fresh document built purely from topic 0's word block
    words = np.repeat([5, 11], [20, 15])
    theta = lda.infer_theta(model, words, seed=4)
    planted_topic = int(model.phi[:, 5].argmax())
    assert theta.argmax() == planted_topic
    assert theta[planted_topic] > 0.8
    assert theta.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(theta, lda.infer_theta(model, words, seed=4))


def test_infer_theta_seed_matters_on_ambiguous_doc():
    # two indistinguishable topics: assignments are pure chance, so the
    # sampled weights depend on the seed
    model = make_model(np.eye(2), phi=np.full((2, 8), 1 / 8))
    words = np.repeat(np.arange(8), 3)
    a = lda.infer_theta(model, words, seed=1)
    b = lda.infer_theta(model, words, seed=2)
    assert not np.array_equal(a, b)


def test_infer_theta_wrong_width(planted):
    # a word index the model's 120 terms do not cover
    _, _, _, model = planted
    for index in (-1, 120, 121):
        with pytest.raises(ConfigError,
                           match=f"word index {index} is outside the "
                                 "model's 120 terms"):
            lda.infer_theta(model, [0, index, 3], seed=1)


def _held_out_dense_rows(model, counts, seed):
    """Each row's topic weights by the per-row path ``held_out_log_likelihood``
    took before it unrolled its rows once: each row made dense, its words
    rebuilt from the dense vector, and one ``kernels.infer_doc`` call per
    row with tokens; and the total of its tokens' log probabilities, one
    token at a time."""
    csr = counts.tocsr()
    thetas, total = {}, 0.0
    for d in range(csr.shape[0]):
        row = csr.getrow(d)
        if row.nnz == 0:
            continue
        vec = np.asarray(row.todense()).ravel()
        words = np.repeat(np.arange(vec.shape[0]),
                          vec.astype(np.int64)).astype(np.int32)
        acc = np.zeros(model.k, dtype=np.float64)
        n = kernels.infer_doc(
            words, np.uint64(util.derive_seed(seed, f"row:{d}")),
            np.ascontiguousarray(model.phi), float(model.config.alpha),
            lda._INFER_SWEEPS, lda._INFER_BURN_IN, lda._INFER_SAMPLE_EVERY,
            acc)
        thetas[d] = acc / n
        for w in words.tolist():
            total += math.log(sum(t * p for t, p in zip(
                thetas[d].tolist(), model.phi[:, w].tolist())))
    return thetas, total


@pytest.mark.parametrize("dtm_seed", [0, 1, 2])
def test_held_out_matches_the_dense_row_path(dtm_seed, monkeypatch):
    # topics that share words, so each row's weights depend on its seed;
    # planted rows repeat words (60 tokens over a 40-word block), and an
    # empty row and a one-token row sit between them, so a row's position
    # differs from its place among the rows with tokens
    rng = np.random.Generator(np.random.PCG64(dtm_seed))
    phi = rng.dirichlet(np.ones(120), size=3)
    held, _, _ = make_planted_dtm(n_docs=6, seed=dtm_seed)
    assert held.counts.max() > 1
    one_token = sp.csr_matrix(([1], ([0], [7])), shape=(1, 120),
                              dtype=np.int32)
    empty = sp.csr_matrix((1, 120), dtype=np.int32)
    rows = sp.vstack([held.counts[:2], empty, one_token, held.counts[2:],
                      empty], format="csr")
    scored = []
    score = kernels.log_likelihood
    monkeypatch.setattr(kernels, "log_likelihood",
                        lambda *args: scored.append(args[2]) or score(*args))
    for seed in (0, 3):
        model = make_model(np.eye(3), phi=phi, seed=seed)
        thetas, want = _held_out_dense_rows(
            model, rows, util.derive_seed(seed, "lda.heldout"))
        total, per_token = lda.held_out_log_likelihood(model, rows)
        theta = scored.pop()
        assert sorted(thetas) == [0, 1, 3, 4, 5, 6, 7]
        for d, row in thetas.items():
            assert theta[d].tobytes() == row.tobytes()
        assert total == pytest.approx(want, rel=1e-12)
        assert per_token == total / int(rows.sum())


@pytest.mark.parametrize("n_terms", [119, 121])
def test_held_out_rows_of_the_wrong_width(planted, n_terms):
    _, _, _, model = planted
    rows = sp.csr_matrix(([2], ([0], [0])), shape=(2, n_terms), dtype=np.int32)
    with pytest.raises(ConfigError, match=f"held-out rows have {n_terms} "
                                          "terms, model has 120"):
        lda.held_out_log_likelihood(model, rows)


def test_held_out_log_likelihood(planted):
    dtm, _, _, model = planted
    rows = dtm.counts[:5]
    total, per_token = lda.held_out_log_likelihood(model, rows)
    n_tokens = int(rows.sum())
    assert total == pytest.approx(per_token * n_tokens)
    assert total < 0
    again = lda.held_out_log_likelihood(model, rows)
    assert (total, per_token) == again
    with pytest.raises(EmptyCorpusError):
        lda.held_out_log_likelihood(
            model, sp.csr_matrix((3, len(model.terms)), dtype=np.int32))


# ---------------------------------------------------------------------------
# word intrusion


def test_intrusion_instances_structure(small_fit):
    _, _, model = small_fit
    instances = lda.make_intrusion_instances(model, seed=21)
    assert len(instances) == model.k
    for inst in instances:
        assert len(inst.shown_words) == 6
        assert len(set(inst.shown_words)) == 6
        top5 = lda.top_words(model, inst.topic_index, 5)
        intruder = inst.shown_words[inst.intruder_position]
        assert intruder not in top5
        assert sorted(w for i, w in enumerate(inst.shown_words)
                      if i != inst.intruder_position) == sorted(top5)
        # the intruder really is a low-probability word for this topic
        row = model.phi[inst.topic_index]
        idx = model.terms.index(intruder)
        assert row[idx] <= np.median(row)


def test_intrusion_instances_seeded(small_fit):
    _, _, model = small_fit
    a = lda.make_intrusion_instances(model, seed=21)
    b = lda.make_intrusion_instances(model, seed=21)
    c = lda.make_intrusion_instances(model, seed=22)
    assert a == b
    assert a != c


def _intrusion_instances_loop(model, seed):
    # the per-term pool scan, kept as the reference
    instances = []
    for t in range(model.k):
        top5 = lda.top_words(model, t, 5)
        row = model.phi[t]
        median = float(np.median(row))
        pool = [term for i, term in enumerate(model.terms)
                if row[i] <= median and term not in top5]
        rng = np.random.Generator(
            np.random.PCG64(util.derive_seed(seed, f"intrusion:{t}")))
        intruder = pool[int(rng.integers(len(pool)))]
        shown = top5 + [intruder]
        order = rng.permutation(6)
        instances.append(lda.IntrusionInstance(
            topic_index=t, shown_words=tuple(shown[i] for i in order),
            intruder_position=int(np.nonzero(order == 5)[0][0])))
    return instances


def test_intrusion_instances_match_per_term_loop(small_fit):
    rng = np.random.default_rng(15)
    models = [small_fit[2]] + [_random_topics(rng, trial)
                               for trial in range(40)]
    for seed, model in enumerate(models):
        assert lda.make_intrusion_instances(model, seed) == \
            _intrusion_instances_loop(model, seed)


def test_intrusion_needs_vocabulary():
    model = make_model(np.eye(2), phi=np.full((2, 6), 1 / 6),
                       terms=tuple("abcdef"))
    with pytest.raises(ConfigError, match="at least 7"):
        lda.make_intrusion_instances(model, seed=0)


def _instance(topic, pos=2):
    return lda.IntrusionInstance(topic_index=topic,
                                 shown_words=tuple("abcdef"),
                                 intruder_position=pos)


def test_score_intrusion_all_correct():
    instances = [_instance(0), _instance(1)]
    score = lda.score_intrusion(instances, [2, 2])
    assert score.overall == 1.0
    assert score.per_topic == {0: 1.0, 1: 1.0}
    assert score.flagged == ()


def test_score_intrusion_partial():
    # one topic shown to three subjects, two of whom find the intruder
    instances = [_instance(0), _instance(0), _instance(0), _instance(1)]
    score = lda.score_intrusion(instances, [2, 2, 5, 2])
    assert score.per_topic[0] == pytest.approx(2 / 3)
    assert score.per_topic[1] == 1.0
    assert score.overall == pytest.approx(3 / 4)
    assert score.flagged == (0,)


def test_score_intrusion_errors():
    with pytest.raises(ConfigError):
        lda.score_intrusion([_instance(0)], [1, 2])
    with pytest.raises(ConfigError):
        lda.score_intrusion([], [])


# ---------------------------------------------------------------------------
# snapshots


def test_model_snapshot_roundtrip(tmp_path, small_fit):
    _, _, model = small_fit
    path = str(tmp_path / "model.bin")
    lda.save_model(model, path)
    back = lda.load_model(path)
    assert back.config == model.config
    assert np.array_equal(back.phi, model.phi)
    assert np.array_equal(back.theta, model.theta)
    assert back.log_likelihood_trace == model.log_likelihood_trace
    assert back.trace_sweeps == model.trace_sweeps
    assert back.terms == model.terms
    assert back.doc_ids == model.doc_ids


def test_model_snapshot_bytes_deterministic(tmp_path, small_fit):
    _, _, model = small_fit
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    lda.save_model(model, str(p1))
    lda.save_model(model, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_model_rejects_foreign_file(tmp_path):
    path = str(tmp_path / "other.bin")
    util.save_arrays(path, {"x": np.arange(3)}, meta={"format": "other"})
    with pytest.raises(ArchiveFormatError, match="not a petmine-lda snapshot"):
        lda.load_model(path)


def test_load_model_rejects_unknown_version(tmp_path, small_fit):
    _, _, model = small_fit
    path = str(tmp_path / "model.bin")
    lda.save_model(model, path)
    arrays, meta = util.load_arrays(path, "petmine-lda", 1)
    util.save_arrays(path, arrays, meta=dict(meta, version=2))
    with pytest.raises(ArchiveFormatError) as err:
        lda.load_model(path)
    assert path in str(err.value)
    assert "version 2" in str(err.value) and "expected 1" in str(err.value)


def test_load_model_checks_vocab_hash(tmp_path, small_fit):
    _, _, model = small_fit
    path = str(tmp_path / "model.bin")
    lda.save_model(model, path)
    arrays, meta = util.load_arrays(path, "petmine-lda", 1)
    meta["terms"] = list(meta["terms"])
    meta["terms"][0] = "tampered"
    util.save_arrays(path, arrays, meta=meta)
    with pytest.raises(ArchiveFormatError, match="hash mismatch"):
        lda.load_model(path)


@pytest.mark.parametrize("changes, field", [
    ({"theta": np.full((5, 2), 0.5)}, "theta"),
    ({"theta": np.full((2, 3), 1 / 3)}, "theta"),
    ({"theta": np.ones((2, 2), dtype=np.int64)}, "theta"),
    ({"phi": np.full((3, 8), 1 / 8)}, "phi"),
    ({"phi": np.full((2, 7), 1 / 7)}, "phi"),
    ({"phi": np.full(16, 1 / 8)}, "phi"),
    ({"trace": np.array([-2.0, -1.0])}, "trace_sweeps"),
    ({"trace": np.array([[-1.0]])}, "trace"),
    ({"trace_sweeps": np.array([1.0])}, "trace_sweeps"),
    ({"doc_ids": ["0", 1]}, "doc_ids"),
    ({"doc_ids": "01"}, "doc_ids"),
    ({"terms": None}, "terms"),
], ids=["theta-rows", "theta-k", "theta-int", "phi-k", "phi-terms",
        "phi-1d", "trace-long", "trace-2d", "trace_sweeps-float",
        "doc_ids-int", "doc_ids-string", "terms-null"])
def test_load_model_names_file_and_field_of_a_shape_fault(tmp_path, changes,
                                                          field):
    path = str(tmp_path / "model.bin")
    lda.save_model(make_model(np.eye(2)), path)
    arrays, meta = util.load_arrays(path, "petmine-lda", 1)
    arrays.update((k, v) for k, v in changes.items()
                  if isinstance(v, np.ndarray))
    meta.update((k, v) for k, v in changes.items()
                if not isinstance(v, np.ndarray))
    util.save_arrays(path, arrays, meta=meta)
    with pytest.raises(ArchiveFormatError) as err:
        lda.load_model(path)
    assert path in str(err.value) and f"'{field}'" in str(err.value)


def test_load_model_checks_k_against_the_config(tmp_path):
    path = str(tmp_path / "model.bin")
    lda.save_model(make_model(np.eye(2)), path)
    arrays, meta = util.load_arrays(path, "petmine-lda", 1)
    util.save_arrays(path, arrays,
                     meta=dict(meta, config=dict(meta["config"], k=3)))
    with pytest.raises(ArchiveFormatError,
                       match=r"'phi'.*expected.*\(3, 8\)"):
        lda.load_model(path)


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta["config"].update(bogus=1), "key 'bogus' is unknown"),
    (lambda meta: meta.update(config=[3]),
     "'config' is invalid: expected an object"),
    (lambda meta: meta["config"].pop("k"), "'config' is invalid"),
    (lambda meta: meta["config"].update(k="3"), "'config' is invalid"),
    (lambda meta: meta["config"].update(k=3.0), "'config' is invalid"),
    (lambda meta: meta["config"].update(k=True), "'config' is invalid"),
    (lambda meta: meta["config"].update(seed=1.5), "'config' is invalid"),
    (lambda meta: meta["config"].update(k=0), "k must be at least 1"),
    (lambda meta: meta.pop("config"), "no 'config'"),
    (lambda meta: meta.pop("terms"), "no 'terms'"),
    (lambda meta: meta.pop("vocab_hash"), "no 'vocab_hash'"),
], ids=["unknown-key", "not-object", "no-k", "string-k", "float-k", "bool-k",
        "float-seed", "zero-k", "no-config", "no-terms", "no-vocab-hash"])
def test_load_model_names_file_and_field_of_bad_meta(tmp_path, small_fit,
                                                     edit, message):
    _, _, model = small_fit
    path = str(tmp_path / "model.bin")
    lda.save_model(model, path)
    arrays, meta = util.load_arrays(path, "petmine-lda", 1)
    meta = dict(meta, config=dict(meta["config"]))
    edit(meta)
    util.save_arrays(path, arrays, meta=meta)
    with pytest.raises(ArchiveFormatError) as err:
        lda.load_model(path)
    assert path in str(err.value) and message in str(err.value)
