"""Sampling kernels: counter RNG, count bookkeeping, compiled/fallback parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petmine import kernels

MASK = (1 << 64) - 1


def _mix64_ref(x):
    # independent reimplementation with plain python ints
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK
    x ^= x >> 31
    return x


def _draw_ref(seed, sweep, idx):
    x = seed ^ ((sweep * 0xD1342543DE82EF95) & MASK)
    x = _mix64_ref(x)
    x ^= (idx * 0xC2B2AE3D27D4EB4F) & MASK
    x = _mix64_ref(x)
    return (x >> 11) * (1.0 / 9007199254740992.0)


def _toy_state(n_docs=12, vocab=9, n_topics=3, seed=5):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(3, 15, size=n_docs)
    doc_ptr = np.zeros(n_docs + 1, np.int64)
    doc_ptr[1:] = np.cumsum(lengths)
    token_word = rng.integers(0, vocab, size=doc_ptr[-1]).astype(np.int32)
    doc_seed = rng.integers(0, 2**63, size=n_docs).astype(np.uint64)
    z = np.zeros(doc_ptr[-1], np.int32)
    n_kw = np.zeros((n_topics, vocab), np.int64)
    n_k = np.zeros(n_topics, np.int64)
    n_dk = np.zeros((n_docs, n_topics), np.int64)
    kernels.init_assignments(doc_ptr, token_word, doc_seed, n_topics,
                             z, n_kw, n_k, n_dk)
    return doc_ptr, token_word, doc_seed, z, n_kw, n_k, n_dk


def _assert_counts_consistent(doc_ptr, token_word, z, n_kw, n_k, n_dk):
    n_topics, vocab = n_kw.shape
    kw = np.zeros_like(n_kw)
    dk = np.zeros_like(n_dk)
    for d in range(doc_ptr.shape[0] - 1):
        for j in range(doc_ptr[d], doc_ptr[d + 1]):
            kw[z[j], token_word[j]] += 1
            dk[d, z[j]] += 1
    assert np.array_equal(kw, n_kw)
    assert np.array_equal(dk, n_dk)
    assert np.array_equal(kw.sum(axis=1), n_k)
    assert n_k.sum() == token_word.shape[0]


@given(seed=st.integers(0, MASK), sweep=st.integers(0, 10_000),
       idx=st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_draw_uniform_matches_reference(seed, sweep, idx):
    got = kernels.draw_uniform(np.uint64(seed), sweep, idx)
    want = _draw_ref(seed, sweep, idx)
    assert got == want
    assert 0.0 <= got < 1.0


def test_draw_uniform_sensitive_to_each_argument():
    base = kernels.draw_uniform(np.uint64(42), 3, 7)
    assert base != kernels.draw_uniform(np.uint64(43), 3, 7)
    assert base != kernels.draw_uniform(np.uint64(42), 4, 7)
    assert base != kernels.draw_uniform(np.uint64(42), 3, 8)


def test_draw_uniform_roughly_uniform():
    us = [kernels.draw_uniform(np.uint64(1), 0, i) for i in range(4000)]
    assert abs(np.mean(us) - 0.5) < 0.02
    assert min(us) < 0.05 and max(us) > 0.95


def test_init_assignments_builds_consistent_counts():
    doc_ptr, token_word, doc_seed, z, n_kw, n_k, n_dk = _toy_state()
    assert z.min() >= 0 and z.max() < n_k.shape[0]
    _assert_counts_consistent(doc_ptr, token_word, z, n_kw, n_k, n_dk)


def test_gibbs_sweep_preserves_count_invariants():
    doc_ptr, token_word, doc_seed, z, n_kw, n_k, n_dk = _toy_state()
    cum = np.empty(n_k.shape[0], np.float64)
    for sweep in range(1, 6):
        kernels.gibbs_sweep(sweep, doc_ptr, token_word, doc_seed, z,
                            n_kw, n_k, n_dk, 0.1, 0.1, cum)
        _assert_counts_consistent(doc_ptr, token_word, z, n_kw, n_k, n_dk)


def test_gibbs_sweep_deterministic():
    a = _toy_state()
    b = _toy_state()
    cum = np.empty(3, np.float64)
    for sweep in range(1, 4):
        kernels.gibbs_sweep(sweep, a[0], a[1], a[2], a[3], a[4], a[5], a[6],
                            0.1, 0.1, cum)
        kernels.gibbs_sweep(sweep, b[0], b[1], b[2], b[3], b[4], b[5], b[6],
                            0.1, 0.1, cum)
    assert np.array_equal(a[3], b[3])


def test_log_likelihood_matches_numpy_reference():
    doc_ptr, token_word, doc_seed, z, n_kw, n_k, n_dk = _toy_state()
    alpha, beta = 0.3, 0.05
    got = kernels.log_likelihood(doc_ptr, token_word, n_kw, n_k, n_dk,
                                 alpha, beta)
    vocab = n_kw.shape[1]
    phi = (n_kw + beta) / (n_k[:, None] + vocab * beta)
    want = 0.0
    for d in range(doc_ptr.shape[0] - 1):
        n_d = doc_ptr[d + 1] - doc_ptr[d]
        theta = (n_dk[d] + alpha) / (n_d + n_dk.shape[1] * alpha)
        for j in range(doc_ptr[d], doc_ptr[d + 1]):
            want += np.log(theta @ phi[:, token_word[j]])
    assert got == pytest.approx(want, rel=1e-12)
    assert got < 0.0


def test_infer_doc_deterministic_and_normalized():
    rng = np.random.default_rng(0)
    phi = rng.dirichlet(np.ones(12), size=3)
    words = rng.integers(0, 12, size=40).astype(np.int32)
    outs = []
    for _ in range(2):
        acc = np.zeros(3, np.float64)
        n = kernels.infer_doc(words, np.uint64(99), phi, 0.1, 60, 20, 5, acc)
        assert n == 8
        outs.append(acc / n)
    assert np.array_equal(outs[0], outs[1])
    assert outs[0].sum() == pytest.approx(1.0, abs=1e-12)
    assert (outs[0] > 0).all()


def _reference(kernel):
    """A kernel's numba source, run uncompiled."""
    return getattr(kernel, "py_func", None) or kernel.__wrapped__


def _corpus(n_docs, vocab, max_len, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, max_len + 1, size=n_docs)
    lengths[n_docs // 2] = 0        # an empty document mid-corpus
    doc_ptr = np.zeros(n_docs + 1, np.int64)
    doc_ptr[1:] = np.cumsum(lengths)
    token_word = rng.integers(0, vocab, size=doc_ptr[-1]).astype(np.int32)
    doc_seed = rng.integers(0, 2**64, size=n_docs, dtype=np.uint64)
    return doc_ptr, token_word, doc_seed


def _empty_state(n_tokens, n_docs, vocab, n_topics):
    return (np.zeros(n_tokens, np.int32), np.zeros((n_topics, vocab), np.int64),
            np.zeros(n_topics, np.int64), np.zeros((n_docs, n_topics), np.int64))


@pytest.mark.parametrize("n_topics, vocab, n_docs, max_len", [
    (1, 7, 6, 9),
    (3, 25, 20, 30),
    (10, 240, 40, 40),
])
def test_fast_sampler_bit_identical_to_numba_source(n_topics, vocab, n_docs,
                                                    max_len):
    doc_ptr, token_word, doc_seed = _corpus(n_docs, vocab, max_len, n_topics)
    want = _empty_state(doc_ptr[-1], n_docs, vocab, n_topics)
    got = _empty_state(doc_ptr[-1], n_docs, vocab, n_topics)
    cum = np.empty(n_topics, np.float64)
    with np.errstate(over="ignore"):
        _reference(kernels.init_assignments)(doc_ptr, token_word, doc_seed,
                                             n_topics, *want)
        kernels._init_assignments_fast(doc_ptr, token_word, doc_seed,
                                       n_topics, *got)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)
        for sweep in range(1, 6):
            _reference(kernels.gibbs_sweep)(sweep, doc_ptr, token_word,
                                            doc_seed, *want, 0.1, 0.05, cum)
            kernels._gibbs_sweep_fast(sweep, doc_ptr, token_word, doc_seed,
                                      *got, 0.1, 0.05, cum)
            for a, b in zip(want, got):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("n_topics, vocab, n_words", [
    (1, 12, 15),
    (3, 30, 40),
    (10, 220, 60),
    (10, 220, 0),
])
def test_fast_infer_doc_bit_identical_to_numba_source(n_topics, vocab,
                                                      n_words):
    rng = np.random.default_rng(n_words)
    phi = rng.dirichlet(np.ones(vocab), size=n_topics)
    words = rng.integers(0, vocab, size=n_words).astype(np.int32)
    want = np.full(n_topics, 0.25)
    got = want.copy()
    with np.errstate(over="ignore"):
        n_want = _reference(kernels.infer_doc)(words, np.uint64(2**63 + 5),
                                               phi, 0.2, 50, 10, 4, want)
    n_got = kernels._infer_doc_fast(words, np.uint64(2**63 + 5), phi, 0.2,
                                    50, 10, 4, got)
    assert n_got == n_want == 10
    assert np.array_equal(got, want)


def test_kernel_mode_binds_fast_kernels_without_numba():
    fast = (kernels._init_assignments_fast, kernels._gibbs_sweep_fast,
            kernels._infer_doc_fast)
    bound = (kernels.init_assignments, kernels.gibbs_sweep, kernels.infer_doc)
    for f, b in zip(fast, bound):
        assert (b is f) == (not kernels.NUMBA_ENABLED)
        assert _reference(b) is not f


@pytest.mark.skipif(not kernels.NUMBA_ENABLED, reason="numba is not installed")
def test_compiled_and_fallback_modes_bit_identical():
    # the compiled kernels and their rewrites, on the same inputs
    n_topics, vocab, n_docs = 3, 25, 30
    doc_ptr, token_word, doc_seed = _corpus(n_docs, vocab, 20, 3)
    compiled = _empty_state(doc_ptr[-1], n_docs, vocab, n_topics)
    rewrite = _empty_state(doc_ptr[-1], n_docs, vocab, n_topics)
    cum = np.empty(n_topics, np.float64)
    kernels.init_assignments(doc_ptr, token_word, doc_seed, n_topics,
                             *compiled)
    kernels._init_assignments_fast(doc_ptr, token_word, doc_seed, n_topics,
                                   *rewrite)
    for sweep in range(31):
        if sweep:
            kernels.gibbs_sweep(sweep, doc_ptr, token_word, doc_seed,
                                *compiled, 0.1, 0.1, cum)
            kernels._gibbs_sweep_fast(sweep, doc_ptr, token_word, doc_seed,
                                      *rewrite, 0.1, 0.1, cum)
        for a, b in zip(compiled, rewrite):
            assert a.tobytes() == b.tobytes()

    phi = np.random.default_rng(3).dirichlet(np.ones(vocab), size=n_topics)
    words = token_word[:40]
    acc_c = np.zeros(n_topics)
    acc_r = np.zeros(n_topics)
    n_c = kernels.infer_doc(words, np.uint64(2**63 + 5), phi, 0.2, 50, 10, 4,
                            acc_c)
    n_r = kernels._infer_doc_fast(words, np.uint64(2**63 + 5), phi, 0.2, 50,
                                  10, 4, acc_r)
    assert n_c == n_r == 10
    assert acc_c.tobytes() == acc_r.tobytes()
