"""Sampling kernels: counter RNG, count bookkeeping, compiled/fallback parity."""

import inspect
import linecache
import os
import pathlib
import subprocess
import sys
import traceback
import types

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
    state = kernels.init_assignments(doc_ptr, token_word, doc_seed, n_topics,
                                     vocab, 0.1, 0.1)
    return doc_ptr, token_word, doc_seed, state


def _assert_counts_consistent(doc_ptr, token_word, state):
    z = state.assignments()
    n_kw, n_k, n_dk = state.counts()
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
def test_draws_match_reference(seed, sweep, idx):
    got = kernels._draws(np.uint64(seed), sweep, idx)
    want = _draw_ref(seed, sweep, idx)
    assert got == want
    assert 0.0 <= got < 1.0


def test_draws_sensitive_to_each_argument():
    base = kernels._draws(np.uint64(42), 3, 7)
    assert base != kernels._draws(np.uint64(43), 3, 7)
    assert base != kernels._draws(np.uint64(42), 4, 7)
    assert base != kernels._draws(np.uint64(42), 3, 8)


def test_draws_roughly_uniform():
    us = kernels._draws(np.uint64(1), 0, np.arange(4000))
    assert abs(np.mean(us) - 0.5) < 0.02
    assert min(us) < 0.05 and max(us) > 0.95


def test_init_assignments_builds_consistent_counts():
    doc_ptr, token_word, doc_seed, state = _toy_state()
    z = state.assignments()
    assert z.min() >= 0 and z.max() < 3
    _assert_counts_consistent(doc_ptr, token_word, state)


def test_gibbs_sweep_preserves_count_invariants():
    doc_ptr, token_word, doc_seed, state = _toy_state()
    for sweep in range(1, 6):
        kernels.gibbs_sweep(sweep, doc_ptr, token_word, doc_seed, state)
        _assert_counts_consistent(doc_ptr, token_word, state)


def test_gibbs_sweep_deterministic():
    a = _toy_state()
    b = _toy_state()
    for sweep in range(1, 4):
        kernels.gibbs_sweep(sweep, *a)
        kernels.gibbs_sweep(sweep, *b)
    assert np.array_equal(a[3].assignments(), b[3].assignments())


def test_log_likelihood_matches_numpy_reference():
    doc_ptr, token_word, doc_seed, state = _toy_state()
    n_kw, n_k, n_dk = state.counts()
    alpha, beta = 0.3, 0.05
    got = kernels.log_likelihood(doc_ptr, token_word, *kernels.posterior_means(
        doc_ptr, n_kw, n_k, n_dk, alpha, beta))
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
    return (getattr(kernel, "py_func", None)
            or getattr(kernel, "__wrapped__", kernel))


def _init_assignments_loop(doc_ptr, token_word, doc_seed, n_topics,
                           z, n_kw, n_k, n_dk):
    # the per-token loop kernels.init_assignments replaces: each token's
    # sweep-0 draw, one scalar ``_draw`` at a time
    for d in range(doc_ptr.shape[0] - 1):
        s = doc_seed[d]
        start = doc_ptr[d]
        for j in range(start, doc_ptr[d + 1]):
            k = int(kernels._draw(s, 0, j - start) * n_topics)
            if k >= n_topics:
                k = n_topics - 1
            z[j] = k
            n_kw[k, token_word[j]] += 1
            n_k[k] += 1
            n_dk[d, k] += 1


def _corpus(n_docs, vocab, max_len, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, max_len + 1, size=n_docs)
    lengths[n_docs // 2] = 0        # an empty document mid-corpus
    lengths[n_docs // 2 + 1] = 1    # and a one-token one after it
    doc_ptr = np.zeros(n_docs + 1, np.int64)
    doc_ptr[1:] = np.cumsum(lengths)
    token_word = rng.integers(0, vocab, size=doc_ptr[-1]).astype(np.int32)
    doc_seed = rng.integers(0, 2**64, size=n_docs, dtype=np.uint64)
    return doc_ptr, token_word, doc_seed


def _empty_state(n_tokens, n_docs, vocab, n_topics):
    return (np.zeros(n_tokens, np.int32), np.zeros((n_topics, vocab), np.int64),
            np.zeros(n_topics, np.int64), np.zeros((n_docs, n_topics), np.int64))


def _arrays(state):
    return (state.assignments(), *state.counts())


def _list_state(doc_ptr, token_word, doc_seed, arrays, alpha, beta):
    # the rewrite's state from ``arrays``, which it copies into its lists,
    # in either kernel mode
    _, seeds, idx = kernels._token_keys(doc_ptr, doc_seed)
    return kernels._ListState(doc_ptr, token_word, seeds, idx, *arrays, alpha,
                              beta)


# one topic (a single leaf), and odd and even splits of the search tree
TOPIC_COUNTS = [1, 2, 3, 5, 10, 17]


@pytest.mark.parametrize("n_topics", TOPIC_COUNTS)
def test_fast_sampler_bit_identical_to_numba_source(n_topics):
    n_docs, vocab = 24, 12 * n_topics + 7
    doc_ptr, token_word, doc_seed = _corpus(n_docs, vocab, 30, n_topics)
    want = _empty_state(doc_ptr[-1], n_docs, vocab, n_topics)
    with np.errstate(over="ignore"):
        _init_assignments_loop(doc_ptr, token_word, doc_seed, n_topics, *want)
    init = kernels.init_assignments(doc_ptr, token_word, doc_seed, n_topics,
                                    vocab, 0.1, 0.05)
    for a, b in zip(want, _arrays(init)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    got = _list_state(doc_ptr, token_word, doc_seed, want, 0.1, 0.05)
    kept = []
    with np.errstate(over="ignore"):
        for sweep in range(1, 31):
            before = want[0].copy()
            _reference(kernels._sweep_arrays)(sweep, doc_ptr, token_word,
                                              doc_seed, *want, 0.1, 0.05)
            kept.append(np.count_nonzero(before == want[0]))
            kernels.gibbs_sweep(sweep, doc_ptr, token_word, doc_seed, got)
            for a, b in zip(want, _arrays(got)):
                assert np.array_equal(a, b)
            # the counts the lists kept, tallied from z by a loop
            _assert_counts_consistent(doc_ptr, token_word, got)
    if n_topics == 1:
        # every draw keeps the one topic, so nothing ever moves
        assert kept == [doc_ptr[-1]] * 30
        for a, b in zip(_arrays(init), _arrays(got)):
            assert np.array_equal(a, b)
    else:
        # each sweep takes both of the rewrite's branches
        assert all(0 < n < doc_ptr[-1] for n in kept), kept


def test_list_state_keeps_its_factor_lists_equal_to_its_counts():
    # the sweep computes each factor from its count, so after every sweep
    # the factors are those made from the counts afresh
    doc_ptr, token_word, doc_seed = _corpus(20, 31, 25, 7)
    alpha, beta = 0.3, 0.07
    for n_topics in TOPIC_COUNTS:
        arrays = kernels.init_assignments(doc_ptr, token_word, doc_seed,
                                          n_topics, 31, alpha, beta)
        state = _list_state(doc_ptr, token_word, doc_seed, _arrays(arrays),
                            alpha, beta)
        for sweep in range(1, 31):
            kernels.gibbs_sweep(sweep, doc_ptr, token_word, doc_seed, state)
            fresh = _list_state(doc_ptr, token_word, doc_seed,
                                _arrays(state), alpha, beta)
            for name in ("zs", "cols", "nk", "rows", "cols_b", "nk_vb",
                         "rows_a"):
                assert getattr(state, name) == getattr(fresh, name), (
                    n_topics, sweep, name)


def _record_infer_z(monkeypatch):
    """A list that collects the rewrite's ``z`` as each ``infer_doc``
    sweep starts, and once more as the call returns."""
    seen = []
    specialised = kernels._specialised

    class Draws(list):
        # the generated loop reads a sweep's draws as the sweep starts
        def __getitem__(self, sweep):
            seen.append(list(self.zs))
            return list.__getitem__(self, sweep)

    def infer_doc(draws, token_phi, zs, counts, *rest):
        draws = Draws(draws)
        draws.zs = zs
        out = specialised(len(counts)).infer_doc(draws, token_phi, zs,
                                                 counts, *rest)
        seen.append(list(zs))
        return out

    monkeypatch.setattr(kernels, "_specialised",
                        lambda n_topics: types.SimpleNamespace(
                            infer_doc=infer_doc))
    return seen


@pytest.mark.parametrize("n_words", [0, 1, 40])
@pytest.mark.parametrize("n_topics", TOPIC_COUNTS)
def test_fast_infer_doc_bit_identical_to_numba_source(n_topics, n_words,
                                                      monkeypatch):
    seen = _record_infer_z(monkeypatch)
    vocab = 12 * n_topics + 7
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
    kept = [sum(a == b for a, b in zip(before, after))
            for before, after in zip(seen, seen[1:])]
    assert len(kept) == 50
    if n_topics == 1:
        assert kept == [n_words] * 50
    elif n_words == 40:
        # the sweeps take both of the rewrite's branches
        assert all(0 < n < n_words for n in kept), kept


def test_specialised_kernels_are_cached_by_k_and_readable():
    built = kernels._specialised(4)
    assert kernels._specialised(4) is built
    assert kernels._specialised(5) is not built
    filename = "<petmine.kernels K=4>"
    source = "".join(linecache.getlines(filename))
    for kernel, weight in ((built.gibbs_sweep, "s3 = s2 + b3 / v3 * a3"),
                           (built.infer_doc, "s3 = s2 + p3 * a3")):
        assert kernel.__code__.co_filename == filename
        text = inspect.getsource(kernel)
        assert text.startswith(f"def {kernel.__name__}(")
        assert weight in text
        assert text in source
    # a fault inside a generated loop is reported at its generated line:
    # with no counts, the first to fault reads the token's own factor
    with pytest.raises(IndexError) as excinfo:
        built.infer_doc([[0.0], [0.0]], [[0.25] * 4], [0], [], [0.0] * 4,
                        0.1, 1.4, 1, 0, 1)
    assert "a_old = counts_a[old]" in "".join(
        traceback.format_tb(excinfo.tb))


def test_kernel_mode_binds_fast_kernels_without_numba():
    assert (kernels.infer_doc is kernels._infer_doc_fast) == (
        not kernels.NUMBA_ENABLED)
    assert _reference(kernels.infer_doc) is not kernels._infer_doc_fast
    doc_ptr, token_word, doc_seed, state = _toy_state()
    assert isinstance(state, kernels._ListState) == (not kernels.NUMBA_ENABLED)
    # the rewrites dispatch to loops built per topic count on first use;
    # importing the module builds none of them
    src = str(pathlib.Path(kernels.__file__).parents[1])
    built = subprocess.run(
        [sys.executable, "-c", "from petmine import kernels; "
         "print(kernels._specialised.cache_info().currsize)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True).stdout
    assert built.strip() == "0"


@pytest.mark.skipif(not kernels.NUMBA_ENABLED, reason="numba is not installed")
def test_compiled_and_fallback_modes_bit_identical():
    # the compiled kernels and their rewrites, on the same inputs, at every
    # K of the parity tests above; the chain runs until most tokens keep
    # their topic, so both of the rewrite's branches are compared
    for n_topics in TOPIC_COUNTS:
        n_docs, vocab = 30, 8 * n_topics + 1
        doc_ptr, token_word, doc_seed = _corpus(n_docs, vocab, 20, 3)
        compiled = kernels.init_assignments(doc_ptr, token_word, doc_seed,
                                            n_topics, vocab, 0.1, 0.01)
        rewrite = _list_state(doc_ptr, token_word, doc_seed,
                              _arrays(compiled), 0.1, 0.01)
        for sweep in range(1, 61):
            before = compiled.assignments().copy()
            for state in (compiled, rewrite):
                kernels.gibbs_sweep(sweep, doc_ptr, token_word, doc_seed,
                                    state)
            for a, b in zip(_arrays(compiled), _arrays(rewrite)):
                assert a.tobytes() == b.tobytes()
        kept = np.count_nonzero(before == compiled.assignments())
        assert kept > doc_ptr[-1] // 2, (n_topics, kept)
        assert n_topics == 1 or kept < doc_ptr[-1], n_topics

        phi = np.random.default_rng(3).dirichlet(np.ones(vocab),
                                                 size=n_topics)
        words = token_word[:40]
        acc_c = np.zeros(n_topics)
        acc_r = np.zeros(n_topics)
        n_c = kernels.infer_doc(words, np.uint64(2**63 + 5), phi, 0.2, 50,
                                10, 4, acc_c)
        n_r = kernels._infer_doc_fast(words, np.uint64(2**63 + 5), phi, 0.2,
                                      50, 10, 4, acc_r)
        assert n_c == n_r == 10
        assert acc_c.tobytes() == acc_r.tobytes()
