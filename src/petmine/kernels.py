"""Hot sampling loops, compiled with numba or run without a compiler.

Mode is chosen once at import time: numba is used when it is importable.
``NUMBA_ENABLED`` reports which mode is active.
Without numba, ``init_assignments``, ``gibbs_sweep`` and ``infer_doc`` are
rewrites over plain Python ints, floats and lists (see "Kernels without a
compiler" below), and ``draw_uniform`` runs the numba source over numpy
scalars.  Neither mode uses fast-math, so results are bit-identical.  The
numba source of each rewritten kernel, run uncompiled (``.py_func`` under
numba, ``__wrapped__`` without it), is the reference the rewrites are
tested against.  ``log_likelihood`` is plain numpy in both modes.

Randomness is counter-based rather than stateful.  The uniform variate for
token ``n`` of a document in sweep ``s`` is a pure function of
``(doc_seed, s, n)``: the three values are combined with distinct odd
constants and passed through splitmix64 finalizer rounds.  Because no
generator state is threaded between documents, the stream a document sees
does not depend on where it sits in the corpus.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from itertools import accumulate
from operator import mul, truediv

import numpy as np

try:
    import numba
except ImportError:
    numba = None
NUMBA_ENABLED = numba is not None

if NUMBA_ENABLED:
    def _jit(fn):
        return numba.njit(cache=True)(fn)

    _inline = _jit
else:
    def _jit(fn):
        # uint64 wraparound is intended; silence numpy's scalar overflow
        # warnings for the duration of the kernel call
        @functools.wraps(fn)
        def wrapper(*args):
            with np.errstate(over="ignore"):
                return fn(*args)

        return wrapper

    def _inline(fn):
        return fn


_U11 = np.uint64(11)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_C_SWEEP = np.uint64(0xD1342543DE82EF95)
_C_TOKEN = np.uint64(0xC2B2AE3D27D4EB4F)
_INV53 = np.float64(1.0 / 9007199254740992.0)  # 2**-53


@_inline
def _mix64(x):
    x = x + _GAMMA
    x = x ^ (x >> _U30)
    x = x * _MIX1
    x = x ^ (x >> _U27)
    x = x * _MIX2
    x = x ^ (x >> _U31)
    return x


@_inline
def _draw(seed, sweep, idx):
    # uniform in [0, 1) from the (seed, sweep, idx) counter triple
    x = seed ^ (np.uint64(sweep) * _C_SWEEP)
    x = _mix64(x)
    x = x ^ (np.uint64(idx) * _C_TOKEN)
    x = _mix64(x)
    return np.float64(x >> _U11) * _INV53


@_jit
def draw_uniform(seed, sweep, idx):
    """The raw counter-based uniform draw, exposed for stream verification."""
    return _draw(seed, sweep, idx)


@_jit
def init_assignments(doc_ptr, token_word, doc_seed, n_topics, z, n_kw, n_k, n_dk):
    """Assign every token a topic from its sweep-0 draw and build counts."""
    n_docs = doc_ptr.shape[0] - 1
    for d in range(n_docs):
        s = doc_seed[d]
        start = doc_ptr[d]
        for j in range(start, doc_ptr[d + 1]):
            u = _draw(s, 0, j - start)
            k = int(u * n_topics)
            if k >= n_topics:
                k = n_topics - 1
            z[j] = k
            n_kw[k, token_word[j]] += 1
            n_k[k] += 1
            n_dk[d, k] += 1


@_jit
def gibbs_sweep(sweep, doc_ptr, token_word, doc_seed, z, n_kw, n_k, n_dk,
                alpha, beta, cum):
    """One collapsed Gibbs sweep over every token, in document order."""
    n_docs = doc_ptr.shape[0] - 1
    n_topics = n_k.shape[0]
    vb = n_kw.shape[1] * beta
    for d in range(n_docs):
        s = doc_seed[d]
        start = doc_ptr[d]
        for j in range(start, doc_ptr[d + 1]):
            w = token_word[j]
            k = z[j]
            n_kw[k, w] -= 1
            n_k[k] -= 1
            n_dk[d, k] -= 1
            total = 0.0
            for t in range(n_topics):
                total += (n_kw[t, w] + beta) / (n_k[t] + vb) * (n_dk[d, t] + alpha)
                cum[t] = total
            r = _draw(s, sweep, j - start) * total
            k = 0
            while k < n_topics - 1 and cum[k] <= r:
                k += 1
            z[j] = k
            n_kw[k, w] += 1
            n_k[k] += 1
            n_dk[d, k] += 1


def log_likelihood(doc_ptr, token_word, n_kw, n_k, n_dk, alpha, beta):
    """Per-token predictive log-likelihood under current posterior means.

    Plain numpy in both modes: each token's probability is its document's
    theta row times its word's phi column.
    """
    lengths = np.diff(doc_ptr)
    theta = (n_dk + alpha) / (lengths + n_k.shape[0] * alpha)[:, None]
    phi = (n_kw + beta) / (n_k + n_kw.shape[1] * beta)[:, None]
    doc_of = np.repeat(np.arange(lengths.shape[0]), lengths)
    p = np.einsum("nk,nk->n", theta[doc_of], phi.T[token_word])
    return float(np.log(p).sum())


@_jit
def infer_doc(words, seed, phi, alpha, n_sweeps, burn_in, sample_every, acc):
    """Sample topic weights for one document against a fixed topic-word table.

    ``acc`` accumulates the per-sample posterior-mean weight vectors;
    returns the number of samples taken so the caller can normalize.
    """
    n_topics = phi.shape[0]
    n = words.shape[0]
    counts = np.zeros(n_topics, np.int64)
    z = np.empty(n, np.int32)
    cum = np.empty(n_topics, np.float64)
    for j in range(n):
        u = _draw(seed, 0, j)
        k = int(u * n_topics)
        if k >= n_topics:
            k = n_topics - 1
        z[j] = k
        counts[k] += 1
    n_samples = 0
    denom = n + n_topics * alpha
    for sweep in range(1, n_sweeps + 1):
        for j in range(n):
            w = words[j]
            k = z[j]
            counts[k] -= 1
            total = 0.0
            for t in range(n_topics):
                total += phi[t, w] * (counts[t] + alpha)
                cum[t] = total
            r = _draw(seed, sweep, j) * total
            k = 0
            while k < n_topics - 1 and cum[k] <= r:
                k += 1
            z[j] = k
            counts[k] += 1
        if sweep > burn_in and (sweep - burn_in) % sample_every == 0:
            n_samples += 1
            for t in range(n_topics):
                acc[t] += (counts[t] + alpha) / denom
    return n_samples


# ---------------------------------------------------------------------------
# Kernels without a compiler
# ---------------------------------------------------------------------------
#
# Run uncompiled, the kernels above would go through numpy's scalar
# machinery for every element access and every uint64 operation.  The
# rewrites below are bound in their place when numba is absent.  The draws
# depend only on (seed, sweep, token index), not on the sampler state, so
# each call mixes all of them at once over uint64 arrays, which wrap just
# as the scalars do; that is all ``init_assignments`` needs.  The sampling
# loops then run over plain Python ints, floats and lists: counts are
# copied out (n_kw as per-word columns) and written back into the caller's
# arrays before returning.  Every float is formed by the same operations,
# in the same order, as in the numba source, so the chains are
# bit-identical.  The search over the running sums is a bisection: the
# sums never decrease, so the first one above ``r`` is where the linear
# scan stops too.  ``doc_ptr`` must start at 0 and end at the token count.

_mix64_array = getattr(_mix64, "py_func", _mix64)


def _draws(seed, sweep, idx):
    """``_draw`` over uint64 arrays; the arguments broadcast together."""
    with np.errstate(over="ignore"):
        x = _mix64_array(seed ^ (np.asarray(sweep, np.uint64) * _C_SWEEP))
        x = _mix64_array(x ^ (np.asarray(idx, np.uint64) * _C_TOKEN))
        return (x >> _U11).astype(np.float64) * _INV53


def _token_draws(doc_ptr, doc_seed, sweep):
    """Every token's draw in ``sweep``, and the document each token is in."""
    lengths = np.diff(doc_ptr)
    doc_of = np.repeat(np.arange(lengths.shape[0]), lengths)
    idx = np.arange(doc_ptr[-1]) - doc_ptr[doc_of]
    return _draws(doc_seed[doc_of], sweep, idx), doc_of


def _init_assignments_fast(doc_ptr, token_word, doc_seed, n_topics,
                           z, n_kw, n_k, n_dk):
    u, doc_of = _token_draws(doc_ptr, doc_seed, 0)
    k = np.minimum((u * n_topics).astype(np.int64), n_topics - 1)
    z[:] = k
    np.add.at(n_kw, (k, token_word), 1)
    np.add.at(n_k, k, 1)
    np.add.at(n_dk, (doc_of, k), 1)


def _gibbs_sweep_fast(sweep, doc_ptr, token_word, doc_seed, z, n_kw, n_k,
                      n_dk, alpha, beta, cum):
    # ``cum`` is the compiled kernel's scratch buffer; unused here
    us = _token_draws(doc_ptr, doc_seed, sweep)[0].tolist()
    ptr = doc_ptr.tolist()
    words = token_word.tolist()
    zs = z.tolist()
    cols = n_kw.T.tolist()
    nk = n_k.tolist()
    rows = n_dk.tolist()
    vb = n_kw.shape[1] * beta
    last = n_k.shape[0] - 1
    # the three factors of each topic's weight, each recomputed from its
    # count whenever the count changes
    cols_b = [[c + beta for c in col] for col in cols]
    nk_vb = [c + vb for c in nk]
    for d, dk in enumerate(rows):
        dk_a = [c + alpha for c in dk]
        for j in range(ptr[d], ptr[d + 1]):
            w = words[j]
            col = cols[w]
            col_b = cols_b[w]
            k = zs[j]
            col[k] -= 1
            col_b[k] = col[k] + beta
            nk[k] -= 1
            nk_vb[k] = nk[k] + vb
            dk[k] -= 1
            dk_a[k] = dk[k] + alpha
            sums = list(accumulate(map(mul, map(truediv, col_b, nk_vb), dk_a)))
            k = bisect_right(sums, us[j] * sums[-1])
            if k > last:
                k = last
            zs[j] = k
            col[k] += 1
            col_b[k] = col[k] + beta
            nk[k] += 1
            nk_vb[k] = nk[k] + vb
            dk[k] += 1
            dk_a[k] = dk[k] + alpha
    z[:] = zs
    n_kw[:] = np.array(cols, dtype=n_kw.dtype).reshape(n_kw.shape[::-1]).T
    n_k[:] = nk
    n_dk[:] = np.array(rows, dtype=n_dk.dtype).reshape(n_dk.shape)


def _infer_doc_fast(words, seed, phi, alpha, n_sweeps, burn_in, sample_every,
                    acc):
    n_topics = phi.shape[0]
    n = words.shape[0]
    last = n_topics - 1
    draws = _draws(np.uint64(seed), np.arange(n_sweeps + 1)[:, None],
                   np.arange(n)[None, :])
    zs = np.minimum((draws[0] * n_topics).astype(np.int64), last).tolist()
    counts = np.bincount(zs, minlength=n_topics).tolist()
    counts_a = [c + alpha for c in counts]
    token_phi = phi[:, words].T.tolist()
    total = acc.tolist()
    n_samples = 0
    denom = n + n_topics * alpha
    for sweep in range(1, n_sweeps + 1):
        us = draws[sweep].tolist()
        for j in range(n):
            k = zs[j]
            counts[k] -= 1
            counts_a[k] = counts[k] + alpha
            sums = list(accumulate(map(mul, token_phi[j], counts_a)))
            k = bisect_right(sums, us[j] * sums[-1])
            if k > last:
                k = last
            zs[j] = k
            counts[k] += 1
            counts_a[k] = counts[k] + alpha
        if sweep > burn_in and (sweep - burn_in) % sample_every == 0:
            n_samples += 1
            total = [a + c / denom for a, c in zip(total, counts_a)]
    acc[:] = total
    return n_samples


if not NUMBA_ENABLED:
    # each rewrite takes its kernel's name; the numba source, run over
    # numpy scalars, stays reachable as ``__wrapped__``
    init_assignments = functools.update_wrapper(_init_assignments_fast,
                                                init_assignments)
    gibbs_sweep = functools.update_wrapper(_gibbs_sweep_fast, gibbs_sweep)
    infer_doc = functools.update_wrapper(_infer_doc_fast, infer_doc)
