"""Hot sampling loops, compiled with numba or run without a compiler.

Mode is chosen once at import time: numba is used when it is importable.
``NUMBA_ENABLED`` reports which mode is active.  The numba source is the
two token loops, ``_sweep_arrays`` and ``infer_doc``, and the ``_mix64``
and ``_draw`` they inline.  Without numba the loops are rewrites over
plain Python ints, floats and lists, generated for the topic count K on
first use.  Where the numba source moves a token's counts out and back
in, a rewrite touches no count when the token redraws its own topic, as
most tokens do once a chain settles; its weights are still the same
floats (see "Kernels without a compiler" below).  Neither mode uses
fast-math, so results are bit-identical.  The numba source of each loop,
run uncompiled (``.py_func`` under numba, itself or ``__wrapped__``
without it, and under ``np.errstate(over="ignore")``, as its uint64
arithmetic wraps), is the reference the rewrites are tested against.

A fit's chain is one state value, which ``init_assignments`` builds and
``gibbs_sweep`` advances a sweep at a time: ``z``, its counts and the
per-fit constants the sweeps read.  With numba it is numpy arrays
(``_ArrayState``), which the compiled loop updates in place; without, it
is the rewrite's own lists (``_ListState``), kept from sweep to sweep.
Either gives its counts as numpy arrays through ``counts()``.  The rest
is numpy in both modes: ``init_assignments``, ``posterior_means`` and
``log_likelihood``.

Randomness is counter-based rather than stateful.  The uniform variate for
token ``n`` of a document in sweep ``s`` is a pure function of
``(doc_seed, s, n)``: the three values are combined with distinct odd
constants and passed through splitmix64 finalizer rounds.  Because no
generator state is threaded between documents, the stream a document sees
does not depend on where it sits in the corpus.
"""

from __future__ import annotations

import functools
import linecache
import types

import numpy as np

try:
    import numba
except ImportError:
    numba = None
NUMBA_ENABLED = numba is not None


def _jit(fn):
    return numba.njit(cache=True)(fn) if NUMBA_ENABLED else fn


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


@_jit
def _mix64(x):
    x = x + _GAMMA
    x = x ^ (x >> _U30)
    x = x * _MIX1
    x = x ^ (x >> _U27)
    x = x * _MIX2
    x = x ^ (x >> _U31)
    return x


@_jit
def _draw(seed, sweep, idx):
    # uniform in [0, 1) from the (seed, sweep, idx) counter triple
    x = seed ^ (np.uint64(sweep) * _C_SWEEP)
    x = _mix64(x)
    x = x ^ (np.uint64(idx) * _C_TOKEN)
    x = _mix64(x)
    return np.float64(x >> _U11) * _INV53


@_jit
def _sweep_arrays(sweep, doc_ptr, token_word, doc_seed, z, n_kw, n_k, n_dk,
                  alpha, beta):
    """One collapsed Gibbs sweep over every token, in document order.

    ``n_kw``, ``n_k`` and ``n_dk`` must be the counts of ``z``, as
    ``init_assignments`` builds them; the sweep keeps them so.
    """
    n_docs = doc_ptr.shape[0] - 1
    n_topics = n_k.shape[0]
    vb = n_kw.shape[1] * beta
    cum = np.empty(n_topics, np.float64)
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
# Numpy in both modes
# ---------------------------------------------------------------------------
#
# The draws depend only on (seed, sweep, token index), not on the sampler
# state, so all of a call's draws are mixed at once over uint64 arrays,
# which wrap just as the scalars do.  The counts are always the counts of
# ``z``: ``_count`` builds them from ``z`` with ``np.bincount`` for
# ``init_assignments``, and each sweep keeps them so.
# ``doc_ptr`` must start at 0 and end at the token count.

_mix64_array = getattr(_mix64, "py_func", _mix64)


def _draws(seed, sweep, idx):
    """``_draw`` over uint64 arrays; the arguments broadcast together."""
    with np.errstate(over="ignore"):
        x = _mix64_array(seed ^ (np.asarray(sweep, np.uint64) * _C_SWEEP))
        x = _mix64_array(x ^ (np.asarray(idx, np.uint64) * _C_TOKEN))
        return (x >> _U11).astype(np.float64) * _INV53


def _token_keys(doc_ptr, doc_seed):
    """Each token's document, that document's seed, and the token's index
    within it: the keys of its draws other than the sweep."""
    lengths = np.diff(doc_ptr)
    doc_of = np.repeat(np.arange(lengths.shape[0]), lengths)
    return doc_of, doc_seed[doc_of], np.arange(doc_ptr[-1]) - doc_ptr[doc_of]


def _count(z, token_word, doc_of, n_docs, n_topics, n_terms):
    """``n_kw``, ``n_k`` and ``n_dk``, the counts of ``z``."""
    k = z.astype(np.int64)
    n_kw = np.bincount(k * n_terms + token_word, minlength=n_topics * n_terms)
    n_dk = np.bincount(doc_of * n_topics + k, minlength=n_docs * n_topics)
    return (n_kw.reshape(n_topics, n_terms), np.bincount(k, minlength=n_topics),
            n_dk.reshape(n_docs, n_topics))


class _ArrayState:
    """A chain as numpy arrays, which the compiled sweep updates in place."""

    def __init__(self, z, n_kw, n_k, n_dk, alpha, beta):
        self.z, self.n_kw, self.n_k, self.n_dk = z, n_kw, n_k, n_dk
        self.alpha, self.beta = alpha, beta

    def assignments(self):
        return self.z

    def counts(self):
        """``(n_kw, n_k, n_dk)``: the state's own arrays, not copies."""
        return self.n_kw, self.n_k, self.n_dk


def init_assignments(doc_ptr, token_word, doc_seed, n_topics, n_terms, alpha,
                     beta):
    """A fit's chain before its first sweep.

    Every token takes a topic from its sweep-0 draw, and the counts are
    built from those topics.  With numba the state is ``_ArrayState``;
    without, ``_ListState``, made from the same arrays.
    """
    doc_of, seeds, idx = _token_keys(doc_ptr, doc_seed)
    z = np.minimum((_draws(seeds, 0, idx) * n_topics).astype(np.int64),
                   n_topics - 1).astype(np.int32)
    counts = _count(z, token_word, doc_of, len(doc_ptr) - 1, n_topics,
                    n_terms)
    if NUMBA_ENABLED:
        return _ArrayState(z, *counts, alpha, beta)
    return _ListState(doc_ptr, token_word, seeds, idx, z, *counts, alpha, beta)


def gibbs_sweep(sweep, doc_ptr, token_word, doc_seed, state):
    """Advance ``state`` by one collapsed Gibbs sweep, in document order.

    ``state`` is the chain that ``init_assignments`` built from the same
    ``doc_ptr``, ``token_word`` and ``doc_seed``.  Arrays go through
    ``_sweep_arrays``; lists through its rewrite, which reads the list
    forms of these inputs that the state holds.
    """
    if isinstance(state, _ListState):
        state.advance(sweep)
    else:
        _sweep_arrays(sweep, doc_ptr, token_word, doc_seed, state.z,
                      state.n_kw, state.n_k, state.n_dk, state.alpha,
                      state.beta)


def posterior_means(doc_ptr, n_kw, n_k, n_dk, alpha, beta):
    """``(theta, phi)`` of the counts, with the Dirichlet priors folded in."""
    lengths = np.diff(doc_ptr)
    theta = (n_dk + alpha) / (lengths + n_k.shape[0] * alpha)[:, None]
    phi = (n_kw + beta) / (n_k + n_kw.shape[1] * beta)[:, None]
    return theta, phi


def log_likelihood(doc_ptr, token_word, theta, phi):
    """Per-token predictive log-likelihood under ``theta`` and ``phi``:
    a fit's posterior means, or held-out rows' inferred weights.

    Each token's probability is its document's theta row times its word's
    phi column.
    """
    lengths = np.diff(doc_ptr)
    doc_of = np.repeat(np.arange(lengths.shape[0]), lengths)
    p = np.einsum("nk,nk->n", theta[doc_of], phi.T[token_word])
    return float(np.log(p).sum())


# ---------------------------------------------------------------------------
# Kernels without a compiler
# ---------------------------------------------------------------------------
#
# Run uncompiled, the token loops above would go through numpy's scalar
# machinery for every element access and every uint64 operation.  The
# rewrites below run in their place when numba is absent, over plain
# Python ints, floats and lists.  A fit's lists are ``_ListState``, made
# once from ``init_assignments``'s arrays and kept between sweeps: ``z``,
# the counts (n_kw as per-word columns, n_dk as per-document rows), and
# beside them the factor lists ``n_kw.T + beta``, ``n_k + V * beta`` and
# ``n_dk + alpha``, which numpy builds with the same IEEE adds as
# Python's int + float, since each count converts to a double exactly.
# The per-fit constants are made once too: the list forms of ``doc_ptr``
# and ``token_word``, and each token's seed and within-document index,
# over which ``_draws`` mixes a sweep's draws.  numpy reads the counts
# only through ``counts()``, which builds arrays from the lists.
#
# Each token saves its own topic's factors (three in the sweep, one in
# inference) and writes in their place the factors of that topic's counts
# less one, ``col[old] - 1 + beta`` and so on: the int-to-float adds the
# numba source makes after its decrements, so the token's weights are the
# same floats.  If the draw returns the token's own topic, the saved
# factors go back and no count and no ``zs`` entry is touched: a saved
# factor is the very float computed from a count that has not changed.
# Otherwise the counts move from the old topic to the new one, the old
# topic's factors already being those of its counts less one, and the new
# topic's are recomputed from its counts.  Either way the lists stay the
# counts of ``z`` and their factors, and nothing is rebuilt between
# sweeps.  Once a chain settles most draws keep their topic, and such a
# token makes none of the six count updates and puts back saved floats in
# place of recomputed factors.
#
# The token loops of ``gibbs_sweep`` and ``infer_doc`` are generated from
# the two templates below, once per topic count K, on the first call with
# that K.  Each token's K weights are unrolled into locals: the factor
# lists are unpacked into ``b0``, ``v0``, ``a0``, ... and the running sums
# are ``s0 = b0 / v0 * a0``, ``s1 = s0 + b1 / v1 * a1``, and so on.  These
# are the floats the numba source accumulates in ``total``, formed by the
# same operations in the same order, so the chains are bit-identical.  The
# topic drawn is the first whose running sum exceeds ``r``, where the
# numba source's scan stops.  The sums never decrease, so a balanced tree
# of ``if r < s<mid>:`` tests finds it in about log2(K) comparisons; the
# last topic's leaf is an ``else``, so an ``r`` at or above every sum draws
# the last topic, as the scan's bound does.  The source for K is
# registered with ``linecache`` under ``<petmine.kernels K=...>``: a
# traceback shows its lines, and ``inspect.getsource`` on
# ``_specialised(K).gibbs_sweep`` or ``.infer_doc`` prints it.

# ``{b}``, ``{v}``, ``{a}`` and ``{p}`` unpack a list into one local per
# topic; ``{weights}`` sets the running sums ``s0`` .. ``s{last}`` and
# ``{search}`` sets ``k`` from them.
_SWEEP_TEMPLATE = """\
def gibbs_sweep(us, ptr, words, zs, cols, nk, rows, cols_b, nk_vb, rows_a,
                alpha, beta, vb):
    # the three factors of each topic's weight, each the float of its count;
    # the token's own topic weighs in with its count less one
    for d, dk in enumerate(rows):
        dk_a = rows_a[d]
        for j in range(ptr[d], ptr[d + 1]):
            w = words[j]
            col = cols[w]
            col_b = cols_b[w]
            old = zs[j]
            b_old = col_b[old]
            v_old = nk_vb[old]
            a_old = dk_a[old]
            col_b[old] = col[old] - 1 + beta
            nk_vb[old] = nk[old] - 1 + vb
            dk_a[old] = dk[old] - 1 + alpha
            {b} = col_b
            {v} = nk_vb
            {a} = dk_a
            {weights}
            r = us[j] * s{last}
            {search}
            if k == old:
                col_b[k] = b_old
                nk_vb[k] = v_old
                dk_a[k] = a_old
            else:
                zs[j] = k
                col[old] -= 1
                nk[old] -= 1
                dk[old] -= 1
                col[k] += 1
                col_b[k] = col[k] + beta
                nk[k] += 1
                nk_vb[k] = nk[k] + vb
                dk[k] += 1
                dk_a[k] = dk[k] + alpha
"""

_INFER_TEMPLATE = """\
def infer_doc(draws, token_phi, zs, counts, total, alpha, denom, n_sweeps,
              burn_in, sample_every):
    counts_a = [c + alpha for c in counts]
    n_samples = 0
    for sweep in range(1, n_sweeps + 1):
        us = draws[sweep]
        for j, phis in enumerate(token_phi):
            old = zs[j]
            a_old = counts_a[old]
            counts_a[old] = counts[old] - 1 + alpha
            {p} = phis
            {a} = counts_a
            {weights}
            r = us[j] * s{last}
            {search}
            if k == old:
                counts_a[k] = a_old
            else:
                zs[j] = k
                counts[old] -= 1
                counts[k] += 1
                counts_a[k] = counts[k] + alpha
        if sweep > burn_in and (sweep - burn_in) % sample_every == 0:
            n_samples += 1
            total = [a + c / denom for a, c in zip(total, counts_a)]
    return total, n_samples
"""


def _search(lo, hi):
    """Lines setting ``k`` to the first topic in lo..hi whose sum exceeds
    ``r``, or to ``hi`` when none before it does."""
    if lo == hi:
        return [f"k = {lo}"]
    mid = (lo + hi) // 2
    return ([f"if r < s{mid}:"] + ["    " + line for line in _search(lo, mid)]
            + ["else:"] + ["    " + line for line in _search(mid + 1, hi)])


def _running_sums(term, n_topics):
    """``s0 = <term 0>``, then ``s<t> = s<t-1> + <term t>``."""
    return [f"s{t} = " + (f"s{t - 1} + " if t else "") + term.format(t=t)
            for t in range(n_topics)]


@functools.lru_cache(maxsize=None)
def _specialised(n_topics):
    """The generated ``gibbs_sweep`` and ``infer_doc`` loops for ``n_topics``.

    Built on the first call for each topic count; later calls return the
    same object.
    """
    def block(lines):
        # the templates' token loops are indented by 12 spaces
        return "\n            ".join(lines)

    fields = {c: "[" + ", ".join(f"{c}{t}" for t in range(n_topics)) + "]"
              for c in "bvap"}
    fields.update(last=n_topics - 1, search=block(_search(0, n_topics - 1)))
    source = "\n\n".join([
        _SWEEP_TEMPLATE.format(
            **fields,
            weights=block(_running_sums("b{t} / v{t} * a{t}", n_topics))),
        _INFER_TEMPLATE.format(
            **fields, weights=block(_running_sums("p{t} * a{t}", n_topics))),
    ])
    filename = f"<petmine.kernels K={n_topics}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True),
                                 filename)
    namespace = {"__name__": __name__}
    exec(compile(source, filename, "exec"), namespace)
    return types.SimpleNamespace(gibbs_sweep=namespace["gibbs_sweep"],
                                 infer_doc=namespace["infer_doc"])


class _ListState:
    """A chain as the generated sweep's own lists, kept from sweep to sweep."""

    def __init__(self, doc_ptr, token_word, seeds, idx, z, n_kw, n_k, n_dk,
                 alpha, beta):
        self.alpha, self.beta, self.vb = alpha, beta, n_kw.shape[1] * beta
        self.seeds, self.idx = seeds, idx
        self.ptr, self.words = doc_ptr.tolist(), token_word.tolist()
        self.zs = z.tolist()
        self.cols, self.nk = n_kw.T.tolist(), n_k.tolist()
        self.rows = n_dk.tolist()
        self.cols_b = (n_kw.T + beta).tolist()
        self.nk_vb = (n_k + self.vb).tolist()
        self.rows_a = (n_dk + alpha).tolist()

    def advance(self, sweep):
        _specialised(len(self.nk)).gibbs_sweep(
            _draws(self.seeds, sweep, self.idx).tolist(), self.ptr,
            self.words, self.zs, self.cols, self.nk, self.rows, self.cols_b,
            self.nk_vb, self.rows_a, self.alpha, self.beta, self.vb)

    def assignments(self):
        return np.array(self.zs, np.int32)

    def counts(self):
        """``(n_kw, n_k, n_dk)`` as new arrays."""
        return (np.array(self.cols, np.int64).T.copy(),
                np.array(self.nk, np.int64), np.array(self.rows, np.int64))


def _infer_doc_fast(words, seed, phi, alpha, n_sweeps, burn_in, sample_every,
                    acc):
    n_topics = phi.shape[0]
    n = words.shape[0]
    draws = _draws(np.uint64(seed), np.arange(n_sweeps + 1)[:, None],
                   np.arange(n)[None, :])
    zs = np.minimum((draws[0] * n_topics).astype(np.int64),
                    n_topics - 1).tolist()
    counts = np.bincount(zs, minlength=n_topics).tolist()
    total, n_samples = _specialised(n_topics).infer_doc(
        draws.tolist(), phi[:, words].T.tolist(), zs, counts, acc.tolist(),
        alpha, n + n_topics * alpha, n_sweeps, burn_in, sample_every)
    acc[:] = total
    return n_samples


if not NUMBA_ENABLED:
    # the rewrite takes its kernel's name; the numba source, run over
    # numpy scalars, stays reachable as ``__wrapped__``
    infer_doc = functools.update_wrapper(_infer_doc_fast, infer_doc)
