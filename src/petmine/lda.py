"""Topic model fitting by collapsed Gibbs sampling, plus validation helpers.

``fit`` runs the collapsed sampler over token-level topic assignments and
reports phi (topic-word) and theta (document-topic) as posterior means
over retained post-burn-in states, with the Dirichlet priors folded in so
every entry is strictly positive.

Determinism contract: per-document random streams are keyed by petition id
(not row position), and every draw is a pure function of
``(document seed, sweep, within-document token index)``.  Two fits with
the same inputs and config are bit-identical, and permuting document
order leaves each document's stream unchanged.

Validation mirrors a human check: word-intrusion instances (top-5 words
plus a low-probability intruder, shuffled).
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import kernels
from .errors import (ArchiveFormatError, ConfigError, EmptyCorpusError,
                     NumericalError, ValidationError)
from .util import (config_digest, derive_seed, from_json, load_arrays,
                   save_arrays, split_map)

log = logging.getLogger(__name__)

_LL_EVERY = 10
# infer_theta's chain for one document, phi held fixed: 10 kept samples
_INFER_SWEEPS, _INFER_BURN_IN, _INFER_SAMPLE_EVERY = 200, 100, 10


@dataclass(frozen=True)
class LdaConfig:
    k: int
    alpha: float = 0.1
    beta: float = 0.1
    iterations: int = 1000
    burn_in: int = 200
    sample_every: int = 10
    seed: int = 0

    def __post_init__(self):
        # k=1 is allowed: the degenerate single-topic model is well defined
        # and useful as a baseline
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("alpha and beta must be positive")
        if self.iterations < 1:
            raise ConfigError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.sample_every < 1:
            raise ConfigError("sample_every must be positive")

    def retained_sweeps(self) -> list[int]:
        return [
            s for s in range(self.burn_in + 1, self.iterations + 1)
            if (s - self.burn_in) % self.sample_every == 0
        ]


@dataclass
class TopicModel:
    config: LdaConfig
    phi: np.ndarray                  # (K, V) float64, rows sum to 1
    theta: np.ndarray                # (D, K) float64, rows sum to 1
    log_likelihood_trace: list[float]
    trace_sweeps: list[int]
    terms: tuple[str, ...]
    doc_ids: tuple[str, ...]

    @property
    def k(self) -> int:
        return self.phi.shape[0]

    @property
    def vocab_hash(self) -> str:
        return config_digest(list(self.terms))

    def check_alignment(self, corpus) -> None:
        """Raise unless the theta rows are ``corpus``'s petitions, in order."""
        ids = tuple(corpus.ids)
        if ids != self.doc_ids:
            raise ValidationError(
                "model and corpus are misaligned: document ids differ "
                f"({len(self.doc_ids)} model rows vs {len(ids)} petitions)"
            )


def _expand_tokens(counts: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Unroll a doc-term count matrix into per-token word indices.

    Within each document, tokens appear in vocabulary order, so the
    unrolling does not depend on how the counts were assembled.
    """
    csr = counts.tocsr()
    if not csr.has_canonical_format:
        # tocsr() hands back a CSR input itself: sort and merge a copy, so
        # the caller's matrix is left as it was
        csr = csr.copy()
        csr.sum_duplicates()
    doc_ptr = np.zeros(csr.shape[0] + 1, dtype=np.int64)
    lengths = np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)
    np.cumsum(lengths, out=doc_ptr[1:])
    token_word = np.repeat(
        csr.indices.astype(np.int64), csr.data.astype(np.int64)
    ).astype(np.int32)
    return doc_ptr, token_word


def _doc_seeds(stage_seed: int, doc_ids) -> np.ndarray:
    return np.array(
        [derive_seed(stage_seed, f"doc:{d}") for d in doc_ids], dtype=np.uint64
    )


def fit(dtm, config: LdaConfig) -> TopicModel:
    """Fit a topic model to a document-term matrix."""
    if dtm.counts.nnz == 0:
        raise EmptyCorpusError("document-term matrix has no nonzero entries")
    retained = set(config.retained_sweeps())
    if not retained:
        raise ConfigError(
            "no sweeps would be retained: raise iterations or lower "
            "burn_in/sample_every"
        )

    n_docs, n_terms = dtm.counts.shape
    k = config.k
    log.info("fit: %s K=%d", "numba-compiled kernels," if kernels.NUMBA_ENABLED
             else "pure-Python kernels specialised to", k)
    doc_ptr, token_word = _expand_tokens(dtm.counts)
    doc_seed = _doc_seeds(derive_seed(config.seed, "lda.fit"), dtm.doc_ids)

    alpha, beta = float(config.alpha), float(config.beta)
    state = kernels.init_assignments(doc_ptr, token_word, doc_seed, k,
                                     n_terms, alpha, beta)
    phi_acc = np.zeros((k, n_terms), dtype=np.float64)
    theta_acc = np.zeros((n_docs, k), dtype=np.float64)
    trace: list[float] = []
    trace_sweeps: list[int] = []
    # progress is timed over the wall clock since the previous log line
    mark_sweep, mark_time = 0, time.perf_counter()

    for sweep in range(1, config.iterations + 1):
        logged = sweep == 1 or sweep % _LL_EVERY == 0
        if logged:
            # a copy, as the compiled sweep updates its array in place
            before = state.assignments().copy()
        kernels.gibbs_sweep(sweep, doc_ptr, token_word, doc_seed, state)
        if not logged and sweep not in retained:
            continue
        # numpy reads the counts only at these sweeps, and makes their
        # means once for the likelihood and the retained sample alike
        theta, phi = kernels.posterior_means(doc_ptr, *state.counts(),
                                             alpha, beta)
        if logged:
            ll = kernels.log_likelihood(doc_ptr, token_word, theta, phi)
            if not np.isfinite(ll):
                raise NumericalError(f"log-likelihood became {ll} at sweep {sweep}")
            trace.append(ll)
            trace_sweeps.append(sweep)
            now = time.perf_counter()
            sweeps_per_s = (sweep - mark_sweep) / (now - mark_time)
            kept = np.count_nonzero(before == state.assignments())
            log.info("fit: sweep %d/%d, %.0f tokens/s, %.0f%% kept, ll %.1f, "
                     "ETA %.0f s", sweep, config.iterations,
                     sweeps_per_s * token_word.shape[0],
                     100 * kept / token_word.shape[0], ll,
                     (config.iterations - sweep) / sweeps_per_s)
            mark_sweep, mark_time = sweep, now
        if sweep in retained:
            theta_acc += theta
            phi_acc += phi

    phi = phi_acc / len(retained)
    theta = theta_acc / len(retained)
    log.info(
        "fitted k=%d on %d docs / %d tokens: %d retained samples, final ll %.1f",
        k, n_docs, token_word.shape[0], len(retained), trace[-1],
    )
    return TopicModel(
        config=config, phi=phi, theta=theta,
        log_likelihood_trace=trace, trace_sweeps=trace_sweeps,
        terms=tuple(dtm.vocabulary.terms), doc_ids=tuple(dtm.doc_ids),
    )


def top_words(model: TopicModel, topic: int, n: int) -> list[str]:
    """The ``n`` highest-probability terms of a topic, ties lexicographic."""
    if not 0 <= topic < model.k:
        raise ConfigError(f"topic {topic} out of range [0, {model.k})")
    if n < 1:
        raise ConfigError("n must be positive")
    row = model.phi[topic].tolist()
    order = sorted(range(len(model.terms)), key=lambda i: (-row[i], model.terms[i]))
    return [model.terms[i] for i in order[:n]]


def infer_theta(model: TopicModel, words, seed: int) -> np.ndarray:
    """Topic weights for one new document, phi held fixed.

    ``words`` holds the document's tokens as vocabulary indices.
    """
    words, n_terms = np.asarray(words), model.phi.shape[1]
    outside = words[(words < 0) | (words >= n_terms)]
    if outside.size:
        raise ConfigError(
            f"word index {outside[0]} is outside the model's {n_terms} terms")
    acc = np.zeros(model.k, dtype=np.float64)
    n = kernels.infer_doc(
        words.astype(np.int32), np.uint64(seed),
        np.ascontiguousarray(model.phi), float(model.config.alpha),
        _INFER_SWEEPS, _INFER_BURN_IN, _INFER_SAMPLE_EVERY, acc,
    )
    return acc / n


def held_out_log_likelihood(model: TopicModel, counts) -> tuple[float, float]:
    """(total, per-token) predictive log-likelihood of held-out rows.

    Topic weights for each row are inferred with phi fixed, from a seed
    derived from the model's seed and keyed by the row's position; rows
    with no tokens contribute nothing.
    """
    if counts.shape[1] != model.phi.shape[1]:
        raise ConfigError(f"held-out rows have {counts.shape[1]} terms, "
                          f"model has {model.phi.shape[1]}")
    seed = derive_seed(model.config.seed, "lda.heldout")
    doc_ptr, token_word = _expand_tokens(counts)
    if doc_ptr[-1] == 0:
        raise EmptyCorpusError("held-out rows contain no tokens")
    # a row without tokens keeps zero weights, which no token reads
    theta = np.zeros((counts.shape[0], model.k), dtype=np.float64)
    for d in np.flatnonzero(np.diff(doc_ptr)).tolist():
        theta[d] = infer_theta(model, token_word[doc_ptr[d]:doc_ptr[d + 1]],
                               derive_seed(seed, f"row:{d}"))
    total = kernels.log_likelihood(doc_ptr, token_word, theta, model.phi)
    return total, total / int(doc_ptr[-1])


# the least estimated cost (see grid_rows) of a chunk of grid settings
# that repays a process of its own: about 12 ms of sampling
_MIN_GRID_COST = 150_000


def grid_rows(train_dtm, hold_counts, configs: list[LdaConfig]) -> list[list]:
    """Per setting, in order: k, alpha, beta, the final log-likelihood of
    its fit to ``train_dtm`` and its held-out total and per-token scores.

    The settings run over ``split_map``, weighted by estimated cost: the
    token sweeps of the fit, and of the held-out score at half a fit's
    cost each, times K plus 10 for the work per token that K does not grow.
    """
    sweeps = (int(train_dtm.counts.sum()) * configs[0].iterations
              + int(hold_counts.sum()) * _INFER_SWEEPS // 2)
    if not kernels.NUMBA_ENABLED:
        # generate each K's kernels here, once, for every chunk to inherit
        for k in {c.k for c in configs}:
            kernels._specialised(k)

    def row(config: LdaConfig) -> list:
        model = fit(train_dtm, config)
        return [config.k, config.alpha, config.beta,
                model.log_likelihood_trace[-1],
                *held_out_log_likelihood(model, hold_counts)]

    chunks = split_map(lambda lo, hi: [row(c) for c in configs[lo:hi]],
                       [(c.k + 10) * sweeps for c in configs],
                       _MIN_GRID_COST, "grid settings")
    return [row for chunk in chunks for row in chunk]


# ---------------------------------------------------------------------------
# Word intrusion
# ---------------------------------------------------------------------------

# an instance shows a topic's top five words and an intruder from outside
# them, which must lie at or below the topic's median
MIN_TERMS = 7


@dataclass(frozen=True)
class IntrusionInstance:
    topic_index: int
    shown_words: tuple[str, ...]     # 6 words in shuffled order
    intruder_position: int          # index into shown_words


def make_intrusion_instances(model: TopicModel, seed: int) -> list[IntrusionInstance]:
    """One intrusion instance per topic.

    The intruder is drawn uniformly from terms whose probability in the
    topic is at or below the topic's median (excluding the top-5 words
    themselves, so the six shown words are always distinct).
    """
    if len(model.terms) < MIN_TERMS:
        raise ConfigError(f"need a vocabulary of at least {MIN_TERMS} terms")
    instances = []
    for t in range(model.k):
        top5 = top_words(model, t, 5)
        row = model.phi[t]
        low = np.flatnonzero(row <= np.median(row)).tolist()
        pool = [model.terms[i] for i in low if model.terms[i] not in top5]
        if not pool:
            raise NumericalError(f"topic {t}: no low-probability pool")
        rng = np.random.Generator(
            np.random.PCG64(derive_seed(seed, f"intrusion:{t}"))
        )
        intruder = pool[int(rng.integers(len(pool)))]
        shown = top5 + [intruder]
        order = rng.permutation(6)
        shuffled = tuple(shown[i] for i in order)
        instances.append(IntrusionInstance(
            topic_index=t,
            shown_words=shuffled,
            intruder_position=int(np.nonzero(order == 5)[0][0]),
        ))
    return instances


@dataclass
class IntrusionScore:
    per_topic: dict[int, float]
    overall: float
    flagged: tuple[int, ...]         # topics scoring below the 0.75 bar

    THRESHOLD = 0.75


def score_intrusion(instances: list[IntrusionInstance],
                    answers: list[int]) -> IntrusionScore:
    """Accuracy of intruder picks, per topic and overall.

    ``answers[i]`` is the position a subject chose for ``instances[i]``;
    repeat an instance once per subject to aggregate several raters.
    """
    if len(instances) != len(answers):
        raise ConfigError(
            f"{len(answers)} answers for {len(instances)} instances"
        )
    if not instances:
        raise ConfigError("no instances to score")
    hits: dict[int, int] = {}
    counts: dict[int, int] = {}
    correct = 0
    for inst, ans in zip(instances, answers):
        t = inst.topic_index
        counts[t] = counts.get(t, 0) + 1
        ok = int(ans == inst.intruder_position)
        hits[t] = hits.get(t, 0) + ok
        correct += ok
    per_topic = {t: hits[t] / counts[t] for t in sorted(counts)}
    flagged = tuple(t for t, acc in per_topic.items() if acc < IntrusionScore.THRESHOLD)
    return IntrusionScore(
        per_topic=per_topic,
        overall=correct / len(answers),
        flagged=flagged,
    )


# ---------------------------------------------------------------------------
# Model snapshot
# ---------------------------------------------------------------------------

_MODEL_FORMAT = "petmine-lda"
_MODEL_VERSION = 1


def save_model(model: TopicModel, path: str) -> None:
    save_arrays(
        path,
        {
            "phi": model.phi,
            "theta": model.theta,
            "trace": np.asarray(model.log_likelihood_trace, dtype=np.float64),
            "trace_sweeps": np.asarray(model.trace_sweeps, dtype=np.int64),
        },
        meta={
            "format": _MODEL_FORMAT,
            "version": _MODEL_VERSION,
            "config": dataclasses.asdict(model.config),
            "vocab_hash": model.vocab_hash,
            "terms": list(model.terms),
            "doc_ids": list(model.doc_ids),
        },
    )


def load_model(path: str) -> TopicModel:
    """Read a snapshot written by :func:`save_model`.

    A field of the wrong type or shape, or out of step with another, is
    an ArchiveFormatError naming the file and the field.
    """
    arrays, meta = load_arrays(path, _MODEL_FORMAT, _MODEL_VERSION)
    config = meta.field("config", lambda values: from_json(LdaConfig, values))
    terms = meta.strings("terms")
    doc_ids = meta.strings("doc_ids")
    trace = arrays.array("trace", "float", (None,))
    sweeps = arrays.array("trace_sweeps", "integer", trace.shape)
    model = TopicModel(
        config=config,
        phi=arrays.array("phi", "float", (config.k, len(terms))),
        theta=arrays.array("theta", "float", (len(doc_ids), config.k)),
        log_likelihood_trace=trace.tolist(), trace_sweeps=sweeps.tolist(),
        terms=terms, doc_ids=doc_ids,
    )
    if model.vocab_hash != meta["vocab_hash"]:
        raise ArchiveFormatError(f"{path}: vocabulary hash mismatch")
    return model
