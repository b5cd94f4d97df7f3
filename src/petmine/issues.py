"""Issue-level analytics: prevalence, success probability, similarity networks.

Prevalence sums topic mass with two weightings: each petition counting 1,
and each petition counting its UK signature total.  Success probability
treats a petition as belonging to its arg-max topic and asks what fraction
of a topic's petitions cleared a signature threshold.  The two networks
compare issues by cosine similarity, one over theta columns (which
petitions share issues) and one over phi rows (which issues share words).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .errors import ConfigError
from .lda import TopicModel

@dataclass
class IssuePrevalence:
    by_petitions: np.ndarray         # K floats, sums to n_petitions
    by_signatures: np.ndarray        # K floats, sums to total UK signatures
    rank_by_petitions: np.ndarray    # 1 = largest mass
    rank_by_signatures: np.ndarray


def _ranks(mass: np.ndarray) -> np.ndarray:
    order = np.argsort(-mass, kind="stable")
    ranks = np.empty(len(mass), dtype=np.int64)
    ranks[order] = np.arange(1, len(mass) + 1)
    return ranks


def prevalence(model: TopicModel, corpus: Corpus) -> IssuePrevalence:
    """Topic mass summed over petitions, unweighted and signature-weighted."""
    model.check_alignment(corpus)
    by_p = model.theta.sum(axis=0)
    by_s = corpus.uk.astype(np.float64) @ model.theta
    return IssuePrevalence(
        by_petitions=by_p, by_signatures=by_s,
        rank_by_petitions=_ranks(by_p), rank_by_signatures=_ranks(by_s),
    )


def success_probability(model: TopicModel, corpus: Corpus,
                        threshold: int = 10_000
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-topic (raw, smoothed) fraction of assigned petitions reaching
    ``threshold``.

    Assignment is arg-max of theta; the threshold applies to the petition's
    platform-wide signature total.  The raw fraction is hits/n and the
    smoothed one the Beta(1,1) posterior mean (hits+1)/(n+2).  Topics with
    no assigned petitions get NaN in both (undefined, not zero).
    """
    model.check_alignment(corpus)
    if threshold <= 0:
        raise ConfigError("threshold must be positive")
    assigned = model.theta.argmax(axis=1)
    # row t counts topic t's petitions below and at or above the threshold
    counts = np.bincount(2 * assigned + (corpus.total >= threshold),
                         minlength=2 * model.k).reshape(model.k, 2)
    n, hits = counts.sum(axis=1), counts[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = hits / n
    smoothed = np.where(n > 0, (hits + 1) / (n + 2), np.nan)
    return raw, smoothed


def _cosine_gram(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    unit = rows / norms
    g = np.clip(unit @ unit.T, -1.0, 1.0)
    # exact symmetry and unit diagonal, unspoiled by rounding
    g = (g + g.T) / 2.0
    np.fill_diagonal(g, 1.0)
    return g


def co_occurrence_network(model: TopicModel) -> np.ndarray:
    """Issue similarity as cosine between theta columns across petitions.

    A (K, K) symmetric weight matrix with a unit diagonal.
    """
    return _cosine_gram(model.theta.T.copy())


def word_distribution_network(model: TopicModel) -> np.ndarray:
    """Issue similarity as cosine between phi rows, a (K, K) weight matrix."""
    return _cosine_gram(model.phi)


def prune_network(weights: np.ndarray, keep_fraction: float) -> np.ndarray:
    """A copy of ``weights`` with all but the strongest off-diagonal edges zeroed.

    Keeps the ``ceil(keep_fraction * K(K-1)/2)`` largest weights; edges
    tied with the cutoff value are all retained, so the result can hold a
    few more edges than the nominal count but never depends on sort order.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigError("keep_fraction must be in (0, 1]")
    edges = weights[np.triu_indices(weights.shape[0], k=1)]
    if edges.size == 0:
        return weights.copy()
    n_keep = int(np.ceil(keep_fraction * edges.size))
    cutoff = np.sort(edges)[::-1][n_keep - 1]
    pruned = np.where(weights >= cutoff, weights, 0.0)
    np.fill_diagonal(pruned, 1.0)
    return pruned


def edge_list(weights: np.ndarray) -> list[tuple[int, int, float]]:
    """Nonzero upper-triangle edges as (source, target, weight), source < target."""
    source, target = np.triu_indices(weights.shape[0], k=1)
    w = weights[source, target]
    keep = w != 0.0
    return list(zip(source[keep].tolist(), target[keep].tolist(),
                    w[keep].tolist()))
