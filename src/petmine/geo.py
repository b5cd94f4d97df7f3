"""Constituency analytics: issue shares, Z-scores, scaling law, clustering.

Each constituency's signature mass is spread over issues through the theta
rows of the petitions it signed: S_ci = sum_d sig(d,c) * theta[d][i].  The
issue share is S_ci / S_c, standardized per issue into a Z-score using the
cross-constituency mean and sample (n-1) standard deviation.  Clustering
runs Partition Around Medoids over the Z-score vectors: an exact search
when there are at most ``_EXACT_BUDGET`` medoid subsets, else greedy BUILD
seeding and best-improvement SWAP steps until no single medoid/non-medoid
exchange lowers the total cost (1-swap-optimal by construction).  Cost
ties break toward the lowest row.  ``silhouette_sweep`` builds one
distance matrix and solves each k once, so the report takes its ``pam_k``
clustering from the sweep that scores every k.  Greedy BUILD is a prefix
process (its first k picks toward a larger k are its picks at k), so the
sweep runs it once, to its largest SWAP-path k, and seeds each such k
with the first k picks.

The profiles are one column table, :class:`Profiles`, with a row per
constituency in metadata order: the corpus's first signature columns,
which the ``Corpus`` constructor checks are the metadata codes in order.
The clustering and scaling functions take its arrays and return new
values; none of them writes into its inputs.
Constituencies with zero signatures have NaN share and Z-score rows; they
are left out of the standardization, and ``Profiles.clustered`` leaves
them out of clustering.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .corpus import ConstituencyMeta, Corpus
from .errors import ConfigError, ConvergenceError, ValidationError
from .lda import TopicModel

log = logging.getLogger(__name__)

_METRICS = {"euclidean": "euclidean", "manhattan": "cityblock"}
# up to this many candidate medoid subsets, PAM enumerates them all
_EXACT_BUDGET = 20_000


@dataclass(frozen=True)
class Profiles:
    """Per-constituency columns, one row per ``meta`` entry, in its order."""

    meta: tuple[ConstituencyMeta, ...]
    totals: np.ndarray               # int64 signatures
    share: np.ndarray                # (C, K), NaN rows where no signatures
    z: np.ndarray                    # (C, K), NaN rows where no signatures

    @property
    def electorate(self) -> np.ndarray:
        return np.array([m.electorate for m in self.meta], dtype=np.int64)

    @property
    def per_elector(self) -> np.ndarray:
        return self.totals / self.electorate

    @property
    def clustered(self) -> np.ndarray:
        """Rows whose Z-scores are all finite: the ones PAM clusters."""
        return np.isfinite(self.z).all(axis=1)


def profile_constituencies(model: TopicModel, corpus: Corpus) -> Profiles:
    """Issue shares and Z-scores for every constituency in the corpus metadata.

    Signature mass under the UNKNOWN column, where ingest folds the codes
    the metadata does not list, is skipped; it still counts toward
    corpus-level totals elsewhere, just not toward any profile here.
    """
    model.check_alignment(corpus)
    meta = corpus.constituencies
    if not meta:
        raise ValidationError("no constituency metadata supplied")
    # metadata codes x docs, each row's docs ascending, so the product adds
    # n * theta[d] per constituency in the same order as a per-pair loop
    by_meta = corpus.signatures[:, :len(meta)].T.tocsr()
    mass = by_meta @ model.theta
    totals = np.asarray(by_meta.sum(axis=1), dtype=np.int64).ravel()

    share = np.full_like(mass, np.nan)
    included = totals > 0
    share[included] = mass[included] / mass[included].sum(axis=1, keepdims=True)
    if included.sum() < 2:
        raise ValidationError("need at least 2 constituencies with signatures")
    mu = share[included].mean(axis=0)
    sigma = share[included].std(axis=0, ddof=1)
    z = np.full_like(share, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        z[included] = (share[included] - mu) / sigma
    if np.any(sigma == 0):
        log.warning("issue(s) with zero share variance: Z-scores undefined there")

    return Profiles(meta=meta, totals=totals, share=share, z=z)


# ---------------------------------------------------------------------------
# Log-log scaling regression
# ---------------------------------------------------------------------------

@dataclass
class ScalingFit:
    exponent: float
    intercept: float
    r_squared: float
    mode: str                        # "raw" or "binned"
    n: int


def scaling_fit(electorate: np.ndarray, totals: np.ndarray, mode: str = "raw",
                n_bins: int = 10) -> ScalingFit:
    """OLS of ln(signatures) on ln(electorate), over constituencies that signed.

    ``electorate`` and ``totals`` are aligned per constituency.  ``binned``
    mode sorts constituencies by electorate, splits them into ``n_bins``
    equal-count groups, and regresses on the logs of each group's
    arithmetic-mean electorate and signatures.
    """
    if mode not in ("raw", "binned"):
        raise ConfigError(f"unknown scaling mode {mode!r}")
    totals = np.asarray(totals)
    signed = totals > 0
    e, s = np.asarray(electorate)[signed], totals[signed]
    if len(e) < 3:
        raise ValidationError("need at least 3 constituencies with signatures")
    order = np.lexsort((s, e))      # by electorate, then signatures
    e = e[order].astype(np.float64)
    s = s[order].astype(np.float64)
    if mode == "binned":
        if len(e) < n_bins:
            raise ValidationError(f"{len(e)} points cannot fill {n_bins} bins")
        e = np.array([c.mean() for c in np.array_split(e, n_bins)])
        s = np.array([c.mean() for c in np.array_split(s, n_bins)])
    x = np.log(e)
    y = np.log(s)
    vx = x.var()
    # var of identical logs can land at ~1e-31 instead of 0, so test the
    # inputs, not the variance
    if np.all(e == e[0]) or vx == 0.0:
        raise ValidationError("electorates are all equal: regression undefined")
    slope = float(np.cov(x, y, bias=True)[0, 1] / vx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float((resid ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(exponent=slope, intercept=intercept,
                      r_squared=r2, mode=mode, n=len(x))


# ---------------------------------------------------------------------------
# Partition Around Medoids
# ---------------------------------------------------------------------------

@dataclass
class ClusterResult:
    labels: np.ndarray               # cluster id per input row
    medoid_indices: tuple[int, ...]  # input rows of the medoids, ascending
    total_cost: float


def _distances(z: np.ndarray, metric: str) -> np.ndarray:
    if metric not in _METRICS:
        raise ConfigError(f"metric must be one of {sorted(_METRICS)}")
    return cdist(z, z, metric=_METRICS[metric])


def _pam_build(dist: np.ndarray, k: int) -> list[int]:
    """Greedy BUILD's first ``k`` medoids, in the order picked.

    Each pick depends only on the ones before it, so the first k picks
    toward any larger k are the picks at k.
    """
    medoids = [int(np.argmin(dist.sum(axis=0)))]
    nearest = dist[:, medoids[0]].copy()
    while len(medoids) < k:
        gain = np.maximum(nearest[:, None] - dist, 0.0).sum(axis=0)
        gain[medoids] = -1.0
        j = int(np.argmax(gain))    # ties resolve to the lowest index
        medoids.append(j)
        np.minimum(nearest, dist[:, j], out=nearest)
    return medoids


def _first_improvement(scores: np.ndarray, best: float):
    """Position of the last record in a running scan that takes each score
    below ``best`` by more than 1e-12 as the new ``best``, and the final
    ``best``; the position is None when no score is a record."""
    pos = None
    start = 0
    while True:
        below = np.flatnonzero(scores[start:] < best - 1e-12)
        if not below.size:
            return pos, best
        pos = start + int(below[0])
        best = float(scores[pos])
        start = pos + 1


def _pam_swap(dist: np.ndarray, medoids: list[int],
              max_iter: int = 500) -> tuple[list[int], float]:
    n = dist.shape[0]
    # row h is column h of dist, so each candidate's costs are one
    # contiguous row and a row sum is the same pairwise sum as a 1-D sum
    dist_t = np.ascontiguousarray(dist.T)
    block = np.empty_like(dist_t)
    for _ in range(max_iter):
        dm = dist[:, medoids]
        order = np.argsort(dm, axis=1, kind="stable")
        rows = np.arange(n)
        near_pos = order[:, 0]
        d1 = dm[rows, near_pos]
        if len(medoids) > 1:
            d2 = dm[rows, order[:, 1]]
        else:
            d2 = np.full(n, np.inf)
        cost = float(d1.sum())
        in_medoids = np.zeros(n, dtype=bool)
        in_medoids[medoids] = True
        candidates = np.nonzero(~in_medoids)[0]
        best_delta = 0.0
        best = None
        # the full scan doubles as the 1-swap-optimality check: the loop
        # only ends on a pass that found no improving swap
        for i in range(len(medoids)):
            base = np.where(near_pos == i, d2, d1)
            np.minimum(base, dist_t, out=block)
            pos, best_delta = _first_improvement(
                block.sum(axis=1)[candidates] - cost, best_delta)
            if pos is not None:
                best = (i, int(candidates[pos]))
        if best is None:
            return medoids, cost
        medoids[best[0]] = best[1]
        medoids = sorted(medoids)
    raise ConvergenceError(f"PAM did not settle within {max_iter} swap passes")


def _pam_exact(dist: np.ndarray, k: int) -> tuple[list[int], float]:
    # exhaustive minimization of the medoid objective; first-found wins
    # ties.  Subsets are scanned in lexicographic order: for each
    # (k-1)-prefix, every larger last index is scored in one row sum over
    # a contiguous block, so the working set stays O(n^2)
    n = dist.shape[0]
    dist_t = np.ascontiguousarray(dist.T)
    best_cost = np.inf
    best: tuple[int, ...] | None = None
    for prefix in itertools.combinations(range(n), k - 1):
        start = prefix[-1] + 1 if prefix else 0
        if start == n:
            continue
        near = (dist[:, list(prefix)].min(axis=1) if prefix
                else np.full(n, np.inf))
        costs = np.minimum(near, dist_t[start:]).sum(axis=1)
        pos, best_cost = _first_improvement(costs, best_cost)
        if pos is not None:
            best = prefix + (start + pos,)
    assert best is not None
    return list(best), best_cost


def _exact(n: int, k: int) -> bool:
    """Whether PAM enumerates every k-subset of n rows."""
    return math.comb(n, k) <= _EXACT_BUDGET


def _cluster(dist: np.ndarray, k: int,
             picks: list[int] | None = None) -> ClusterResult:
    # ``picks``: greedy BUILD's picks to at least k, when already made
    if not 0 < k < len(dist):
        raise ConfigError(f"k must satisfy 0 < k < {len(dist)}, got {k}")
    if _exact(len(dist), k):
        medoids, cost = _pam_exact(dist, k)
    else:
        if picks is None:
            picks = _pam_build(dist, k)
        medoids, cost = _pam_swap(dist, sorted(picks[:k]))
    labels = np.argmin(dist[:, medoids], axis=1)
    return ClusterResult(labels=labels, medoid_indices=tuple(medoids),
                         total_cost=cost)


def pam_cluster(z: np.ndarray, k: int,
                metric: str = "euclidean") -> ClusterResult:
    """Cluster the rows of ``z`` (finite Z-score vectors) by k-medoids;
    a k outside ``0 < k < len(z)`` is a ``ConfigError``."""
    return _cluster(_distances(z, metric), k)


def cluster_issue_profile(share: np.ndarray, labels: np.ndarray,
                          k: int) -> np.ndarray:
    """Mean issue share per cluster, a (k, K) matrix.

    ``share`` rows align with ``labels``; a cluster with no rows gets NaN.
    """
    out = np.full((k, share.shape[1]), np.nan)
    for cl in range(k):
        rows = share[labels == cl]
        if len(rows):
            out[cl] = np.mean(rows, axis=0)
    return out


def silhouette_score(dist: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over all points (singleton clusters score 0).

    Each point's distance sum per cluster is a row sum over that cluster's
    columns, not a BLAS product, whose last bits would depend on the
    number of threads; the point itself is taken out of its own cluster's
    sum.
    """
    _, own, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if sizes.shape[0] < 2:
        raise ValidationError("silhouette needs at least 2 clusters")
    rows = np.arange(dist.shape[0])
    sums = np.stack([dist[:, own == c].sum(axis=1)
                     for c in range(sizes.shape[0])], axis=1)
    mates = sizes[own] - 1
    means = sums / sizes
    with np.errstate(invalid="ignore", divide="ignore"):
        a = (sums[rows, own] - dist[rows, rows]) / mates
    means[rows, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(dist.shape[0])
    scored = (mates > 0) & (denom > 0)
    scores[scored] = (b[scored] - a[scored]) / denom[scored]
    return float(scores.mean())


def silhouette_sweep(z: np.ndarray, k_values, metric: str = "euclidean"
                     ) -> dict[int, tuple[ClusterResult, float | None]]:
    """Each k's PAM clustering of the rows of ``z``, as ``pam_cluster``
    returns it, and its mean silhouette (None at k = 1, where it is
    undefined), all over one distance matrix."""
    dist = _distances(z, metric)
    n = len(dist)
    k_values = list(k_values)
    # one greedy BUILD, to the largest k that seeds a SWAP search
    swap_ks = [k for k in k_values if 0 < k < n and not _exact(n, k)]
    picks = _pam_build(dist, max(swap_ks)) if swap_ks else None
    out = {}
    for k in k_values:
        result = _cluster(dist, k, picks)
        out[int(k)] = (result, silhouette_score(dist, result.labels)
                       if k > 1 else None)
    return out
