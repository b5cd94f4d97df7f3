"""Daily issue-signature series, smoothing, and entropy-based volatility.

Signatures are attributed to a petition's creation date (the platform
exposes no per-signature timestamps), spread over issues by the petition's
theta row.  The day-level concentration of attention is summarized by
normalized Shannon entropy over a trailing window, and days whose entropy
moves more than three standard deviations from the mean daily percentage
change are flagged volatile.

Missing-data convention: a window containing no signature mass has
undefined entropy (NaN), not zero, since zero entropy means concentration
on one issue.  Percentage changes touching an undefined or zero entropy
are themselves undefined and are excluded from the volatility statistics.

The ``Corpus`` constructor checks that every creation day lies in the
window, so the series are built without checking it again.

Window sums are whole-array steps: the days x K matrix is padded with zero
rows and the window's shifted slices are added in row order.  They equal
the per-day sums ``values[a:b].sum(axis=0)`` bit for bit, because NumPy
adds the rows of an axis-0 sum in order too, and the padding only adds
``0.0`` before or after them, which is exact for non-negative values.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .errors import ConfigError, ValidationError
from .lda import TopicModel


@dataclass
class IssueSeries:
    dates: tuple[datetime.date, ...]   # contiguous, strictly increasing
    values: np.ndarray                 # (n_days, K) signature mass


@dataclass
class EntropySeries:
    dates: tuple[datetime.date, ...]
    h: np.ndarray                      # normalized entropy, NaN where undefined
    pct_change: np.ndarray             # percent, NaN where undefined


def build_series(model: TopicModel, corpus: Corpus) -> IssueSeries:
    """Spread each petition's UK signatures over issues on its creation day."""
    model.check_alignment(corpus)
    start, end = corpus.window
    n_days = (end - start).days + 1
    values = np.zeros((n_days, model.k), dtype=np.float64)
    # unbuffered, in petition order: each day sums its petitions in the
    # order a per-petition loop would
    np.add.at(values, corpus.day, corpus.uk[:, None] * model.theta)
    dates = tuple(start + datetime.timedelta(days=i) for i in range(n_days))
    return IssueSeries(dates=dates, values=values)


def _window_sums(values: np.ndarray, before: int, after: int) -> np.ndarray:
    """Row t holds the sum of rows ``t-before .. t+after`` that exist.

    The rows are padded with zeros and the window's shifted slices added
    in row order, the order ``values[a:b].sum(axis=0)`` adds them in.  A
    reach past the series adds only zeros, so it is clipped to n-1 rows.
    """
    n, k = values.shape
    reach = max(n - 1, 0)
    before, after = min(before, reach), min(after, reach)
    padded = np.zeros((before + n + after, k))
    padded[before:before + n] = values
    out = padded[:n].copy()
    for shift in range(1, before + after + 1):
        out += padded[shift:shift + n]
    return out


def smooth(series: IssueSeries, window_days: int) -> IssueSeries:
    """Centered moving average per issue column.

    The window spans offsets ``-(w-1)//2 .. +w//2`` (right-heavy when even)
    and is truncated at the series boundaries, dividing by the actual
    number of days covered.  ``window_days=1`` is the identity.
    """
    if window_days < 1:
        raise ConfigError("window_days must be at least 1")
    n = series.values.shape[0]
    # a reach past the series covers it all: clipped, the day counts stay
    # in int64 however large the window
    lo = min((window_days - 1) // 2, n)
    hi = min(window_days // 2, n)
    t = np.arange(n)
    days = np.minimum(n, t + hi + 1) - np.maximum(0, t - lo)
    out = _window_sums(series.values, lo, hi) / days[:, None]
    return IssueSeries(dates=series.dates, values=out)


def entropy_series(series: IssueSeries, window_days: int = 7) -> EntropySeries:
    """Normalized Shannon entropy of issue shares over a trailing window.

    For day t the window is the last ``window_days`` days up to and
    including t (shorter at the start of the series).  Entropy is
    ``-sum(p ln p) / ln K`` with zero shares contributing nothing.
    """
    if window_days < 1:
        raise ConfigError("window_days must be at least 1")
    n, k = series.values.shape
    if k < 2:
        raise ConfigError("entropy needs at least 2 issues")
    pooled = _window_sums(series.values, window_days - 1, 0)
    total = pooled.sum(axis=1)
    defined = total > 0
    log_k = np.log(k)
    p = pooled[defined] / total[defined, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p)
    h_defined = -terms.sum(axis=1) / log_k
    # a row with a zero share sums its nonzero terms alone: zeros summed in
    # place would regroup NumPy's pairwise sum
    for i in np.flatnonzero((p == 0).any(axis=1)).tolist():
        h_defined[i] = -terms[i][p[i] > 0].sum() / log_k
    h = np.full(n, np.nan)
    h[defined] = h_defined
    prev, cur = h[:-1], h[1:]
    moved = np.isfinite(cur) & np.isfinite(prev) & (prev > 0)
    pct = np.full(n, np.nan)
    pct[1:][moved] = (cur[moved] - prev[moved]) / prev[moved] * 100.0
    return EntropySeries(dates=series.dates, h=h, pct_change=pct)


def detect_volatility(es: EntropySeries, n_sigma: float = 3.0,
                      min_points: int = 30) -> dict[datetime.date, str]:
    """Dates whose entropy change sits outside ``n_sigma`` standard deviations.

    The mean and sample standard deviation are :func:`pct_change_stats`',
    over every defined percentage change.  Returns
    ``{date: "increase"|"decrease"}`` keyed by the day the move landed on;
    direction is the sign of the change itself.
    """
    mu, sigma, n = pct_change_stats(es)
    need = max(min_points, 2)          # a standard deviation needs two
    if n < need:
        raise ValidationError(
            f"need at least {need} defined percentage changes, have {n}")
    defined = np.isfinite(es.pct_change)
    jumps = defined & (np.abs(es.pct_change - mu) > n_sigma * sigma)
    return {es.dates[t]: "increase" if es.pct_change[t] > 0 else "decrease"
            for t in np.flatnonzero(jumps).tolist()}


def pct_change_stats(es: EntropySeries
                     ) -> tuple[float | None, float | None, int]:
    """(mean, sample standard deviation, count) of defined percentage changes.

    The mean needs one change and the standard deviation two; with fewer,
    each is None.
    """
    vals = es.pct_change[np.isfinite(es.pct_change)]
    mean = float(vals.mean()) if vals.size else None
    std = float(vals.std(ddof=1)) if vals.size > 1 else None
    return mean, std, int(vals.size)
