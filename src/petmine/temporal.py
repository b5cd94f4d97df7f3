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


def smooth(series: IssueSeries, window_days: int) -> IssueSeries:
    """Centered moving average per issue column.

    The window spans offsets ``-(w-1)//2 .. +w//2`` (right-heavy when even)
    and is truncated at the series boundaries, dividing by the actual
    number of days covered.  ``window_days=1`` is the identity.
    """
    if window_days < 1:
        raise ConfigError("window_days must be at least 1")
    if window_days == 1:
        return IssueSeries(dates=series.dates, values=series.values.copy())
    n = series.values.shape[0]
    lo = (window_days - 1) // 2
    hi = window_days // 2
    out = np.empty_like(series.values)
    for t in range(n):
        a = max(0, t - lo)
        b = min(n, t + hi + 1)
        out[t] = series.values[a:b].sum(axis=0) / (b - a)
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
    h = np.full(n, np.nan)
    log_k = np.log(k)
    for t in range(n):
        pooled = series.values[max(0, t - window_days + 1):t + 1].sum(axis=0)
        total = pooled.sum()
        if total <= 0:
            continue
        p = pooled / total
        nz = p[p > 0]
        h[t] = float(-(nz * np.log(nz)).sum() / log_k)
    pct = np.full(n, np.nan)
    for t in range(1, n):
        if np.isfinite(h[t]) and np.isfinite(h[t - 1]) and h[t - 1] > 0:
            pct[t] = (h[t] - h[t - 1]) / h[t - 1] * 100.0
    return EntropySeries(dates=series.dates, h=h, pct_change=pct)


def detect_volatility(es: EntropySeries, n_sigma: float = 3.0,
                      min_points: int = 30) -> dict[datetime.date, str]:
    """Dates whose entropy change sits outside ``n_sigma`` standard deviations.

    The mean and sample standard deviation are taken over every defined
    percentage change.  Returns ``{date: "increase"|"decrease"}`` keyed by
    the day the move landed on; direction is the sign of the change itself.
    """
    defined = np.isfinite(es.pct_change)
    n = int(defined.sum())
    if n < min_points:
        raise ValidationError(
            f"need at least {min_points} defined percentage changes, have {n}"
        )
    vals = es.pct_change[defined]
    mu = float(vals.mean())
    sigma = float(vals.std(ddof=1))
    out: dict[datetime.date, str] = {}
    for t in np.nonzero(defined)[0]:
        if abs(es.pct_change[t] - mu) > n_sigma * sigma:
            out[es.dates[t]] = "increase" if es.pct_change[t] > 0 else "decrease"
    return out


def pct_change_stats(es: EntropySeries) -> tuple[float, float, int]:
    """(mean, sample standard deviation, count) of defined percentage changes."""
    vals = es.pct_change[np.isfinite(es.pct_change)]
    if vals.size < 2:
        raise ValidationError("too few defined percentage changes")
    return float(vals.mean()), float(vals.std(ddof=1)), int(vals.size)
