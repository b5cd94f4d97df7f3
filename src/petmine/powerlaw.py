"""Signature-distribution analysis: CCDF, discrete power-law fit, divergence.

The tail of the signatures-per-petition distribution is fitted as a
discrete power law p(x) = x^-alpha / zeta(alpha, x_min) for x >= x_min,
with alpha chosen by maximizing the exact discrete log-likelihood (Hurwitz
zeta normalization).  Signature counts are integers, so the fit is the
discrete variant.

``threshold_divergence`` measures how far the empirical upper tail falls
below the fitted line at chosen thresholds, in log10 units of CCDF: the
fitted tail probability is anchored at the empirical mass at or above
x_min, so a perfectly power-law sample scores about zero everywhere.

``scipy.optimize`` and ``scipy.special`` are imported in the functions
that call them, not at the top, so a ``petmine`` process that fits no
power law (``ingest``, ``fit``, ``grid``, ``intrusion-score``) does not
load them at start-up; ``report`` and ``xmin-scan`` load them on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ValidationError

_ALPHA_BOUNDS = (1.0001, 25.0)


@dataclass
class Ccdf:
    x: np.ndarray                    # sorted unique observed values
    p: np.ndarray                    # fraction of observations >= x


@dataclass
class PowerLawFit:
    x_min: int
    exponent: float
    n_tail: int
    ks_distance: float


def ccdf(counts) -> Ccdf:
    """Empirical complementary CDF over the observed values."""
    arr = np.asarray(counts, dtype=np.int64).ravel()
    if arr.size == 0:
        raise ValidationError("cannot build a CCDF from no observations")
    if (arr < 0).any():
        raise ValidationError("signature counts cannot be negative")
    srt = np.sort(arr)
    x = np.unique(srt)
    # count of observations >= x, via the insertion points of x in srt
    ge = arr.size - np.searchsorted(srt, x, side="left")
    return Ccdf(x=x, p=ge / arr.size)


def _tail(counts, x_min: int) -> np.ndarray:
    if x_min < 1:
        raise ConfigError("x_min must be a positive integer")
    arr = np.asarray(counts, dtype=np.int64).ravel()
    tail = arr[arr >= x_min]
    # 2 distinct values imply 2 observations; one value alone has no
    # slope, and its likelihood rises to the alpha bound
    values = np.unique(tail)
    if values.size < 2:
        raise ValidationError(f"need at least 2 distinct values >= {x_min}, "
                              f"have {tail.size} of {values.tolist()}")
    return tail


def fittable(counts, x_min: int) -> bool:
    """Whether :func:`fit_powerlaw` takes ``x_min`` (see ``_tail``)."""
    try:
        _tail(counts, x_min)
    except ValidationError:
        return False
    return True


def ks_statistic(counts, x_min: int, alpha: float) -> float:
    """Max CCDF gap between the empirical tail and the fitted power law."""
    from scipy.special import zeta
    emp = ccdf(_tail(counts, x_min))
    fit = zeta(alpha, emp.x) / zeta(alpha, x_min)
    return float(np.abs(emp.p - fit).max())


def fit_powerlaw(counts, x_min: int) -> PowerLawFit:
    """Discrete maximum-likelihood power-law fit to the tail >= x_min."""
    from scipy.optimize import minimize_scalar
    from scipy.special import zeta
    tail = _tail(counts, x_min)
    n = tail.size
    log_sum = float(np.log(tail).sum())

    def negll(alpha: float) -> float:
        return alpha * log_sum + n * math.log(zeta(alpha, x_min))

    res = minimize_scalar(
        negll, bounds=_ALPHA_BOUNDS, method="bounded",
        options={"xatol": 1e-10},
    )
    if not res.success or not np.isfinite(res.x):
        raise NumericalError(f"power-law optimizer failed: {res.message}")
    alpha = float(res.x)
    return PowerLawFit(
        x_min=int(x_min), exponent=alpha, n_tail=int(n),
        ks_distance=ks_statistic(counts, x_min, alpha),
    )


def scan_xmin(counts, candidates) -> list[PowerLawFit]:
    """Fit at each candidate x_min, in the given order."""
    cands = list(candidates)
    if not cands:
        raise ConfigError("no x_min candidates supplied")
    return [fit_powerlaw(counts, int(c)) for c in cands]


def best_by_ks(fits: list[PowerLawFit]) -> PowerLawFit:
    return min(fits, key=lambda f: (f.ks_distance, f.x_min))


def threshold_divergence(counts, fit: PowerLawFit, thresholds) -> dict[int, float]:
    """log10(empirical CCDF) - log10(fitted CCDF) at each threshold.

    Negative values mean the observed tail is thinner than the fitted
    power law.  Thresholds beyond the largest observation (empirical CCDF
    zero) or below x_min (outside the fitted support) map to NaN.
    """
    from scipy.special import zeta
    arr = np.asarray(counts, dtype=np.int64).ravel()
    if arr.size == 0:
        raise ValidationError("no observations")
    srt = np.sort(arr)
    p_tail = float((arr >= fit.x_min).sum()) / arr.size
    out: dict[int, float] = {}
    for t in thresholds:
        t = int(t)
        if t < fit.x_min or t > srt[-1]:
            out[t] = float("nan")
            continue
        emp = (arr.size - np.searchsorted(srt, t, side="left")) / arr.size
        model = p_tail * zeta(fit.exponent, t) / zeta(fit.exponent, fit.x_min)
        out[t] = float(np.log10(emp) - np.log10(model))
    return out
