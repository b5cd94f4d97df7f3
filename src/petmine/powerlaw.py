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

The likelihood is maximized by ``_minimize_bounded``, a copy of the
bounded Brent minimizer of ``scipy.optimize.minimize_scalar``, so alpha
is the one scipy's optimizer finds, bit for bit, without loading
``scipy.optimize`` (and the ``scipy.linalg`` it pulls in).
``scipy.special``, whose Hurwitz zeta is the normalization, is imported
in the functions that call it, not at the top, so a ``petmine`` process
that fits no power law (``ingest``, ``fit``, ``grid``,
``intrusion-score``) does not load it; ``report`` and ``xmin-scan`` load
it on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ValidationError

_ALPHA_BOUNDS = (1.0001, 25.0)
# function evaluations before the minimizer gives up
_MAX_EVALUATIONS = 500


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


# _minimize_bounded is adapted from scipy.optimize._optimize, under
# scipy's license:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

def _minimize_bounded(func, lo: float, hi: float,
                      xatol: float) -> tuple[float, str | None]:
    """Brent's bounded minimization of a scalar ``func`` on [lo, hi].

    A copy of ``_minimize_scalar_bounded`` from ``scipy.optimize``
    (scipy 1.17, BSD-3-Clause, notice above; the method is Brent's,
    "Algorithms for Minimization without Derivatives", 1973), without its
    display, options and result object. Every float operation is
    scipy's, in its order, so the point and the number of ``func`` calls
    are the ones ``minimize_scalar(func, bounds=(lo, hi),
    method="bounded", options={"xatol": xatol})`` gives. Returns the
    point and None, or the last point and why it is not a minimum: the
    evaluation budget ran out, or a NaN appeared.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = math.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    failure = None

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # try a parabolic step
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            if (abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and \
                    (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True

        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _MAX_EVALUATIONS:
            failure = f"{_MAX_EVALUATIONS} evaluations ran out"
            break

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        failure = "a NaN appeared"
    return xf, failure


def _sign(v: float) -> float:
    # scipy's np.sign(v) + (v == 0), 1.0 at zero; v is never NaN here: a
    # NaN bracket ends the loop, and a NaN parabola fails its test
    return -1.0 if v < 0 else 1.0


def fit_powerlaw(counts, x_min: int) -> PowerLawFit:
    """Discrete maximum-likelihood power-law fit to the tail >= x_min."""
    from scipy.special import zeta
    tail = _tail(counts, x_min)
    n = tail.size
    log_sum = float(np.log(tail).sum())

    def negll(alpha: float) -> float:
        return alpha * log_sum + n * math.log(zeta(alpha, x_min))

    alpha, failure = _minimize_bounded(negll, *_ALPHA_BOUNDS, xatol=1e-10)
    if failure:
        raise NumericalError(f"power-law optimizer failed: {failure}")
    return PowerLawFit(
        x_min=int(x_min), exponent=alpha, n_tail=int(n),
        ks_distance=ks_statistic(counts, x_min, alpha),
    )


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
