"""Signature-count distribution: CCDF, power-law fitting, divergences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from petmine import powerlaw
from petmine.errors import ConfigError, ValidationError


def sample_discrete(alpha: float, x_min: int, n: int, seed: int,
                    x_cap: int = 100_000) -> np.ndarray:
    """Draw ``n`` values from the discrete power law, for calibration.

    Exact inverse-CDF sampling over the probability table x_min..x_cap;
    the tiny tail mass beyond x_cap (about 1e-4 at alpha=2, x_min=10) is
    drawn from the continuous Pareto approximation.
    """
    if alpha <= 1:
        raise ConfigError("alpha must exceed 1")
    if x_min < 1 or x_cap <= x_min:
        raise ConfigError("need 1 <= x_min < x_cap")
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = np.arange(x_min, x_cap + 1, dtype=np.float64)
    norm = zeta(alpha, x_min)
    cdf = np.cumsum(xs ** (-alpha) / norm)
    u = rng.random(n)
    idx = np.searchsorted(cdf, u, side="right")
    out = x_min + idx
    over = idx >= len(xs)
    if over.any():
        v = rng.random(int(over.sum()))
        out[over] = np.floor(x_cap * (1.0 - v) ** (-1.0 / (alpha - 1.0))).astype(np.int64)
    return out.astype(np.int64)


# ---------------------------------------------------------------------------
# ccdf


def test_ccdf_hand_case():
    c = powerlaw.ccdf([5, 1, 3, 3, 1])
    assert c.x.tolist() == [1, 3, 5]
    assert c.p.tolist() == [1.0, 0.6, 0.2]


def test_ccdf_single_value():
    c = powerlaw.ccdf([7, 7, 7])
    assert c.x.tolist() == [7]
    assert c.p.tolist() == [1.0]


def test_ccdf_errors():
    with pytest.raises(ValidationError, match="no observations"):
        powerlaw.ccdf([])
    with pytest.raises(ValidationError, match="negative"):
        powerlaw.ccdf([3, -1])


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_ccdf_properties(counts):
    c = powerlaw.ccdf(counts)
    assert c.p[0] == 1.0 or c.x[0] > min(counts)  # smallest value covers all
    assert c.p[0] == 1.0
    assert (np.diff(c.p) < 0).all()               # strictly decreasing
    assert c.p[-1] == pytest.approx(
        sum(1 for v in counts if v == max(counts)) / len(counts))
    assert (np.diff(c.x) > 0).all()


# ---------------------------------------------------------------------------
# fitting


def test_fit_recovers_known_exponent():
    sample = sample_discrete(alpha=1.8, x_min=10, n=30_000, seed=3)
    fit = powerlaw.fit_powerlaw(sample, x_min=10)
    assert fit.x_min == 10
    assert fit.n_tail == 30_000
    assert fit.exponent == pytest.approx(1.8, abs=0.03)
    assert fit.ks_distance < 0.02


def test_fit_deterministic():
    sample = sample_discrete(alpha=2.2, x_min=5, n=2_000, seed=9)
    a = powerlaw.fit_powerlaw(sample, x_min=5)
    b = powerlaw.fit_powerlaw(sample, x_min=5)
    assert a == b


def test_fit_respects_x_min():
    # junk below x_min must not influence the tail fit
    sample = sample_discrete(alpha=2.0, x_min=10, n=10_000, seed=1)
    polluted = np.concatenate([sample, np.full(5_000, 3)])
    clean = powerlaw.fit_powerlaw(sample, x_min=10)
    dirty = powerlaw.fit_powerlaw(polluted, x_min=10)
    assert dirty.exponent == pytest.approx(clean.exponent, abs=1e-9)
    assert dirty.n_tail == clean.n_tail


def test_tail_validation():
    with pytest.raises(ConfigError, match="positive integer"):
        powerlaw.fit_powerlaw([5, 6, 7], x_min=0)
    with pytest.raises(ValidationError, match="at least 2"):
        powerlaw.fit_powerlaw([1, 2, 50], x_min=40)
    # one value has no slope: the fit would end at the alpha bound
    counts = [3, 5, 8, 40, 40, 40]
    assert powerlaw.fittable(counts, 8)
    assert not powerlaw.fittable(counts, 40)
    assert not powerlaw.fittable(counts, 41)
    with pytest.raises(ValidationError, match=r"need at least 2 distinct "
                                              r"values >= 40, have 3 of \[40\]"):
        powerlaw.fit_powerlaw(counts, 40)


def test_ks_statistic_zero_on_exact_match():
    # two observed values; choose alpha so the fitted CCDF hits the
    # empirical value exactly at the second point
    counts = [10, 10, 10, 20]
    # empirical: P(>=10)=1, P(>=20)=0.25; solve zeta(a,20)/zeta(a,10)=0.25
    from scipy.optimize import brentq
    alpha = brentq(lambda a: zeta(a, 20) / zeta(a, 10) - 0.25, 1.01, 10)
    assert powerlaw.ks_statistic(counts, 10, alpha) == pytest.approx(0.0,
                                                                     abs=1e-12)


def test_ks_statistic_matches_manual():
    counts = [10, 15, 40]
    alpha = 2.0
    srt = np.array([10, 15, 40])
    emp = np.array([1.0, 2 / 3, 1 / 3])
    fit = zeta(alpha, srt) / zeta(alpha, 10)
    want = np.abs(emp - fit).max()
    assert powerlaw.ks_statistic(counts, 10, alpha) == pytest.approx(want)


def _continuous_mle(counts, x_min: int) -> float:
    """Closed-form continuous estimator alpha = 1 + n / sum(ln(x/x_min))."""
    tail = np.asarray(counts, dtype=np.float64)
    tail = tail[tail >= x_min]
    return 1.0 + tail.size / float(np.log(tail / x_min).sum())


def test_continuous_and_discrete_agree_on_large_tail():
    sample = sample_discrete(alpha=1.6, x_min=50, n=40_000, seed=5)
    disc = powerlaw.fit_powerlaw(sample, x_min=50).exponent
    cont = _continuous_mle(sample, 50)
    # the continuous estimator is biased upward on discrete data but only
    # mildly when x_min is large
    assert abs(disc - cont) < 0.05


# ---------------------------------------------------------------------------
# x_min scan


def test_scan_xmin_and_best():
    sample = sample_discrete(alpha=2.0, x_min=20, n=8_000, seed=11)
    # below the true x_min the head pollutes the fit and inflates KS
    polluted = np.concatenate([sample, np.full(4_000, 7)])
    fits = [powerlaw.fit_powerlaw(polluted, x_min)
            for x_min in [5, 10, 20, 40]]
    assert [f.x_min for f in fits] == [5, 10, 20, 40]
    best = powerlaw.best_by_ks(fits)
    assert best.x_min >= 20
    assert best.ks_distance == min(f.ks_distance for f in fits)


def test_best_by_ks_tie_breaks_low_x_min():
    a = powerlaw.PowerLawFit(x_min=10, exponent=2.0, n_tail=50,
                             ks_distance=0.05)
    b = powerlaw.PowerLawFit(x_min=5, exponent=2.1, n_tail=80,
                             ks_distance=0.05)
    assert powerlaw.best_by_ks([a, b]) is b


# ---------------------------------------------------------------------------
# threshold divergence


def test_threshold_divergence_anchor_zero():
    # at t = x_min the model CCDF equals the empirical tail mass exactly
    counts = [1, 2, 10, 20, 50, 100]
    fit = powerlaw.fit_powerlaw(counts, x_min=10)
    div = powerlaw.threshold_divergence(counts, fit, [10])
    assert div[10] == pytest.approx(0.0, abs=1e-12)


def test_threshold_divergence_manual_value():
    counts = [10, 10, 20, 40]
    fit = powerlaw.PowerLawFit(x_min=10, exponent=2.0, n_tail=4,
                               ks_distance=0.0)
    div = powerlaw.threshold_divergence(counts, fit, [20])
    emp = 2 / 4
    model = 1.0 * zeta(2.0, 20) / zeta(2.0, 10)
    assert div[20] == pytest.approx(np.log10(emp) - np.log10(model))


def test_threshold_divergence_out_of_range_nan():
    counts = [10, 20, 40]
    fit = powerlaw.fit_powerlaw(counts, x_min=10)
    div = powerlaw.threshold_divergence(counts, fit, [5, 41, 20])
    assert np.isnan(div[5])
    assert np.isnan(div[41])
    assert np.isfinite(div[20])


def test_threshold_divergence_detects_thin_tail():
    sample = sample_discrete(alpha=1.7, x_min=10, n=20_000, seed=2)
    # drop the extreme tail to mimic a saturating platform
    truncated = sample[sample <= 2_000]
    fit = powerlaw.fit_powerlaw(truncated, x_min=10)
    div = powerlaw.threshold_divergence(truncated, fit, [1_000, 1_500])
    assert div[1_000] < -0.1
    assert div[1_500] < div[1_000]


# ---------------------------------------------------------------------------
# sampling


def test_sample_discrete_support_and_determinism():
    s = sample_discrete(alpha=2.0, x_min=10, n=5_000, seed=7)
    assert s.dtype == np.int64
    assert s.min() >= 10
    t = sample_discrete(alpha=2.0, x_min=10, n=5_000, seed=7)
    assert np.array_equal(s, t)
    u = sample_discrete(alpha=2.0, x_min=10, n=5_000, seed=8)
    assert not np.array_equal(s, u)


def test_sample_discrete_ccdf_tracks_model():
    alpha, x_min = 2.0, 10
    s = sample_discrete(alpha=alpha, x_min=x_min, n=50_000, seed=4)
    for t in (10, 20, 50, 100):
        emp = (s >= t).mean()
        model = zeta(alpha, t) / zeta(alpha, x_min)
        assert emp == pytest.approx(model, rel=0.08)


def test_sample_discrete_validation():
    with pytest.raises(ConfigError, match="alpha"):
        sample_discrete(alpha=1.0, x_min=10, n=5, seed=0)
    with pytest.raises(ConfigError, match="x_min"):
        sample_discrete(alpha=2.0, x_min=0, n=5, seed=0)
    with pytest.raises(ConfigError, match="x_min"):
        sample_discrete(alpha=2.0, x_min=50, n=5, seed=0,
                                 x_cap=50)
