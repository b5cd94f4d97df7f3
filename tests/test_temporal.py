"""Daily issue series, smoothing, entropy, and volatility flags."""

import datetime

import numpy as np
import pytest

from petmine import temporal
from petmine.errors import ConfigError, ValidationError

from conftest import (constituency_signatures, make_corpus, make_model,
                      make_petition)


def _series(values, start="2015-06-01"):
    values = np.asarray(values, dtype=np.float64)
    d0 = datetime.date.fromisoformat(start)
    dates = tuple(d0 + datetime.timedelta(days=i)
                  for i in range(values.shape[0]))
    return temporal.IssueSeries(dates=dates, values=values)


# ---------------------------------------------------------------------------
# build_series


def test_build_series_hand_case():
    theta = np.array([[0.8, 0.2], [0.5, 0.5], [1.0, 0.0]])
    petitions = [
        make_petition(0, {"E1": 100}, created="2015-06-01"),
        make_petition(1, {"E1": 40}, created="2015-06-03"),
        make_petition(2, {"E1": 10}, created="2015-06-03"),
    ]
    model = make_model(theta, doc_ids=("0", "1", "2"))
    series = temporal.build_series(model, make_corpus(petitions))
    assert len(series.dates) == 3
    assert series.dates[0] == datetime.date(2015, 6, 1)
    assert np.allclose(series.values[0], [80.0, 20.0])
    assert np.allclose(series.values[1], [0.0, 0.0])
    # two petitions on the same day stack
    assert np.allclose(series.values[2], [30.0, 20.0])


def test_build_series_conserves_mass():
    rng = np.random.default_rng(5)
    theta = rng.dirichlet(np.ones(3), size=8)
    petitions = [
        make_petition(i, {"E1": int(rng.integers(1, 300))},
                      created=f"2015-06-{(i % 5) + 1:02d}")
        for i in range(8)
    ]
    model = make_model(theta, doc_ids=tuple(str(i) for i in range(8)))
    series = temporal.build_series(model, make_corpus(petitions))
    total_sigs = sum(sum(constituency_signatures(p).values())
                     for p in petitions)
    assert series.values.sum() == pytest.approx(total_sigs)


def test_build_series_checks_alignment():
    # the window is the Corpus constructor's to check (test_corpus.py)
    model = make_model(np.eye(2), doc_ids=("0", "1"))
    bad = make_corpus([make_petition(9, {"E1": 5}),
                       make_petition(1, {"E1": 5})])
    with pytest.raises(ValidationError, match="misaligned"):
        temporal.build_series(model, bad)


def _build_series_loop(model, petitions, window):
    # the per-petition accumulation, kept as the reference
    start, end = window
    values = np.zeros(((end - start).days + 1, model.k))
    for d, p in enumerate(petitions):
        uk = sum(constituency_signatures(p).values())
        created = datetime.date.fromisoformat(p["attributes"]["created_at"])
        values[(created - start).days] += uk * model.theta[d]
    return values


def test_build_series_matches_per_petition_loop():
    rng = np.random.default_rng(17)
    for trial in range(8):
        n_docs, k = int(rng.integers(1, 300)), int(rng.integers(2, 12))
        theta = rng.dirichlet(np.full(k, 0.3), size=n_docs)
        # zero-padded ids, so that ingest's id order is the order given
        petitions = [
            make_petition(f"{d:03d}",
                          {f"E{j}": int(rng.pareto(1.1) * 100)
                           for j in range(int(rng.integers(0, 6)))},
                          created=str(datetime.date(2015, 6, 1)
                                      + datetime.timedelta(
                                          days=int(rng.integers(0, 40)))))
            for d in range(n_docs)]
        c = make_corpus(petitions)
        model = make_model(theta, doc_ids=c.ids)
        series = temporal.build_series(model, c)
        assert np.array_equal(series.values,
                              _build_series_loop(model, petitions, c.window))


# ---------------------------------------------------------------------------
# smoothing


def test_smooth_identity():
    s = _series([[1.0, 2.0], [3.0, 4.0]])
    out = temporal.smooth(s, 1)
    assert np.array_equal(out.values, s.values)
    assert out.values is not s.values


def test_smooth_hand_case():
    s = _series([[3.0], [6.0], [9.0], [0.0]])
    out = temporal.smooth(s, 3)
    # truncated edges divide by the days actually covered
    assert out.values.ravel() == pytest.approx([4.5, 6.0, 5.0, 4.5])


def test_smooth_even_window_right_heavy():
    s = _series([[0.0], [4.0], [8.0], [12.0]])
    out = temporal.smooth(s, 2)
    # window offsets 0..+1
    assert out.values.ravel() == pytest.approx([2.0, 6.0, 10.0, 12.0])


def test_smooth_constant_series_fixed_point():
    s = _series(np.full((10, 3), 7.0))
    for w in (2, 3, 7):
        assert np.allclose(temporal.smooth(s, w).values, 7.0)


def test_smooth_window_validation():
    s = _series([[1.0]])
    with pytest.raises(ConfigError):
        temporal.smooth(s, 0)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_uniform_is_one():
    s = _series(np.full((5, 4), 2.5))
    es = temporal.entropy_series(s, window_days=3)
    assert np.allclose(es.h, 1.0, atol=1e-12)


def test_entropy_single_issue_is_zero():
    values = np.zeros((4, 3))
    values[:, 1] = 9.0
    es = temporal.entropy_series(_series(values), window_days=2)
    assert np.allclose(es.h, 0.0, atol=1e-12)


def test_entropy_two_to_one_split():
    # shares (2/3, 1/3) over K=2
    values = np.array([[2.0, 1.0]])
    es = temporal.entropy_series(_series(values), window_days=1)
    want = -(2 / 3 * np.log(2 / 3) + 1 / 3 * np.log(1 / 3)) / np.log(2)
    assert es.h[0] == pytest.approx(want, abs=1e-12)


def test_entropy_empty_window_nan():
    values = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    es = temporal.entropy_series(_series(values), window_days=1)
    assert es.h[0] == pytest.approx(1.0)
    assert np.isnan(es.h[1]) and np.isnan(es.h[2])
    # pct changes touching NaN entropy are undefined
    assert np.isnan(es.pct_change).all()


def test_entropy_trailing_window_pools():
    values = np.array([[4.0, 0.0], [0.0, 4.0]])
    es = temporal.entropy_series(_series(values), window_days=2)
    # day 0 sees only itself; day 1 pools both days into a uniform split
    assert es.h[0] == pytest.approx(0.0)
    assert es.h[1] == pytest.approx(1.0)


def test_entropy_pct_change_hand_case():
    values = np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 1.0]])
    es = temporal.entropy_series(_series(values), window_days=1)
    assert np.isnan(es.pct_change[0])
    want = (es.h[1] - es.h[0]) / es.h[0] * 100.0
    assert es.pct_change[1] == pytest.approx(want)
    assert es.pct_change[2] == pytest.approx(
        (es.h[2] - es.h[1]) / es.h[1] * 100.0)


def test_entropy_pct_change_undefined_after_zero():
    # zero entropy cannot seed a percentage change
    values = np.array([[5.0, 0.0], [1.0, 1.0]])
    es = temporal.entropy_series(_series(values), window_days=1)
    assert es.h[0] == 0.0
    assert np.isnan(es.pct_change[1])


def test_entropy_validation():
    s = _series(np.ones((3, 1)))
    with pytest.raises(ConfigError, match="at least 2"):
        temporal.entropy_series(s)
    with pytest.raises(ConfigError):
        temporal.entropy_series(_series(np.ones((3, 2))), window_days=0)


# ---------------------------------------------------------------------------
# whole-array windows against the per-day loops, bit for bit


def _smooth_loop(values, window_days):
    # the per-day centred window, kept as the reference
    n = values.shape[0]
    lo, hi = (window_days - 1) // 2, window_days // 2
    out = np.empty_like(values)
    for t in range(n):
        a, b = max(0, t - lo), min(n, t + hi + 1)
        out[t] = values[a:b].sum(axis=0) / (b - a)
    return out


def _entropy_loop(values, window_days):
    # the per-day trailing window and percentage change, kept as the reference
    n, k = values.shape
    h = np.full(n, np.nan)
    for t in range(n):
        pooled = values[max(0, t - window_days + 1):t + 1].sum(axis=0)
        total = pooled.sum()
        if total <= 0:
            continue
        p = pooled / total
        nz = p[p > 0]
        h[t] = float(-(nz * np.log(nz)).sum() / np.log(k))
    pct = np.full(n, np.nan)
    for t in range(1, n):
        if np.isfinite(h[t]) and np.isfinite(h[t - 1]) and h[t - 1] > 0:
            pct[t] = (h[t] - h[t - 1]) / h[t - 1] * 100.0
    return h, pct


def _volatility_loop(es, n_sigma=3.0):
    # the per-day flagging loop, kept as the reference
    defined = np.isfinite(es.pct_change)
    vals = es.pct_change[defined]
    mu, sigma = float(vals.mean()), float(vals.std(ddof=1))
    out = {}
    for t in np.nonzero(defined)[0]:
        if abs(es.pct_change[t] - mu) > n_sigma * sigma:
            out[es.dates[t]] = "increase" if es.pct_change[t] > 0 else "decrease"
    return out


def _random_values(rng):
    # non-negative days x K mass over 16 orders of magnitude, with zero
    # cells and all-zero days
    n, k = int(rng.integers(1, 81)), int(rng.integers(2, 13))
    values = rng.random((n, k)) * 10.0 ** rng.uniform(-8, 8, size=(n, k))
    values[rng.random((n, k)) < 0.25] = 0.0
    values[rng.random(n) < 0.2] = 0.0
    return values


def test_window_steps_match_per_day_loops_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(400):
        values = _random_values(rng)
        n = values.shape[0]
        s = _series(values)
        w = int(rng.integers(1, 2 * n + 4))
        assert (temporal.smooth(s, w).values.tobytes()
                == _smooth_loop(values, w).tobytes())
        es = temporal.entropy_series(s, w)
        h, pct = _entropy_loop(values, w)
        assert es.h.tobytes() == h.tobytes()
        assert es.pct_change.tobytes() == pct.tobytes()
        if np.isfinite(pct).sum() >= 2:
            assert (temporal.detect_volatility(es, 2.0, min_points=2)
                    == _volatility_loop(es, 2.0))


def test_volatility_flags_match_per_day_loop():
    rng = np.random.default_rng(29)
    for _ in range(200):
        pct = rng.standard_normal(int(rng.integers(3, 120)))
        pct[rng.random(pct.size) < 0.03] *= 50.0
        pct[rng.random(pct.size) < 0.1] = np.nan
        pct[rng.random(pct.size) < 0.02] = np.inf
        if np.isfinite(pct).sum() < 2:
            continue
        d0 = datetime.date(2015, 6, 1)
        es = temporal.EntropySeries(
            dates=tuple(d0 + datetime.timedelta(days=i)
                        for i in range(pct.size)),
            h=np.ones(pct.size), pct_change=pct)
        for n_sigma in (1.0, 2.0, 3.0):
            assert (temporal.detect_volatility(es, n_sigma, min_points=2)
                    == _volatility_loop(es, n_sigma))


def test_windows_longer_than_the_series_clip_to_it():
    # a 10**9-day window reaches no further than the series' own length,
    # and costs no more than it
    values = _random_values(np.random.default_rng(31))
    n = values.shape[0]
    s = _series(values)
    assert (temporal.smooth(s, 10**9).values.tobytes()
            == temporal.smooth(s, 2 * n).values.tobytes())
    far, own = temporal.entropy_series(s, 10**9), temporal.entropy_series(s, n)
    assert far.h.tobytes() == own.h.tobytes()
    assert far.pct_change.tobytes() == own.pct_change.tobytes()


# ---------------------------------------------------------------------------
# volatility


def _entropy_with_jump(n=40, jump_at=25):
    d0 = datetime.date(2015, 6, 1)
    dates = tuple(d0 + datetime.timedelta(days=i) for i in range(n))
    h = np.full(n, 0.5)
    pct = np.empty(n)
    pct[0] = np.nan
    # modest alternating background moves, one huge spike
    pct[1:] = [1.0 if i % 2 else -1.0 for i in range(1, n)]
    pct[jump_at] = 60.0
    return temporal.EntropySeries(dates=dates, h=h, pct_change=pct)


def test_detect_volatility_flags_jump():
    es = _entropy_with_jump()
    flags = temporal.detect_volatility(es)
    assert flags == {es.dates[25]: "increase"}


def test_detect_volatility_direction():
    es = _entropy_with_jump()
    es.pct_change[25] = -60.0
    flags = temporal.detect_volatility(es)
    assert flags == {es.dates[25]: "decrease"}


def test_detect_volatility_quiet_series():
    es = _entropy_with_jump()
    es.pct_change[25] = 1.0
    assert temporal.detect_volatility(es) == {}


def test_detect_volatility_needs_points():
    es = _entropy_with_jump(n=20, jump_at=15)
    with pytest.raises(ValidationError, match="at least 30"):
        temporal.detect_volatility(es)
    assert temporal.detect_volatility(es, min_points=10)
    # one defined change has no standard deviation, whatever min_points says
    one = temporal.EntropySeries(dates=es.dates[:2], h=es.h[:2],
                                 pct_change=np.array([np.nan, -4.0]))
    with pytest.raises(ValidationError, match="at least 2 .* have 1"):
        temporal.detect_volatility(one, min_points=1)


def test_detect_volatility_ignores_undefined_changes():
    es = _entropy_with_jump()
    es.pct_change[3] = np.nan
    es.pct_change[4] = np.inf
    flags = temporal.detect_volatility(es)
    assert flags == {es.dates[25]: "increase"}


def test_pct_change_stats():
    es = _entropy_with_jump()
    mu, sigma, n = temporal.pct_change_stats(es)
    vals = es.pct_change[np.isfinite(es.pct_change)]
    assert n == len(vals) == 39
    assert mu == pytest.approx(vals.mean())
    assert sigma == pytest.approx(vals.std(ddof=1))
    empty = temporal.EntropySeries(dates=es.dates[:2], h=es.h[:2],
                                   pct_change=np.array([np.nan, np.nan]))
    assert temporal.pct_change_stats(empty) == (None, None, 0)
    one = temporal.EntropySeries(dates=es.dates[:2], h=es.h[:2],
                                 pct_change=np.array([np.nan, -4.0]))
    assert temporal.pct_change_stats(one) == (-4.0, None, 1)
