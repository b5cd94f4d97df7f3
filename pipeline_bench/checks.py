"""Output checks for the pipeline benchmark.

Each check reads petmine's artifacts from an output directory and compares
them with the generator's truth (see ``generate.load_truth``) or with a
property the method must have.  Nothing here imports petmine: CSV files
are read with the csv module and ``.bin`` snapshots (zip archives of
``.npy`` members) with zipfile and numpy, so a fault in the program's own
readers cannot hide a fault in its writers.  A check raises
``CheckFailed`` with the reason, or returns a number worth reporting
(a perplexity) or None.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import zipfile

import numpy as np

TAIL_TOLERANCE = 0.08     # |fitted - planted| power-law exponent
MIN_PURITY = 0.8          # argmax-theta purity against the planted themes
ROW_SUM_TOLERANCE = 1e-9
MOMENT_TOLERANCE = 1e-9   # Z-score column mean 0 and sample SD 1
RELATIVE_TOLERANCE = 1e-9


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a petmine CSV, skipping ``#`` metadata lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def read_arrays(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays and metadata of a ``.bin`` snapshot."""
    arrays, meta = {}, {}
    with zipfile.ZipFile(path) as zf:
        for name in zf.namelist():
            data = zf.read(name)
            if name == "meta.json":
                meta = json.loads(data)
            else:
                arrays[name[:-len(".npy")]] = np.lib.format.read_array(
                    io.BytesIO(data))
    return arrays, meta


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def repeats(path: str, first_digest: str) -> None:
    """The file is byte-identical to the one an earlier round wrote."""
    _require(digest(path) == first_digest,
             f"{os.path.basename(path)} differs from the first round's")


def _close(a, b, what: str) -> None:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    _require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    bad = ~np.isclose(a, b, rtol=RELATIVE_TOLERANCE, atol=0.0)
    _require(not bad.any(),
             f"{what}: {int(bad.sum())} values differ, first at "
             f"{int(np.argmax(bad))}: {a.ravel()[np.argmax(bad)]!r} vs "
             f"{b.ravel()[np.argmax(bad)]!r}")


def _ranks(mass: np.ndarray) -> np.ndarray:
    ranks = np.empty(len(mass), dtype=np.int64)
    ranks[np.argsort(-mass, kind="stable")] = np.arange(1, len(mass) + 1)
    return ranks


def model_theta(out: str) -> np.ndarray:
    return read_arrays(os.path.join(out, "model.bin"))[0]["theta"]


# ---------------------------------------------------------------------------
# ingest and text preparation


def ingest_counts(out: str, truth: dict) -> None:
    """Accepted count and reject line numbers match the planted lines.

    Every line is accepted, rejected or dropped for its state, so with
    these two matching the dropped count matches too.
    """
    with open(os.path.join(out, "corpus.jsonl"), encoding="utf-8") as fh:
        meta = json.loads(fh.readline())["_meta"]
    _require(meta["n_petitions"] == len(truth["ids"]),
             f"accepted {meta['n_petitions']}, planted {len(truth['ids'])}")
    _, rows = read_csv(os.path.join(out, "rejects.csv"))
    lines = [int(r[0]) for r in rows]
    _require(lines == truth["reject_lines"],
             f"rejects.csv lines {lines}, planted {truth['reject_lines']}")
    dropped = truth["total_lines"] - len(truth["ids"]) - len(lines)
    _require(dropped == truth["dropped"],
             f"{dropped} lines dropped for state, planted {truth['dropped']}")


def dtm_docs(out: str, truth: dict) -> None:
    """One DTM row per accepted petition, in id order, none empty."""
    arrays, meta = read_arrays(os.path.join(out, "dtm.bin"))
    ids = [str(i) for i in truth["ids"]]
    _require(meta["doc_ids"] == ids, "dtm.bin doc ids differ from the accepted ids")
    _require(meta["n_docs"] == len(ids), f"dtm.bin has {meta['n_docs']} rows")
    terms = meta["terms"]
    _require(all(a < b for a, b in zip(terms, terms[1:])),
             "dtm.bin terms are not sorted and unique")
    _require(bool((arrays["count"] > 0).all()), "dtm.bin holds a non-positive count")
    per_doc = np.bincount(arrays["row"], weights=arrays["count"],
                          minlength=len(ids))
    _require(bool((per_doc > 0).all()),
             f"{int((per_doc == 0).sum())} documents have no tokens")


# ---------------------------------------------------------------------------
# report


def _profiles(out: str) -> dict[str, list[str]]:
    # names may hold commas that an unquoted writer splits, so read each
    # row from both ends: the code first, the numeric fields last
    header, rows = read_csv(os.path.join(out, "constituency_profiles.csv"))
    tail = len(header) - 2
    return {row[0]: row[-tail:] for row in rows}


def profiles_readback(out: str, truth: dict) -> None:
    """constituency_profiles.csv reads back with one field per header column."""
    header, rows = read_csv(os.path.join(out, "constituency_profiles.csv"))
    bad = [row[0] for row in rows if len(row) != len(header)]
    _require(not bad, f"{len(bad)} of {len(rows)} rows do not have "
                      f"{len(header)} fields (first: {bad[:3]})")


def signature_totals(out: str, truth: dict) -> None:
    """UK total and every constituency's total match the generator's sums."""
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    uk_total = int(truth["uk"].sum())
    _require(summary["corpus"]["uk_signature_total"] == uk_total,
             f"UK total {summary['corpus']['uk_signature_total']}, "
             f"planted {uk_total}")
    _require(summary["corpus"]["accepted"] == len(truth["ids"]),
             "summary.json accepted count differs")
    profiles = _profiles(out)
    _require(sorted(profiles) == sorted(truth["codes"]),
             "profile codes differ from the constituency table")
    for code, planted in zip(truth["codes"], truth["const_totals"].tolist()):
        got = int(profiles[code][1])
        _require(got == planted, f"{code}: {got} signatures, planted {planted}")


def prevalence(out: str, truth: dict, theta: np.ndarray) -> None:
    """Prevalence equals theta summed, unweighted and by UK signatures."""
    header, rows = read_csv(os.path.join(out, "prevalence.csv"))
    col = {name: i for i, name in enumerate(header)}
    by_p = theta.sum(axis=0)
    by_s = truth["uk"].astype(np.float64) @ theta
    got = np.array([[float(r[col["mass_by_petitions"]]),
                     float(r[col["mass_by_signatures"]])] for r in rows])
    _close(got[:, 0], by_p, "mass_by_petitions")
    _close(got[:, 1], by_s, "mass_by_signatures")
    _require([int(r[col["rank_p"]]) for r in rows] == _ranks(by_p).tolist(),
             "rank_p differs")
    _require([int(r[col["rank_s"]]) for r in rows] == _ranks(by_s).tolist(),
             "rank_s differs")


def profile_shares(out: str, truth: dict) -> None:
    """Shares sum to 1; each Z column has mean 0 and sample SD 1."""
    header, _ = read_csv(os.path.join(out, "constituency_profiles.csv"))
    k = sum(1 for h in header if h.startswith("share_"))
    values = np.array([[float(v) for v in fields[3:3 + 2 * k]]
                       for fields in _profiles(out).values()])
    shares, z = values[:, :k], values[:, k:]
    included = np.isfinite(shares).all(axis=1)
    _require(included.sum() >= 2, "fewer than 2 constituencies with shares")
    sums = shares[included].sum(axis=1)
    _require(bool(np.all(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE)),
             f"share rows sum to {sums.min()!r}..{sums.max()!r}")
    mean = z[included].mean(axis=0)
    sd = z[included].std(axis=0, ddof=1)
    _require(bool(np.all(np.abs(mean) <= MOMENT_TOLERANCE)),
             f"Z-score column means {mean.tolist()}")
    _require(bool(np.all(np.abs(sd - 1.0) <= MOMENT_TOLERANCE)),
             f"Z-score column SDs {sd.tolist()}")


def clusters(out: str, truth: dict, pam_k: int) -> None:
    """pam_k clusters covering every constituency with signatures."""
    _, rows = read_csv(os.path.join(out, "clusters.csv"))
    signed = {c for c, n in zip(truth["codes"], truth["const_totals"]) if n > 0}
    _require({r[0] for r in rows} == signed and len(rows) == len(signed),
             f"clusters.csv covers {len(rows)} codes, {len(signed)} have signatures")
    ids = {int(r[1]) for r in rows}
    _require(ids == set(range(pam_k)), f"cluster ids {sorted(ids)}, want 0..{pam_k - 1}")


def entropy(out: str, truth: dict, burst: bool) -> None:
    """Entropy lies in [0, 1]; the burst day, if asked, is a flagged decrease."""
    _, rows = read_csv(os.path.join(out, "entropy.csv"))
    h = np.array([float(r[1]) for r in rows])
    finite = h[np.isfinite(h)]
    _require(finite.size > 0, "no defined entropy value")
    _require(bool(((finite >= 0.0) & (finite <= 1.0 + 1e-12)).all()),
             f"entropy outside [0, 1]: {finite.min()!r}..{finite.max()!r}")
    if burst:
        row = next((r for r in rows if r[0] == truth["burst_day"]), None)
        _require(row is not None, f"no entropy row for {truth['burst_day']}")
        _require(row[3] == "1" and row[4] == "decrease",
                 f"burst day {truth['burst_day']} reads {row}")


def powerlaw(out: str, truth: dict) -> None:
    """Fitted tail exponent within TAIL_TOLERANCE of the planted one."""
    with open(os.path.join(out, "powerlaw.json"), encoding="utf-8") as fh:
        fit = json.load(fh)
    gap = abs(fit["exponent"] - truth["tail_exponent"])
    _require(gap <= TAIL_TOLERANCE,
             f"exponent {fit['exponent']:.4f}, planted {truth['tail_exponent']}")


# ---------------------------------------------------------------------------
# topic model


def model_rows(out: str, truth: dict) -> None:
    """Every row of phi and theta is positive and sums to 1."""
    arrays, _ = read_arrays(os.path.join(out, "model.bin"))
    for name in ("phi", "theta"):
        m = arrays[name]
        _require(bool((m > 0).all()), f"{name} has a non-positive entry")
        sums = m.sum(axis=1)
        _require(bool(np.all(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE)),
                 f"{name} rows sum to {sums.min()!r}..{sums.max()!r}")


def likelihood_rises(out: str, truth: dict) -> None:
    trace = read_arrays(os.path.join(out, "model.bin"))[0]["trace"]
    _require(len(trace) >= 2 and trace[-1] > trace[0],
             f"log-likelihood trace {trace.tolist()}")


def purity(out: str, truth: dict) -> float:
    """Share of documents whose argmax topic holds its theme's majority."""
    assigned = model_theta(out).argmax(axis=1)
    labels = truth["labels"]
    hits = sum(int(np.bincount(labels[assigned == t]).max())
               for t in np.unique(assigned))
    value = hits / len(labels)
    _require(value >= MIN_PURITY, f"purity {value:.3f} < {MIN_PURITY}")
    return value


def _vocabulary_and_tokens(out: str) -> tuple[int, int]:
    arrays, meta = read_arrays(os.path.join(out, "dtm.bin"))
    return len(meta["terms"]), int(arrays["count"].sum())


def train_perplexity(out: str, truth: dict) -> float:
    """exp(-final log-likelihood / tokens), below the uniform model's V."""
    trace = read_arrays(os.path.join(out, "model.bin"))[0]["trace"]
    v, n_tokens = _vocabulary_and_tokens(out)
    value = math.exp(-float(trace[-1]) / n_tokens)
    _require(value < v, f"train perplexity {value:.1f} >= vocabulary {v}")
    return value


def heldout_perplexity(out: str, truth: dict, k_values: list[int]) -> float:
    """grid.csv has one finite row per K; K=10 beats the uniform model."""
    header, rows = read_csv(os.path.join(out, "grid.csv"))
    _require([int(r[0]) for r in rows] == k_values,
             f"grid.csv K values {[r[0] for r in rows]}")
    values = np.array([[float(v) for v in r[1:]] for r in rows])
    _require(bool(np.isfinite(values).all()), "grid.csv holds a non-finite value")
    per_token = float(rows[k_values.index(10)][header.index("holdout_per_token")])
    v, _ = _vocabulary_and_tokens(out)
    value = math.exp(-per_token)
    _require(value < v, f"held-out perplexity {value:.1f} >= vocabulary {v}")
    return value
