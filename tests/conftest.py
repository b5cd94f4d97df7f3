"""Shared fixtures: synthetic corpora, planted topics, pipeline runs."""

import json
import os
import random
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp

from petmine import corpus, lda, textprep

# ---------------------------------------------------------------------------
# acceptance reporting: tests register one line each, printed at the end

ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def record_criterion(number: int, description: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_RESULTS.append((number, status, description))
    assert passed, f"criterion {number}: {description}"


def record_skip(number: int, description: str, reason: str) -> None:
    ACCEPTANCE_RESULTS.append((number, "SKIP", f"{description} ({reason})"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, status, description in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"criterion {number:2d} {status:4s} {description}")


# ---------------------------------------------------------------------------
# planted-topic corpus


def make_planted_dtm(n_docs=200, n_topics=3, words_per_topic=40,
                     tokens_per_doc=60, seed=0):
    """Documents drawn from disjoint per-topic vocabularies.

    Returns (dtm, phi_true, doc_topic) where phi_true rows are uniform
    over each topic's own word block.
    """
    vocab = n_topics * words_per_topic
    rng = np.random.Generator(np.random.PCG64(seed))
    rows, cols, vals = [], [], []
    doc_topic = []
    for d in range(n_docs):
        t = d % n_topics
        doc_topic.append(t)
        words = rng.integers(t * words_per_topic, (t + 1) * words_per_topic,
                             size=tokens_per_doc)
        uniq, counts = np.unique(words, return_counts=True)
        rows.extend([d] * len(uniq))
        cols.extend(uniq.tolist())
        vals.extend(counts.tolist())
    counts = sp.csr_matrix((vals, (rows, cols)), shape=(n_docs, vocab),
                           dtype=np.int32)
    df = np.asarray((counts > 0).sum(axis=0)).ravel().astype(np.int64)
    dtm = textprep.DocumentTermMatrix(
        n_docs=n_docs,
        vocabulary=textprep.Vocabulary(
            terms=tuple(f"w{i:03d}" for i in range(vocab)),
            doc_frequency=df),
        counts=counts,
        doc_ids=tuple(f"d{i:04d}" for i in range(n_docs)),
        prune_report=None)
    phi_true = np.zeros((n_topics, vocab))
    for t in range(n_topics):
        phi_true[t, t * words_per_topic:(t + 1) * words_per_topic] = \
            1.0 / words_per_topic
    return dtm, phi_true, np.array(doc_topic)


@pytest.fixture(scope="session")
def planted():
    dtm, phi_true, doc_topic = make_planted_dtm()
    config = lda.LdaConfig(k=3, iterations=300, burn_in=100, sample_every=10,
                           seed=1)
    model = lda.fit(dtm, config)
    return dtm, phi_true, doc_topic, model


# ---------------------------------------------------------------------------
# archive fixture on disk

FIXTURE_THEMES = {
    0: ("school teacher education pupil classroom curriculum exam funding",
        "Improve {} support in every school"),
    1: ("hospital doctor nurse patient treatment waiting surgery ward",
        "Protect {} services at local hospitals"),
    2: ("railway train commuter fare ticket carriage delay timetable",
        "Freeze {} prices for commuters"),
}
FIXTURE_CODES = ["E14000001", "E14000002", "E14000003", "E14000004",
                 "E14000005"]


def write_fixture_archive(directory, n_petitions=60, seed=7):
    """Synthetic archive + constituency CSV + pipeline config.

    Returns (archive_path, constituencies_path, config_path, config_dict).
    """
    rnd = random.Random(seed)
    lines = []
    for i in range(n_petitions):
        vocab, action_tpl = FIXTURE_THEMES[i % 3]
        words = vocab.split()
        body = " ".join(rnd.choice(words) for _ in range(40))
        sigs = rnd.randint(5, 80) if i % 10 else rnd.randint(9000, 30000)
        per_con = []
        remaining = sigs
        for code in FIXTURE_CODES[:-1]:
            take = remaining // 2
            per_con.append({"ons_code": code, "signature_count": take})
            remaining -= take
        per_con.append({"ons_code": FIXTURE_CODES[-1],
                        "signature_count": remaining})
        day = rnd.randint(0, 89)
        lines.append(json.dumps({
            "id": 1000 + i,
            "state": "accepted",
            "attributes": {
                "action": action_tpl.format(rnd.choice(words)),
                "background": body,
                "additional_details": None,
                "created_at":
                    f"2015-{6 + day // 30:02d}-{1 + day % 30:02d}T10:00:00Z",
                "signature_count": sigs,
                "signatures_by_constituency": per_con,
                "signatures_by_country": [
                    {"code": "GB", "signature_count": sigs}],
            },
        }))
    lines.append(json.dumps({
        "id": 2000, "state": "rejected",
        "attributes": {"action": "No", "background": "",
                       "additional_details": None,
                       "created_at": "2015-06-01T00:00:00Z",
                       "signature_count": 2,
                       "signatures_by_constituency": [],
                       "signatures_by_country": []}}))
    lines.append(json.dumps({
        "id": 2001, "state": "accepted",
        "attributes": {"background": "missing action",
                       "created_at": "2015-06-01T00:00:00Z"}}))
    archive = directory / "archive.jsonl"
    archive.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cons = directory / "constituencies.csv"
    cons.write_text(
        "code,name,electorate\n" + "".join(
            f"{code},Fixtureton {i},{60000 + 5000 * i}\n"
            for i, code in enumerate(FIXTURE_CODES)),
        encoding="utf-8")

    config = {
        "archive": str(archive),
        "constituencies": str(cons),
        "output_dir": str(directory / "out"),
        "lda": {"k": 3, "iterations": 120, "burn_in": 40, "sample_every": 4},
        "min_doc_fraction": 0.02,
        "entropy_window_days": 7,
        "smoothing_windows": [7, 30],
        "pam_k": 2,
        "powerlaw_x_min": 5,
        "thresholds": [10_000, 100_000],
        "seed": 42,
    }
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return archive, cons, config_path, config


@pytest.fixture(scope="session")
def fixture_paths(tmp_path_factory):
    return write_fixture_archive(tmp_path_factory.mktemp("archive"))


@pytest.fixture(scope="session")
def pipeline_out(fixture_paths):
    """Run ingest, fit, and report once; yields the output directory."""
    from petmine import cli
    _, _, config_path, config = fixture_paths
    for command in ("ingest", "fit", "report"):
        rc = cli.main([command, "--config", str(config_path)])
        assert rc == 0, f"{command} failed"
    return config["output_dir"], config


# ---------------------------------------------------------------------------
# tiny hand-built corpus helpers


def make_petition(pid, sigs_by_con, created="2015-06-01", action="Do thing",
                  background="", country_extra=0):
    """An accepted archive record signed ``country_extra`` times overseas."""
    return {"id": pid, "state": "accepted", "attributes": {
        "action": action,
        "background": background,
        "additional_details": None,
        "created_at": created,
        "signature_count": sum(sigs_by_con.values()) + country_extra,
        "signatures_by_constituency": [
            {"ons_code": code, "signature_count": n}
            for code, n in sigs_by_con.items()],
    }}


def constituency_signatures(record):
    """The constituency breakdown of a ``make_petition`` record, by code."""
    return {s["ons_code"]: s["signature_count"]
            for s in record["attributes"]["signatures_by_constituency"]}


def make_corpus(petitions, constituencies=(), window=None):
    """The corpus that ingest makes of ``petitions``, every one accepted.

    Ingest sorts the rows by id.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "archive.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(p) + "\n" for p in petitions)
        c = corpus.load_archive(path, window, tuple(constituencies))
    report = c.ingest_report
    assert len(c.ids) == report.total_lines, report
    return c


def make_model(theta, phi=None, terms=None, doc_ids=None, **config_kw):
    theta = np.asarray(theta, dtype=np.float64)
    n_docs, k = theta.shape
    if phi is None:
        phi = np.full((k, 8), 1.0 / 8)
    phi = np.asarray(phi, dtype=np.float64)
    if terms is None:
        terms = tuple(f"t{i}" for i in range(phi.shape[1]))
    if doc_ids is None:
        doc_ids = tuple(str(i) for i in range(n_docs))
    config_kw.setdefault("iterations", 10)
    config_kw.setdefault("burn_in", 0)
    config = lda.LdaConfig(k=k, **config_kw)
    return lda.TopicModel(
        config=config, phi=phi, theta=theta,
        log_likelihood_trace=np.array([-1.0]),
        trace_sweeps=np.array([1]),
        terms=tuple(terms), doc_ids=tuple(doc_ids))
