"""Archive ingestion, validation, and corpus snapshots."""

import csv
import datetime
import json

import pytest

from petmine import corpus
from petmine.errors import ArchiveFormatError, EmptyCorpusError

from conftest import make_corpus, make_petition


def _record(pid, action="Fix the thing", background="It is broken",
            created="2015-06-01", state="accepted", total=40,
            by_con=None, by_country=None, **extra_attrs):
    attrs = {
        "action": action,
        "background": background,
        "additional_details": None,
        "created_at": created,
        "signature_count": total,
        "signatures_by_constituency": by_con,
        "signatures_by_country": by_country,
    }
    attrs.update(extra_attrs)
    return {"id": pid, "state": state, "attributes": attrs}


def _write_archive(path, records):
    lines = [r if isinstance(r, str) else json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _sig(code, n):
    return {"ons_code": code, "signature_count": n}


# ---------------------------------------------------------------------------
# load_archive


def test_load_archive_happy_path(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(2, by_con=[_sig("E1", 30), _sig("E2", 10)]),
        _record(1, created="2015-07-04", total=5, by_con=[_sig("E1", 5)]),
    ])
    c = corpus.load_archive(path)
    assert c.ingest_report.accepted == 2
    assert c.ingest_report.malformed == 0
    # petitions come back sorted by id
    assert [p.id for p in c.petitions] == ["1", "2"]
    p = c.petitions[1]
    assert p.action == "Fix the thing"
    assert p.created_at == datetime.date(2015, 6, 1)
    assert p.signatures_by_constituency == {"E1": 30, "E2": 10}
    assert p.uk_signatures() == 40
    # window inferred from the data when not configured
    assert c.window == (datetime.date(2015, 6, 1), datetime.date(2015, 7, 4))


def test_load_archive_skips_meta_line(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        json.dumps({"_meta": {"format": "whatever"}}),
        _record(1, by_con=[_sig("E1", 40)]),
    ])
    c = corpus.load_archive(path)
    assert c.ingest_report.total_lines == 1
    assert c.ingest_report.accepted == 1


def test_load_archive_drops_unaccepted_states(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, by_con=[_sig("E1", 40)]),
        _record(2, state="rejected", by_con=[_sig("E1", 40)]),
        _record(3, state="open", by_con=[_sig("E1", 40)]),
    ])
    c = corpus.load_archive(path)
    assert c.ingest_report.accepted == 1
    assert c.ingest_report.dropped_state == 2
    assert c.ingest_report.malformed == 0
    assert [p.id for p in c.petitions] == ["1"]


@pytest.mark.parametrize("mangle,reason_part", [
    ("not json at all {", "invalid json"),
    (json.dumps(["a", "list"]), "not a JSON object"),
    (json.dumps({"state": "accepted"}), "missing id"),
    (json.dumps({"id": True, "state": "accepted"}), "missing id"),
    (json.dumps({"id": 9}), "missing or non-string field 'state'"),
    (json.dumps({"id": 9, "state": "accepted"}), "missing attributes"),
    (json.dumps(_record(9, action="   ")), "empty field 'action'"),
    (json.dumps(_record(9, created="June 1st")), "malformed created_at"),
    (json.dumps(_record(9, created=None)), "malformed created_at"),
    (json.dumps(_record(9, by_con={"E1": 4})), "is not a list"),
    (json.dumps(_record(9, by_con=[{"ons_code": "E1"}])), "bad signature_count"),
    (json.dumps(_record(9, by_con=[_sig("E1", -2)])), "bad signature_count"),
    (json.dumps(_record(9, by_con=[{"signature_count": 3}])),
     "missing 'ons_code'"),
    (json.dumps(_record(9, total=-1)), "not a non-negative integer"),
    (json.dumps(_record(9, total=10, by_con=[_sig("E1", 30)])),
     "exceed the petition total"),
])
def test_load_archive_rejects_bad_records(tmp_path, mangle, reason_part):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, by_con=[_sig("E1", 40)]),
        mangle,
    ])
    c = corpus.load_archive(path)
    assert c.ingest_report.accepted == 1
    assert c.ingest_report.malformed == 1
    line_no, reason = c.ingest_report.rejects[0]
    assert line_no == 2
    assert reason_part in reason


def test_load_archive_duplicate_id_rejected(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(7, by_con=[_sig("E1", 40)]),
        _record(7, by_con=[_sig("E1", 1)], total=1),
    ])
    c = corpus.load_archive(path)
    assert c.ingest_report.accepted == 1
    assert c.ingest_report.rejects == [(2, "duplicate id 7")]


def test_load_archive_sums_duplicate_codes_within_record(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, by_con=[_sig("E1", 10), _sig("E1", 5), _sig("E2", 1)],
                total=16),
    ])
    c = corpus.load_archive(path)
    assert c.petitions[0].signatures_by_constituency == {"E1": 15, "E2": 1}


def test_load_archive_total_fallbacks(tmp_path):
    # country breakdown wins over the constituency sum because it counts
    # overseas signers too; constituency sum is the last resort
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, total=None, by_con=[_sig("E1", 10)],
                by_country=[{"code": "GB", "signature_count": 10},
                            {"code": "FR", "signature_count": 3}]),
        _record(2, total=None, by_con=[_sig("E1", 7)]),
    ])
    c = corpus.load_archive(path)
    assert c.petitions[0].total_signatures == 13
    assert c.petitions[1].total_signatures == 7


def test_load_archive_window_filter(tmp_path):
    window = (datetime.date(2015, 1, 1), datetime.date(2015, 12, 31))
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, created="2015-06-01", by_con=[_sig("E1", 40)]),
        _record(2, created="2016-01-01", by_con=[_sig("E1", 40)]),
        _record(3, created="2014-12-31", by_con=[_sig("E1", 40)]),
    ])
    c = corpus.load_archive(path, corpus.IngestConfig(window=window))
    assert [p.id for p in c.petitions] == ["1"]
    assert c.window == window
    reasons = [r for _, r in c.ingest_report.rejects]
    assert reasons == ["created_at outside configured window"] * 2


def test_load_archive_unknown_code_bucketed(tmp_path):
    cons = (corpus.ConstituencyMeta("E1", "Alpha", 70000),)
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, by_con=[_sig("E1", 30), _sig("ZZ9", 6), _sig("XX1", 4)]),
    ])
    c = corpus.load_archive(path, corpus.IngestConfig(constituencies=cons))
    p = c.petitions[0]
    assert p.signatures_by_constituency == {"E1": 30, "UNKNOWN": 10}
    # bucketed signatures still count toward the UK total
    assert p.uk_signatures() == 40


def test_load_archive_empty_raises(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, state="closed", by_con=[_sig("E1", 1)], total=1),
    ])
    with pytest.raises(EmptyCorpusError):
        corpus.load_archive(path)


def test_uk_signature_total(tmp_path):
    c = make_corpus([
        make_petition(1, {"E1": 10, "E2": 5}),
        make_petition(2, {"E1": 3}, country_extra=100),
    ])
    # overseas signatures are excluded from the UK total
    assert corpus.uk_signature_total(c) == 18
    empty = corpus.Corpus(petitions=(), constituencies=(),
                          window=c.window, ingest_report=None)
    with pytest.raises(EmptyCorpusError):
        corpus.uk_signature_total(empty)


# ---------------------------------------------------------------------------
# load_constituencies


def test_load_constituencies(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("code,name,electorate\nE1,Alpha,70000\nE2,Beta,68000\n",
                    encoding="utf-8")
    cons = corpus.load_constituencies(str(path))
    assert [c.code for c in cons] == ["E1", "E2"]
    assert cons[0].electorate == 70000


@pytest.mark.parametrize("body", [
    "code,electorate\nE1,70000\n",              # missing column
    "code,name,electorate\nE1,Alpha,70000\nE1,Alpha,70000\n",  # duplicate
    "code,name,electorate\n,Alpha,70000\n",     # empty code
    "code,name,electorate\nE1,Alpha,many\n",    # non-integer electorate
    "code,name,electorate\nE1,Alpha,0\n",       # electorate must be positive
])
def test_load_constituencies_errors(tmp_path, body):
    path = tmp_path / "c.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ArchiveFormatError):
        corpus.load_constituencies(str(path))


def test_constituency_meta_validates_electorate():
    with pytest.raises(Exception):
        corpus.ConstituencyMeta("E1", "Alpha", -5)


# ---------------------------------------------------------------------------
# snapshots


def _sample_corpus():
    cons = (corpus.ConstituencyMeta("E1", "Alpha", 70000),
            corpus.ConstituencyMeta("E2", "Beta", 68000))
    return make_corpus(
        [make_petition(1, {"E1": 10, "E2": 4}, background="Why not"),
         make_petition(2, {"E2": 9}, created="2015-08-01", country_extra=2)],
        constituencies=cons)


def test_snapshot_roundtrip(tmp_path):
    c = _sample_corpus()
    path = str(tmp_path / "snap.jsonl")
    corpus.save_corpus(c, path)
    back = corpus.load_corpus(path)
    assert back.window == c.window
    assert back.constituencies == c.constituencies
    assert len(back.petitions) == len(c.petitions)
    for a, b in zip(c.petitions, back.petitions):
        assert a == b


def test_snapshot_bytes_deterministic(tmp_path):
    c = _sample_corpus()
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    corpus.save_corpus(c, str(p1))
    corpus.save_corpus(c, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_corpus_rejects_plain_archive(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, by_con=[_sig("E1", 40)]),
    ])
    with pytest.raises(ArchiveFormatError, match="missing _meta"):
        corpus.load_corpus(path)


def test_load_corpus_rejects_unknown_format(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        json.dumps({"_meta": {"format": "other-tool", "version": 1}}),
    ])
    with pytest.raises(ArchiveFormatError, match="unrecognized"):
        corpus.load_corpus(path)


def test_load_corpus_rejects_unknown_version(tmp_path):
    path = tmp_path / "snap.jsonl"
    corpus.save_corpus(_sample_corpus(), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0].replace('"version":1', '"version":2')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArchiveFormatError) as err:
        corpus.load_corpus(str(path))
    assert str(path) in str(err.value)
    assert "version 2" in str(err.value) and "expected 1" in str(err.value)


def test_load_corpus_strict_about_corruption(tmp_path):
    c = _sample_corpus()
    path = tmp_path / "snap.jsonl"
    corpus.save_corpus(c, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"action"', '"motion"')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArchiveFormatError, match="corrupt snapshot record"):
        corpus.load_corpus(str(path))


def test_write_rejects_report_escapes_commas(tmp_path):
    report = corpus.IngestReport(total_lines=2, accepted=1,
                                 rejects=[(2, "bad, very bad")])
    path = tmp_path / "rejects.csv"
    corpus.write_rejects_report(report, str(path), {"tool": "x 1"})
    text = path.read_text(encoding="utf-8")
    assert '2,"bad, very bad"' in text
    rows = list(csv.reader(line for line in text.splitlines()
                           if not line.startswith("#")))
    assert rows == [["line_no", "reason"], ["2", "bad, very bad"]]
    assert text.startswith("# tool: x 1\n")
