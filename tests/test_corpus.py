"""Archive ingestion, validation, and corpus snapshots."""

import csv
import dataclasses
import datetime
import json
import random

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from petmine import corpus, util
from petmine.errors import (ArchiveFormatError, EmptyCorpusError,
                            ValidationError)

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


def _row(c, d):
    """The signatures of petition ``d`` by code, read from the columns."""
    row = c.signatures[d]
    return {c.codes[j]: n for j, n in zip(row.indices.tolist(),
                                          row.data.tolist())}


# ---------------------------------------------------------------------------
# load_archive


def test_load_archive_happy_path(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(2, by_con=[_sig("E1", 30), _sig("E2", 10)]),
        _record(1, created="2015-07-04", total=5, by_con=[_sig("E1", 5)]),
    ])
    c = corpus.load_archive(path)
    assert len(c.ids) == 2
    assert c.ingest_report.rejects == []
    # petitions come back sorted by id
    assert c.ids == ["1", "2"]
    assert c.texts[1] == "Fix the thing It is broken"
    # window inferred from the data when not configured
    assert c.window == (datetime.date(2015, 6, 1), datetime.date(2015, 7, 4))
    assert c.day.tolist() == [33, 0]
    assert c.total.tolist() == [5, 40]
    # without metadata the columns are the codes met, sorted
    assert c.codes == ("E1", "E2")
    assert _row(c, 1) == {"E1": 30, "E2": 10}
    assert c.uk.tolist() == [5, 40]


def test_load_archive_has_no_header_line(tmp_path):
    # an archive is records only: a _meta line is a record without an id
    path = _write_archive(tmp_path / "a.jsonl", [
        json.dumps({"_meta": {"format": "whatever"}}),
        _record(1, by_con=[_sig("E1", 40)]),
    ])
    c = corpus.load_archive(path)
    assert c.ingest_report.total_lines == 2
    assert len(c.ids) == 1
    assert c.ingest_report.rejects == [(1, "missing id")]


def test_load_archive_drops_records_not_accepted(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, by_con=[_sig("E1", 40)]),
        _record(2, state="rejected", by_con=[_sig("E1", 40)]),
        _record(3, state="open", by_con=[_sig("E1", 40)]),
    ])
    c = corpus.load_archive(path)
    assert len(c.ids) == 1
    assert c.ingest_report.dropped_state == 2
    assert c.ingest_report.rejects == []
    assert c.ids == ["1"]


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
    (json.dumps(_record(9, total=2**53 + 1)), "exceeds 2^53"),
    (json.dumps(_record(9, total=None,
                        by_country=[{"code": "GB", "signature_count": 2**52},
                                    {"code": "FR", "signature_count": 2**53}])),
     "exceeds 2^53"),
    ("[" * 100_000 + "]" * 100_000, "invalid json"),
    ('{"id": ' + "9" * 5_000 + "}", "invalid json"),
    # a lone surrogate has no UTF-8 encoding, so no snapshot could hold it
    (json.dumps(_record(9, action="Fix \ud800 it")), "invalid utf-8"),
    (json.dumps(_record(9, by_con=[_sig("E\udfff", 1)], total=1)),
     "invalid utf-8"),
])
def test_load_archive_rejects_bad_records(tmp_path, mangle, reason_part):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, by_con=[_sig("E1", 40)]),
        mangle,
    ])
    c = corpus.load_archive(path)
    assert len(c.ids) == 1
    assert len(c.ingest_report.rejects) == 1
    line_no, reason = c.ingest_report.rejects[0]
    assert line_no == 2
    assert reason_part in reason


def test_load_archive_rejects_undecodable_line(tmp_path):
    good = json.dumps(_record(1, by_con=[_sig("E1", 40)])).encode()
    path = tmp_path / "a.jsonl"
    path.write_bytes(b"\n".join([
        good, b'{"id": "2", "state": "accepted\xff"}', b"\xff\xfe",
        json.dumps(_record(3, by_con=[_sig("E1", 40)])).encode()]) + b"\n")
    c = corpus.load_archive(str(path))
    assert c.ids == ["1", "3"]
    assert c.ingest_report.total_lines == 4
    assert c.ingest_report.rejects == [(2, "invalid utf-8"), (3, "invalid utf-8")]


def test_load_archive_duplicate_id_rejected(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(7, by_con=[_sig("E1", 40)]),
        _record(7, by_con=[_sig("E1", 1)], total=1),
    ])
    c = corpus.load_archive(path)
    assert len(c.ids) == 1
    assert c.ingest_report.rejects == [(2, "duplicate id 7")]


def test_load_archive_sums_duplicate_codes_within_record(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, by_con=[_sig("E1", 10), _sig("E1", 5), _sig("E2", 1)],
                total=16),
    ])
    c = corpus.load_archive(path)
    assert _row(c, 0) == {"E1": 15, "E2": 1}


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
    assert c.total.tolist() == [13, 7]


def test_load_archive_window_filter(tmp_path):
    window = (datetime.date(2015, 1, 1), datetime.date(2015, 12, 31))
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, created="2015-06-01", by_con=[_sig("E1", 40)]),
        _record(2, created="2016-01-01", by_con=[_sig("E1", 40)]),
        _record(3, created="2014-12-31", by_con=[_sig("E1", 40)]),
    ])
    c = corpus.load_archive(path, window=window)
    assert c.ids == ["1"]
    assert c.window == window
    assert c.day.tolist() == [151]
    reasons = [r for _, r in c.ingest_report.rejects]
    assert reasons == ["created_at outside configured window"] * 2


def test_load_archive_unknown_code_bucketed(tmp_path):
    cons = (corpus.ConstituencyMeta("E1", "Alpha", 70000),)
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, by_con=[_sig("E1", 30), _sig("ZZ9", 6), _sig("XX1", 4)]),
    ])
    c = corpus.load_archive(path, constituencies=cons)
    # with metadata the columns are its codes in file order, then UNKNOWN
    assert c.codes == ("E1", "UNKNOWN")
    assert _row(c, 0) == {"E1": 30, "UNKNOWN": 10}
    # bucketed signatures still count toward the UK total
    assert c.uk.tolist() == [40]


def test_unlisted_lone_surrogate_code_is_rejected_with_or_without_metadata(
        tmp_path):
    # the code reaches the corpus raw, to be folded there, so it is
    # checked like every other kept string even when it is not listed
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, by_con=[_sig("E1", 40)]),
        _record(2, by_con=[_sig("E1", 1), _sig("E\udfff", 1)], total=2),
    ])
    for cons in ((), (corpus.ConstituencyMeta("E1", "Alpha", 70000),)):
        c = corpus.load_archive(path, constituencies=cons)
        assert c.ids == ["1"]
        assert c.ingest_report.rejects == [(2, "invalid utf-8")]


def test_load_archive_breaks_lines_at_newline_only(tmp_path):
    one = json.dumps(_record(1, by_con=[_sig("E1", 40)]))
    two = json.dumps(_record(2, by_con=[_sig("E1", 40)]))
    path = tmp_path / "a.jsonl"
    # a bare \r between JSON tokens is whitespace, not a line break
    path.write_bytes(
        "\n".join([one.replace(', "state"', ',\r"state"'), two, "not json"])
        .encode() + b"\n")
    c = corpus.load_archive(str(path))
    assert c.ids == ["1", "2"]
    assert c.ingest_report.total_lines == 3
    assert c.ingest_report.rejects == [(3, "invalid json")]


def test_load_archive_crlf_line_numbers(tmp_path):
    one = json.dumps(_record(1, by_con=[_sig("E1", 40)]))
    path = tmp_path / "a.jsonl"
    path.write_bytes("\r\n".join([one, "not json", "", one]).encode() + b"\r\n")
    c = corpus.load_archive(str(path))
    assert c.ids == ["1"]
    assert c.ingest_report.total_lines == 3     # the blank line is skipped
    assert c.ingest_report.rejects == [(2, "invalid json"),
                                       (4, "duplicate id 1")]


_FOLD_CODES = ["E1", "E2", "Ross, Skye", "UNKNOWN", "Z9"]


@given(records=st.lists(
           st.lists(st.tuples(st.sampled_from(_FOLD_CODES),
                              st.integers(0, 2**40)), max_size=6),
           min_size=1, max_size=6),
       listed=st.lists(st.sampled_from(["E1", "E2", "Ross, Skye", "Z9"]),
                       unique=True, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_unlisted_codes_are_folded_once(tmp_path, caplog, records, listed):
    # records hold duplicate codes, codes with commas and a code named
    # UNKNOWN; ``listed`` is the constituency metadata
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(d, total=None, by_con=[_sig(code, n) for code, n in entries])
        for d, entries in enumerate(records)])
    cons = tuple(corpus.ConstituencyMeta(code, f"Seat {code}", 1000)
                 for code in listed)
    bare = corpus.load_archive(path)
    caplog.clear()
    with caplog.at_level("WARNING", logger="petmine.corpus"):
        folded = corpus.load_archive(path, constituencies=cons)
    assert folded.codes == (*listed, corpus.UNKNOWN_CODE)
    assert folded.uk.tolist() == bare.uk.tolist() == [
        sum(n for _, n in entries) for entries in records]
    matrix = folded.signatures.toarray()
    for j, code in enumerate(listed):
        assert matrix[:, j].tolist() == [
            sum(n for c, n in entries if c == code) for entries in records]
    assert matrix[:, -1].tolist() == [
        sum(n for c, n in entries if c not in listed) for entries in records]
    unlisted = {c for entries in records for c, _ in entries} - set(listed)
    assert [r.getMessage() for r in caplog.records] == [
        f"unknown constituency code {c}; bucketing as UNKNOWN"
        for c in sorted(unlisted)]


@pytest.mark.parametrize("with_metadata", [False, True])
def test_load_archive_ignores_line_order(tmp_path, with_metadata):
    # ids 1..12 sort as strings, so no line order below is the id order;
    # ZZ9 is unlisted and petition 5 lists E2 twice
    records = [_record(d, created=f"2015-06-{d:02d}", total=None, by_con=[
        _sig("E1", d), _sig("ZZ9", 2 * d), _sig("E2", 3 * d)]
        + ([_sig("E2", 7)] if d == 5 else []))
        for d in range(1, 13)]
    cons = ((corpus.ConstituencyMeta("E1", "Alpha", 70000),
             corpus.ConstituencyMeta("E2", "Beta", 68000))
            if with_metadata else ())
    shuffled = records[:]
    random.Random(3).shuffle(shuffled)
    snapshots = set()
    for i, order in enumerate((records, records[::-1], shuffled)):
        c = corpus.load_archive(
            _write_archive(tmp_path / f"{i}.jsonl", order),
            constituencies=cons)
        corpus.save_corpus(c, str(tmp_path / f"{i}.snap"))
        snapshots.add((tmp_path / f"{i}.snap").read_bytes())
    assert len(snapshots) == 1
    assert c.ids == sorted(str(d) for d in range(1, 13))
    assert _row(c, c.ids.index("5")) == (
        {"E1": 5, "E2": 22, "UNKNOWN": 10} if with_metadata
        else {"E1": 5, "E2": 22, "ZZ9": 10})


def _line(record, end="\n"):
    return (record if isinstance(record, str) else json.dumps(record)) + end


def _edge_archive(path):
    """Six segments of one length, so that two chunks cut the archive
    after segment 3 and three chunks after segments 2 and 4.  Each
    segment's first and last lines sit at a cut in one of those splits;
    blank padding fills the middle.  Returns the line each segment starts
    on."""
    e = [_sig("E1", 5)]
    segments = [
        ([_line(_record(1, by_con=[_sig("E1", 5), _sig("Z8", 1)])),
          _line(_record(7, by_con=[_sig("E2", 2)]))],
         [_line(_record(8, created="2015-07-01", by_con=e))]),
        ([_line(_record(3, by_con=[_sig("E2", 3)]))],
         [_line("not json", "\r\n"), _line(_record(2, by_con=e))]),
        # a duplicate whose first copy is two segments back, holding a
        # code no kept record holds
        ([_line(_record(7, by_con=[_sig("Z7", 4)])), "\r\n",
          _line(_record(4, by_con=e)).replace(', "state"', ',\r"state"')],
         [_line(_record(5, action="Fix \ud800", by_con=e))]),
        # a duplicate far outside the other records' dates
        ([_line(_record(8, created="1999-01-01", by_con=[_sig("Z6", 9)]))],
         [_line(_record(6, by_con=[_sig("E1", 1), _sig("Z9", 6)])),
          _line(_record(9, state="rejected")), _line(_record(3), "\r\n")]),
        # no record from here on is kept
        ([_line(_record(1)), _line("{")],
         [_line(_record(10, state="open"))]),
        (["\udcff not UTF-8\n", _line(_record(11, action=""))],
         [_line(_record(6, created="2030-01-01")), "\n"]),
    ]
    parts = [("".join(head).encode("utf-8", "surrogateescape"),
              "".join(tail).encode("utf-8", "surrogateescape"))
             for head, tail in segments]
    length = max(len(head) + len(tail) for head, tail in parts) + 1
    data = b"".join(head + b" " * (length - len(head) - len(tail) - 1)
                    + b"\n" + tail for head, tail in parts)
    path.write_bytes(data)
    starts = [data[:i * length].count(b"\n") + 1 for i in range(6)]
    return str(path), length, starts


@pytest.mark.parametrize("window", [
    (datetime.date(2015, 5, 1), datetime.date(2016, 12, 31)), None])
@pytest.mark.parametrize("listed", [(), ("E1", "E2")])
def test_chunked_ingest_matches_one_chunk(tmp_path, monkeypatch, caplog,
                                          window, listed):
    path, length, starts = _edge_archive(tmp_path / "a.jsonl")
    cons = tuple(corpus.ConstituencyMeta(code, f"Seat {code}", 1000)
                 for code in listed)
    monkeypatch.setattr(corpus, "_MIN_CHUNK_BYTES", 1)
    outcomes = []
    for n in (1, 2, 3):
        monkeypatch.setattr(util, "cores", lambda: n)
        caplog.clear()
        with caplog.at_level("INFO", logger="petmine.corpus"):
            c = corpus.load_archive(path, window, cons)
        out = tmp_path / f"out{n}"
        corpus.save_corpus(c, str(out / "corpus.jsonl"))
        corpus.write_rejects_report(c.ingest_report,
                                    str(out / "rejects.csv"), {})
        messages = [r.getMessage() for r in caplog.records]
        sizes = ", ".join([str(6 * length // n)] * n)
        assert messages[0] == (f"reading {path}: {n} process(es), chunks "
                               f"of {sizes} bytes")
        outcomes.append((c.ingest_report, messages[1:],
                         (out / "corpus.jsonl").read_bytes(),
                         (out / "rejects.csv").read_bytes()))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]

    report, warnings = outcomes[0][:2]
    assert c.ids == ["1", "2", "3", "4", "6", "7", "8"]
    assert c.window == window or (
        datetime.date(2015, 6, 1), datetime.date(2015, 7, 1))
    assert warnings == ([f"unknown constituency code {code}; bucketing as "
                         f"UNKNOWN" for code in ("Z8", "Z9")]
                        if listed else [])
    assert report.total_lines == 19 and report.dropped_state == 2
    # the window, when set, refuses the far-off copies before the
    # duplicate check does
    far_off = ("created_at outside configured window" if window else
               "duplicate id {}")
    assert [r for r in report.rejects if r[0] in starts] == [
        (starts[2], "duplicate id 7"), (starts[3], far_off.format(8)),
        (starts[4], "duplicate id 1"), (starts[5], "invalid utf-8")]
    assert [reason for _, reason in report.rejects] == [
        "invalid json", "duplicate id 7", "invalid utf-8", far_off.format(8),
        "duplicate id 3", "duplicate id 1", "invalid json", "invalid utf-8",
        "empty field 'action'", far_off.format(6)]


def _line_starts(data: bytes, lo: int, hi: int) -> list[int]:
    return [i for i in range(lo, hi) if i == 0 or data[i - 1:i] == b"\n"]


def test_byte_ranges_own_the_lines_that_start_in_them(tmp_path, monkeypatch):
    # a long line of three-byte characters, which some cuts fall inside,
    # and a later copy of its id
    e = [_sig("E1", 5)]
    lines = [json.dumps(_record(1, by_con=e)),
             json.dumps(_record(2, background="€" * 300, by_con=e),
                        ensure_ascii=False),
             "not json",
             json.dumps(_record(3, action="Fix ü", by_con=e),
                        ensure_ascii=False),
             json.dumps(_record(2, by_con=e)), "", json.dumps(_record(4))]
    path = tmp_path / "a.jsonl"
    data = "\n".join(lines).encode("utf-8")     # the last line has no \n
    path.write_bytes(data)
    cuts = {n: [len(data) * i // n for i in range(n + 1)] for n in (2, 3, 4)}
    inner = [c for cs in cuts.values() for c in cs[1:-1]]
    assert any(data[c - 1:c] != b"\n" for c in inner)             # mid-line
    assert any(data[c] & 0xC0 == 0x80 for c in inner)       # mid-character
    assert not _line_starts(data, cuts[4][1], cuts[4][2])  # no line starts

    monkeypatch.setattr(corpus, "_MIN_CHUNK_BYTES", 1)
    outcomes = []
    for n in (1, 2, 3, 4):
        monkeypatch.setattr(util, "cores", lambda: n)
        c = corpus.load_archive(str(path))
        out = tmp_path / f"out{n}"
        corpus.save_corpus(c, str(out / "corpus.jsonl"))
        corpus.write_rejects_report(c.ingest_report,
                                    str(out / "rejects.csv"), {})
        outcomes.append((c.ingest_report, (out / "corpus.jsonl").read_bytes(),
                         (out / "rejects.csv").read_bytes()))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    assert c.ids == ["1", "2", "3", "4"]
    assert c.texts[1].endswith("€" * 300) and c.texts[2].startswith("Fix ü")
    assert c.ingest_report == corpus.IngestReport(
        total_lines=6, rejects=[(3, "invalid json"), (5, "duplicate id 2")])


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
    empty = dataclasses.replace(c, ids=[], texts=[], day=c.day[:0],
                                total=c.total[:0], signatures=c.signatures[:0])
    with pytest.raises(EmptyCorpusError):
        corpus.uk_signature_total(empty)


# ---------------------------------------------------------------------------
# Corpus invariants, checked by the constructor


@pytest.mark.parametrize("name", ["ids", "texts", "day", "total", "codes"])
def test_corpus_rejects_a_column_of_the_wrong_length(name):
    # without metadata, so that shortening codes trips the length check
    c = dataclasses.replace(_sample_corpus(), constituencies=())
    expected = 3 if name == "codes" else 2
    with pytest.raises(ValidationError, match=f"'{name}' has {expected - 1} "
                       f"entries, expected {expected} for a 2 x 3 signature"):
        dataclasses.replace(c, **{name: getattr(c, name)[:-1]})


def test_corpus_rejects_a_day_outside_the_window():
    c = make_corpus([make_petition(0, {"E1": 5}, created="2015-06-01"),
                     make_petition(1, {"E1": 5}, created="2015-06-02")])
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(c, window=(c.window[0], c.window[0]))
    assert str(err.value) == ("column 'day': petition 1 created 2015-06-02 "
                              "outside window 2015-06-01..2015-06-01")
    late = (datetime.date(2015, 6, 2), datetime.date(2015, 6, 9))
    with pytest.raises(ValidationError,
                       match="petition 0 created 2015-06-01 outside"):
        dataclasses.replace(c, window=late, day=c.day - 1)
    # an offset past any date still names the day column
    with pytest.raises(ValidationError, match="column 'day': petition 1"):
        dataclasses.replace(c, day=np.array([0, 2**53]))


@pytest.mark.parametrize("index", [5, 2, -1])
def test_corpus_rejects_a_column_index_that_names_no_code(index):
    c = make_corpus([make_petition(0, {"E1": 3})])
    signatures = sp.csr_matrix((np.array([3]), np.array([index]),
                                np.array([0, 1])), shape=(1, 2))
    with pytest.raises(ValidationError,
                       match=r"column 'indices' holds a value outside 0\.\.1"):
        dataclasses.replace(c, codes=("E1", "E2"), signatures=signatures)


_NOT_THE_METADATA_CODES = "codes are not the constituency metadata codes"


def test_corpus_rejects_codes_out_of_step_with_constituencies():
    c = _sample_corpus()
    with pytest.raises(ValidationError, match=_NOT_THE_METADATA_CODES):
        dataclasses.replace(c, codes=("E2", "E1", "UNKNOWN"))
    with pytest.raises(ValidationError, match=_NOT_THE_METADATA_CODES):
        dataclasses.replace(c, constituencies=c.constituencies[::-1])
    # without metadata the codes are whatever the records held
    loose = dataclasses.replace(c, codes=("E2", "E1", "UNKNOWN"),
                                constituencies=())
    assert loose.uk.tolist() == c.uk.tolist()


@pytest.mark.parametrize("n", [1, 2])
def test_byte_order_mark_opens_an_archive(tmp_path, monkeypatch, n):
    # two lines of one length, so that with the mark the two-way cut falls
    # inside its three bytes' reach of the second line's start: only a
    # first range that counts the mark's bytes leaves that line to the
    # second range
    lines = [json.dumps(_record(1)), json.dumps(_record(2))]
    monkeypatch.setattr(corpus, "_MIN_CHUNK_BYTES", 1)
    monkeypatch.setattr(util, "cores", lambda: n)
    loaded = []
    for name, first in (("plain", lines[0]), ("marked", "\ufeff" + lines[0])):
        c = corpus.load_archive(
            _write_archive(tmp_path / f"{name}.jsonl", [first, lines[1]]))
        corpus.save_corpus(c, str(tmp_path / f"{name}.snapshot"))
        loaded.append((c.ingest_report,
                       (tmp_path / f"{name}.snapshot").read_bytes()))
    assert loaded[1] == loaded[0]
    assert loaded[0][0].rejects == []
    # one record after the mark is an archive of one petition
    one = corpus.load_archive(
        _write_archive(tmp_path / "one.jsonl", ["\ufeff" + lines[0]]))
    assert one.ids == ["1"] and one.ingest_report.rejects == []
    # anywhere but the file's start the mark is data, and no JSON
    inner = corpus.load_archive(_write_archive(
        tmp_path / "inner.jsonl", [lines[0], "\ufeff" + lines[1]]))
    assert inner.ingest_report.rejects == [(2, "invalid json")]


# ---------------------------------------------------------------------------
# load_constituencies


def test_load_constituencies(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("code,name,electorate\nE1,Alpha,70000\nE2,Beta,68000\n",
                    encoding="utf-8")
    cons = corpus.load_constituencies(str(path))
    assert [c.code for c in cons] == ["E1", "E2"]
    assert cons[0].electorate == 70000
    marked = tmp_path / "marked.csv"
    marked.write_text("\ufeff" + path.read_text("utf-8"), encoding="utf-8")
    assert corpus.load_constituencies(str(marked)) == cons


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


@pytest.mark.parametrize("body, fault", [
    # a listed UNKNOWN would be a second column of that name beside the
    # bucket for unlisted codes
    ("code,name,electorate\nE1,Alpha,70000\nUNKNOWN,Beta,68000\n",
     "3: code UNKNOWN is reserved"),
    # a quoted line break and a blank line before the bad row, which is
    # the third row but on line 5
    ('code,name,electorate\nE1,"Seat\nOne",1000\n\nE2,Two,abc\n',
     "5: electorate is not a positive integer"),
])
def test_load_constituencies_fault_names_the_line(tmp_path, body, fault):
    path = tmp_path / "cons.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ArchiveFormatError) as err:
        corpus.load_constituencies(str(path))
    assert str(err.value) == f"{path}:{fault}"


def test_constituency_meta_validates_electorate():
    with pytest.raises(Exception):
        corpus.ConstituencyMeta("E1", "Alpha", -5)


# ---------------------------------------------------------------------------
# ingest fuzzing

_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=8))
_json = st.recursive(
    _json_scalars,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=8)
# texts that UTF-8 cannot encode reach the parser only as \u escapes
_texts = st.text(max_size=12) | st.sampled_from(["\ud800", "a\udfffb"])
_entry = st.fixed_dictionaries({
    "ons_code": st.sampled_from(["E1", "E2", "Ross, Skye"]) | _texts | _json,
    "signature_count": st.integers(-2, 2**64) | _json,
})
_record_strategy = st.fixed_dictionaries({
    "id": st.integers() | _texts | _json,
    "state": st.sampled_from(["accepted", "closed"]) | _json,
    "attributes": _json | st.fixed_dictionaries({
        "action": _texts | _json,
        "background": _texts | _json,
        "additional_details": st.none() | _texts | _json,
        "created_at": st.dates().map(str) | _texts | _json,
        "signature_count": st.none() | st.integers(-2, 2**64) | _json,
        "signatures_by_constituency": (st.none() | _json
                                       | st.lists(_entry, max_size=4)),
        "signatures_by_country": st.none() | _json | st.lists(
            st.fixed_dictionaries({"code": _texts,
                                   "signature_count": st.integers(-2, 2**64)}),
            max_size=3),
    }),
})
_lines = (st.binary(max_size=40) | st.text(max_size=40)
          | _json.map(json.dumps) | _record_strategy.map(json.dumps)
          | _record_strategy.map(lambda r: json.dumps(r, ensure_ascii=False)
                                 .encode("utf-8", "surrogatepass")))


@given(line=_lines, with_metadata=st.booleans())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_line_is_accepted_or_rejected(tmp_path, line, with_metadata):
    if isinstance(line, str):
        line = line.encode("utf-8")
    # one line: ingest breaks lines at \n only, so a \r stays in the line
    line = line.replace(b"\n", b" ")
    path = tmp_path / "a.jsonl"
    good = json.dumps(_record("0", by_con=[_sig("E1", 40)])).encode()
    path.write_bytes(good + b"\n" + line + b"\n")
    cons = (corpus.ConstituencyMeta("E1", "Alpha", 70000),) if with_metadata else ()
    c = corpus.load_archive(str(path), constituencies=cons)
    report = c.ingest_report
    assert report.total_lines in (1, 2)     # a blank line is not counted
    assert len(c.ids) + report.dropped_state + len(report.rejects) \
        == report.total_lines
    assert all(line_no == 2 for line_no, _ in report.rejects)
    # whatever was accepted can be written and read back
    corpus.save_corpus(c, str(tmp_path / "snap.jsonl"))
    assert corpus.load_corpus(str(tmp_path / "snap.jsonl")).ids == c.ids


# ---------------------------------------------------------------------------
# snapshots


def _sample_corpus():
    cons = (corpus.ConstituencyMeta("E1", "Alpha", 70000),
            corpus.ConstituencyMeta("E2", "Beta", 68000))
    return make_corpus(
        [make_petition(1, {"E1": 10, "E2": 4}, background="Why not"),
         make_petition(2, {"E2": 9}, created="2015-08-01", country_extra=2)],
        constituencies=cons)


def _assert_same_columns(a, b):
    assert a.ids == b.ids
    assert a.texts == b.texts
    for name in ("day", "total", "uk"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype == np.int64, name
        assert np.array_equal(x, y), name
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.signatures, name),
                              getattr(b.signatures, name)), name
    assert a.signatures.shape == b.signatures.shape
    assert a.signatures.dtype == b.signatures.dtype == np.int64
    assert a.codes == b.codes
    assert a.constituencies == b.constituencies
    assert a.window == b.window


def test_snapshot_roundtrip(tmp_path):
    c = _sample_corpus()
    path = str(tmp_path / "snap.jsonl")
    corpus.save_corpus(c, path)
    _assert_same_columns(c, corpus.load_corpus(path))


_CODES = ["E1", "E2", "Ross, Skye and Lochaber", "UNKNOWN", 'Say "hi"',
          "L ine", "Né"]


@st.composite
def _corpora(draw):
    """A corpus built straight from drawn columns, and its signature rows."""
    n = draw(st.integers(0, 8))
    listed = draw(st.lists(st.sampled_from(_CODES[:3] + _CODES[4:]),
                           unique=True, max_size=4))
    cons = tuple(corpus.ConstituencyMeta(code, f"Seat, {code}", 1000 + i)
                 for i, code in enumerate(listed))
    codes = (*listed, corpus.UNKNOWN_CODE) if cons else tuple(
        draw(st.lists(st.sampled_from(_CODES), unique=True, max_size=4)))
    rows = draw(st.lists(
        st.lists(st.just(0) | st.integers(0, 2**40), min_size=len(codes),
                 max_size=len(codes)),
        min_size=n, max_size=n))

    def column(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    start = datetime.date(2015, 5, 7)
    c = corpus.Corpus(
        ids=draw(st.lists(st.text(min_size=1, max_size=6), min_size=n,
                          max_size=n, unique=True)),
        texts=column(st.text(max_size=40)),
        day=np.array(column(st.integers(0, 60)), dtype=np.int64),
        total=np.array([sum(row) + extra for row, extra in
                        zip(rows, column(st.integers(0, 50)))],
                       dtype=np.int64),
        signatures=sp.csr_matrix(
            np.array(rows, dtype=np.int64).reshape(n, len(codes))),
        codes=codes, constituencies=cons,
        window=(start, start + datetime.timedelta(
            days=draw(st.integers(60, 90)))))
    return c, rows


@given(_corpora())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_snapshot_v2_roundtrip_and_stable_bytes(tmp_path, drawn):
    c, rows = drawn
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    corpus.save_corpus(c, str(one))
    back = corpus.load_corpus(str(one))
    _assert_same_columns(c, back)
    corpus.save_corpus(back, str(two))
    assert one.read_bytes() == two.read_bytes()
    # the UK totals equal the per-petition sums, kept as the reference
    assert back.uk.tolist() == [sum(row) for row in rows]
    if rows:
        assert corpus.uk_signature_total(back) == sum(back.uk.tolist())


def test_snapshot_bytes_deterministic(tmp_path):
    c = _sample_corpus()
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    corpus.save_corpus(c, str(p1))
    corpus.save_corpus(c, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_layout(tmp_path):
    path = tmp_path / "snap.jsonl"
    corpus.save_corpus(_sample_corpus(), str(path))
    lines = [json.loads(line) for line in
             path.read_text(encoding="utf-8").splitlines()]
    meta = lines[0]["_meta"]
    assert meta["version"] == 2 and meta["n_petitions"] == 2
    assert meta["codes"] == ["E1", "E2", "UNKNOWN"]
    assert [list(line) for line in lines[1:]] == [
        ["ids"], ["texts"], ["day"], ["total"], ["indptr"], ["indices"],
        ["data"]]
    assert lines[3]["day"] == [0, 61]
    assert lines[5]["indptr"] == [0, 2, 3]


# the snapshot writer's digit edges: 0, each power of ten and the number
# below it, 2**53 (the largest count a load accepts) and the int64 maximum
_DIGIT_EDGES = sorted({0, 2**53, 2**63 - 1, *(10**e for e in range(19)),
                       *(10**e - 1 for e in range(1, 19))})
_SNAPSHOT_INT = st.sampled_from(_DIGIT_EDGES) | st.integers(0, 2**63 - 1)


def _json_snapshot(c, meta_line: bytes) -> bytes:
    """The snapshot of ``c`` with every column written by canonical_json
    over the column as a list, after the saved ``_meta`` line."""
    sig = c.signatures
    columns = {"ids": c.ids, "texts": c.texts, "day": c.day.tolist(),
               "total": c.total.tolist(), "indptr": sig.indptr.tolist(),
               "indices": sig.indices.tolist(), "data": sig.data.tolist()}
    lines = [util.canonical_json({name: columns[name]}).encode()
             for name in ("ids", "texts", "day", "total", "indptr",
                          "indices", "data")]
    return b"\n".join([meta_line, *lines]) + b"\n"


@st.composite
def _int_corpora(draw):
    """A corpus whose integer columns hold any value the constructor lets
    through: days over a window of up to a million days, totals and
    signature counts (explicit zeros too) anywhere in 0..2**63-1."""
    n = draw(st.integers(0, 5))
    n_codes = draw(st.integers(0, 3))
    rows = [sorted(draw(st.lists(st.integers(0, max(n_codes - 1, 0)),
                                 unique=True, max_size=n_codes)))
            for _ in range(n)]

    def column(strategy, size=n):
        return np.array(draw(st.lists(strategy, min_size=size,
                                      max_size=size)), dtype=np.int64)

    day = column(st.sampled_from([d for d in _DIGIT_EDGES if d <= 10**6])
                 | st.integers(0, 10**6))
    start = datetime.date(2015, 5, 7)
    nnz = sum(map(len, rows))
    return corpus.Corpus(
        ids=draw(st.lists(st.text(min_size=1, max_size=4), min_size=n,
                          max_size=n, unique=True)),
        texts=draw(st.lists(st.text(max_size=10), min_size=n, max_size=n)),
        day=day, total=column(_SNAPSHOT_INT),
        signatures=sp.csr_matrix(
            (column(_SNAPSHOT_INT, nnz),
             np.array([j for row in rows for j in row], dtype=np.int64),
             np.cumsum([0, *map(len, rows)])),
            shape=(n, n_codes)),
        codes=tuple(f"E{j}" for j in range(n_codes)), constituencies=(),
        window=(start, start + datetime.timedelta(
            days=int(day.max(initial=0)) + draw(st.integers(0, 9)))))


@given(_int_corpora())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_snapshot_bytes_are_the_json_module_s(tmp_path, c):
    path = tmp_path / "snap.jsonl"
    corpus.save_corpus(c, str(path))
    saved = path.read_bytes()
    assert saved == _json_snapshot(c, saved.split(b"\n", 1)[0])


@pytest.mark.parametrize("values", [[], [0], [7], [10], [2**53],
                                    _DIGIT_EDGES, _DIGIT_EDGES[::-1]])
def test_snapshot_integer_lines_at_the_digit_edges(tmp_path, values):
    # one petition per value, holding it as its total and its one count
    n = len(values)
    c = corpus.Corpus(
        ids=[f"p{d:02d}" for d in range(n)], texts=[""] * n,
        day=np.zeros(n, np.int64), total=np.array(values, np.int64),
        signatures=sp.csr_matrix(
            (np.array(values, np.int64), np.zeros(n, np.int64),
             np.arange(n + 1)), shape=(n, 1)),
        codes=("E1",), constituencies=(),
        window=(datetime.date(2015, 5, 7), datetime.date(2015, 5, 7)))
    path = tmp_path / "snap.jsonl"
    corpus.save_corpus(c, str(path))
    saved = path.read_bytes()
    assert saved == _json_snapshot(c, saved.split(b"\n", 1)[0])
    assert b'{"total":[' + ",".join(map(str, values)).encode() + b"]}" in saved


@pytest.mark.parametrize("value", [-1, -10, -(2**63)])
@pytest.mark.parametrize("name", ["total", "data"])
def test_save_corpus_refuses_a_negative_value(tmp_path, name, value):
    # no snapshot holds one: a load refuses it, so a save does too
    c = _sample_corpus()
    (c.signatures.data if name == "data" else c.total)[1] = value
    path = tmp_path / "snap.jsonl"
    with pytest.raises(ValidationError,
                       match=f"column '{name}' holds a negative value"):
        corpus.save_corpus(c, str(path))
    assert list(tmp_path.iterdir()) == []


def test_load_corpus_rejects_plain_archive(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        _record(1, by_con=[_sig("E1", 40)]),
    ])
    with pytest.raises(ArchiveFormatError, match="missing _meta"):
        corpus.load_corpus(path)


def test_load_corpus_rejects_unknown_format(tmp_path):
    path = _write_archive(tmp_path / "a.jsonl", [
        json.dumps({"_meta": {"format": "other-tool", "version": 2}}),
    ])
    with pytest.raises(ArchiveFormatError, match="is not a petmine-corpus snapshot"):
        corpus.load_corpus(path)


def test_load_corpus_refuses_version_1(tmp_path):
    # the petition-per-line layout of version 1
    path = _write_archive(tmp_path / "snap.jsonl", [
        json.dumps({"_meta": {"format": "petmine-corpus", "version": 1,
                              "window": ["2015-06-01", "2015-06-01"],
                              "n_petitions": 1, "constituencies": []}}),
        _record("1", by_con=[_sig("E1", 40)]),
    ])
    with pytest.raises(ArchiveFormatError) as err:
        corpus.load_corpus(path)
    assert path in str(err.value)
    assert "version 1" in str(err.value) and "expected 2" in str(err.value)


def _set_column(lines, name, values):
    i = 1 + ["ids", "texts", "day", "total", "indptr", "indices",
             "data"].index(name)
    lines[i] = json.dumps({name: values}, separators=(",", ":"))


def _set_meta(lines, key, value):
    head = json.loads(lines[0])
    head["_meta"][key] = value
    lines[0] = json.dumps(head)


@pytest.mark.parametrize("corrupt,field", [
    (lambda ls: _set_column(ls, "ids", ["1"]), "ids"),
    (lambda ls: _set_column(ls, "texts", ["a", 7]), "texts"),
    (lambda ls: _set_column(ls, "day", [0]), "day"),
    (lambda ls: _set_column(ls, "day", [0, 1.5]), "day"),
    (lambda ls: _set_column(ls, "day", [0, 62]), "day"),
    (lambda ls: _set_column(ls, "day", [-1, 0]), "day"),
    (lambda ls: _set_column(ls, "total", [1, "2"]), "total"),
    (lambda ls: _set_column(ls, "total", [1, 2**64]), "total"),
    (lambda ls: _set_column(ls, "total", [1, 2**53 + 1]), "total"),
    (lambda ls: _set_column(ls, "total", [1, -2]), "total"),
    (lambda ls: ls.__setitem__(4, '{"total":[1,2,]}'), "total"),
    (lambda ls: ls.__setitem__(4, '{"total":[1,,2]}'), "total"),
    (lambda ls: _set_column(ls, "indptr", [0, 2]), "indptr"),
    (lambda ls: _set_column(ls, "indptr", [0, 3, 2]), "indptr"),
    (lambda ls: _set_column(ls, "indptr", [1, 2, 3]), "indptr"),
    (lambda ls: _set_column(ls, "indices", [0, 1]), "indices"),
    (lambda ls: _set_column(ls, "indices", [0, 1, 3]), "indices"),
    (lambda ls: _set_column(ls, "indices", [0, -1, 1]), "indices"),
    (lambda ls: _set_column(ls, "data", [[1], [2], [3]]), "data"),
    (lambda ls: _set_column(ls, "texts", "ab"), "texts"),
    (lambda ls: ls.__setitem__(2, '{"texts": ["a", "b"'), "texts"),
    (lambda ls: ls.__setitem__(4, '{"total": [1, 2'), "total"),
    (lambda ls: ls.__setitem__(4, '{"totals": [1, 2]}'), "total"),
    (lambda ls: ls.__delitem__(7), "data"),
    (lambda ls: ls.append('{"extra": []}'), "data"),
    (lambda ls: _set_meta(ls, "window", ["2015-06-01"]), "window"),
    (lambda ls: _set_meta(ls, "window", ["2015-08-01", "2015-06-01"]),
     "window"),
    (lambda ls: _set_meta(ls, "n_petitions", "2"), "n_petitions"),
    (lambda ls: _set_meta(ls, "n_petitions", 3), "n_petitions"),
    (lambda ls: _set_meta(ls, "codes", "E1"), "codes"),
    (lambda ls: _set_meta(ls, "codes", ["E2", "E1", "UNKNOWN"]), "codes"),
    (lambda ls: _set_meta(ls, "constituencies", [{"code": "E1"}]),
     "constituencies"),
    (lambda ls: _set_meta(ls, "constituencies",
                          [{"code": "E1", "name": "A", "electorate": 0}]),
     "constituencies"),
    (lambda ls: _set_meta(ls, "constituencies", [
        {"code": "E1", "name": "A", "electorate": 1, "region": "X"}]),
     "constituencies"),
    # a repeated code would be two columns, and two profiles, of one seat
    (lambda ls: (_set_meta(ls, "constituencies", [
        {"code": "E1", "name": "A", "electorate": 1},
        {"code": "E1", "name": "B", "electorate": 1}]),
                 _set_meta(ls, "codes", ["E1", "E1", "UNKNOWN"])), "codes"),
    (lambda ls: (_set_meta(ls, "constituencies", []),
                 _set_meta(ls, "codes", ["E1", "E2", "E1"])), "codes"),
])
def test_load_corpus_names_the_faulty_field(tmp_path, corrupt, field):
    path = tmp_path / "snap.jsonl"
    corpus.save_corpus(_sample_corpus(), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    corrupt(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArchiveFormatError) as err:
        corpus.load_corpus(str(path))
    assert str(path) in str(err.value)
    assert field in str(err.value)


def test_write_rejects_report_escapes_commas(tmp_path):
    report = corpus.IngestReport(total_lines=2, rejects=[(2, "bad, very bad")])
    path = tmp_path / "rejects.csv"
    corpus.write_rejects_report(report, str(path), {"tool": "x 1"})
    text = path.read_text(encoding="utf-8")
    assert '2,"bad, very bad"' in text
    rows = list(csv.reader(line for line in text.splitlines()
                           if not line.startswith("#")))
    assert rows == [["line_no", "reason"], ["2", "bad, very bad"]]
    assert text.startswith("# tool: x 1\n")
