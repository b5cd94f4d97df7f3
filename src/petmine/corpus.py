"""Archive ingestion and the columnar corpus model.

The input is a JSON-lines archive, one petition per line, in the shape of
the public petitions API: ``id``, ``state``, and an ``attributes`` object
holding the free-text fields, creation date and signature breakdowns.
Ingestion filters to accepted petitions, validates each record, and
collects per-line problems into a rejects report instead of aborting, so
one malformed line cannot kill a long run.  Only structural problems
(unreadable file, nothing accepted at all) raise.

The accepted petitions are held as columns (:class:`Corpus`): ids and
merged texts as lists, creation day and signature totals as int64 arrays,
and the constituency breakdowns as one sparse petitions x codes matrix.
Each record is validated once, at ingest, straight into these columns;
there is no per-petition row type.  The snapshot written from the
columns (:func:`save_corpus`) reloads without re-parsing any record.  The
columns' layout is checked once, by the :class:`Corpus` constructor.

Determinism: petitions are sorted by id, every column is ordered, and
re-serializing a loaded corpus reproduces it byte-for-byte.
"""

from __future__ import annotations

import collections
import csv
import datetime
import io
import itertools
import json
import logging
import os
import re
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ArchiveFormatError, EmptyCorpusError, ValidationError
from .util import (Members, canonical_json, chunk_count, fork_map, from_json,
                   snapshot_meta, write_bytes, write_csv)

log = logging.getLogger(__name__)

# the signature column collecting codes absent from the constituency metadata
UNKNOWN_CODE = "UNKNOWN"

# signature counts stay exact in float64, which the analytics multiply
# them in; every integer a snapshot holds is in 0.._MAX_COUNT
_MAX_COUNT = 2**53

# the only state ingest keeps; records in any other are dropped and counted
_ACCEPTED = "accepted"


@dataclass(frozen=True)
class ConstituencyMeta:
    code: str           # ONS-style identifier, e.g. E14000530
    name: str
    electorate: int     # must be positive

    def __post_init__(self):
        if self.electorate <= 0:
            raise ValidationError(
                f"constituency {self.code}: electorate must be positive"
            )


@dataclass
class IngestReport:
    total_lines: int = 0
    dropped_state: int = 0
    rejects: list[tuple[int, str]] = field(default_factory=list)


@dataclass(eq=False)
class Corpus:
    """Accepted petitions as columns: row ``d`` of each column is petition ``d``.

    ``signatures`` is an int64 petitions x ``codes`` CSR matrix with sorted
    columns and no duplicates.  With constituency metadata its columns are
    the metadata codes in file order, then :data:`UNKNOWN_CODE`; without,
    the codes met in the records, sorted.  ``uk`` is its row sums: the
    signatures attributed to UK constituencies, overseas excluded.  The
    constructor checks this layout, that no code repeats and that each
    ``day`` is in the window.
    """
    ids: list[str]
    texts: list[str]                 # merged action, background and details
    day: np.ndarray                  # int64 creation day, offset from window[0]
    total: np.ndarray                # int64 platform-wide signature totals
    uk: np.ndarray = field(init=False)
    signatures: sp.csr_matrix
    codes: tuple[str, ...]
    constituencies: tuple[ConstituencyMeta, ...]
    window: tuple[datetime.date, datetime.date]
    ingest_report: IngestReport | None = None

    def __post_init__(self):
        rows, cols = self.signatures.shape
        for name, size in (("ids", rows), ("texts", rows), ("day", rows),
                           ("total", rows), ("codes", cols)):
            if len(getattr(self, name)) != size:
                raise ValidationError(
                    f"'{name}' has {len(getattr(self, name))} entries, "
                    f"expected {size} for a {rows} x {cols} signature matrix")
        start, end = self.window
        outside = (self.day < 0) | (self.day > (end - start).days)
        if outside.any():
            d = int(np.argmax(outside))
            raise ValidationError(
                f"column 'day': petition {self.ids[d]} created "
                f"{np.datetime64(start) + self.day[d]} outside window "
                f"{start}..{end}")
        repeated = sorted(code for code, n in
                          collections.Counter(self.codes).items() if n > 1)
        if repeated:
            raise ValidationError(f"codes repeat {repeated}")
        if self.constituencies and self.codes != (
                *(m.code for m in self.constituencies), UNKNOWN_CODE):
            raise ValidationError(
                "codes are not the constituency metadata codes, then "
                f"{UNKNOWN_CODE}")
        self.uk = np.asarray(self.signatures.sum(axis=1),
                             dtype=np.int64).ravel()


def uk_signature_total(corpus: Corpus) -> int:
    """Total constituency-attributed signatures across the corpus."""
    if not corpus.ids:
        raise EmptyCorpusError("corpus has no petitions")
    # Python ints, so the sum cannot wrap
    return sum(corpus.uk.tolist())


def load_constituencies(path: str) -> tuple[ConstituencyMeta, ...]:
    """Read constituency metadata CSV with header ``code,name,electorate``.

    This file is reference data, so any bad row is a hard error rather
    than a record-level reject.
    """
    out = []
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ArchiveFormatError(
                f"{path}: not UTF-8 (byte {exc.start})") from None
        reader = csv.DictReader(io.StringIO(text, newline=""))
        required = {"code", "name", "electorate"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ArchiveFormatError(
                f"{path}: expected CSV header code,name,electorate"
            )
        # each row with the line it ends on
        for i, row in ((reader.line_num, row) for row in reader):
            code = (row["code"] or "").strip()
            if not code:
                raise ArchiveFormatError(f"{path}:{i}: empty constituency code")
            if code in seen:
                raise ArchiveFormatError(f"{path}:{i}: duplicate code {code}")
            if code == UNKNOWN_CODE:
                # the name of the column that sums unlisted codes
                raise ArchiveFormatError(
                    f"{path}:{i}: code {UNKNOWN_CODE} is reserved")
            seen.add(code)
            try:
                out.append(ConstituencyMeta(code=code, name=row["name"],
                                            electorate=int(row["electorate"])))
            except (TypeError, ValueError, ValidationError):
                raise ArchiveFormatError(
                    f"{path}:{i}: electorate is not a positive integer") from None
    return tuple(out)


class _RecordError(Exception):
    """Internal: one record failed validation; message becomes the reject reason."""


def _require_str(obj: dict, key: str, allow_empty: bool = True) -> str:
    if key not in obj or not isinstance(obj[key], str):
        raise _RecordError(f"missing or non-string field '{key}'")
    if not allow_empty and not obj[key].strip():
        raise _RecordError(f"empty field '{key}'")
    return obj[key]


def _parse_date(value) -> datetime.date:
    if not isinstance(value, str) or len(value) < 10:
        raise _RecordError("missing or malformed created_at")
    try:
        return datetime.date.fromisoformat(value[:10])
    except ValueError:
        raise _RecordError("missing or malformed created_at") from None


def _parse_signature_list(value, key_field: str) -> tuple[list[str], list[int]]:
    """The breakdown's codes and counts, in record order, repeats kept."""
    # absent or null breakdowns are treated as empty
    if value is None:
        return [], []
    if not isinstance(value, list):
        raise _RecordError(f"signature breakdown keyed by '{key_field}' is not a list")
    codes, counts = [], []
    for entry in value:
        if not isinstance(entry, dict):
            raise _RecordError(f"signature entry under '{key_field}' is not an object")
        code = entry.get(key_field)
        count = entry.get("signature_count")
        if not isinstance(code, str) or not code:
            raise _RecordError(f"signature entry missing '{key_field}'")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise _RecordError(f"signature entry for {code}: bad signature_count")
        codes.append(code)
        counts.append(count)
    return codes, counts


def _parse_record(obj):
    """(state, id, text, created, total, constituency codes, their counts)."""
    if not isinstance(obj, dict):
        raise _RecordError("record is not a JSON object")
    raw_id = obj.get("id")
    if isinstance(raw_id, bool) or not isinstance(raw_id, (str, int)):
        raise _RecordError("missing id")
    state = _require_str(obj, "state")
    attrs = obj.get("attributes")
    if not isinstance(attrs, dict):
        raise _RecordError("missing attributes object")
    action = _require_str(attrs, "action", allow_empty=False)
    background = _require_str(attrs, "background")
    details = attrs.get("additional_details")
    if details is not None and not isinstance(details, str):
        raise _RecordError("additional_details is neither string nor null")
    created = _parse_date(attrs.get("created_at"))
    codes, counts = _parse_signature_list(
        attrs.get("signatures_by_constituency"), "ons_code")
    _, by_country = _parse_signature_list(
        attrs.get("signatures_by_country"), "code")
    uk = sum(counts)

    total = attrs.get("signature_count")
    if total is None:
        # no explicit total in the record: country sums include overseas
        # signers, so prefer them over the constituency sum
        total = sum(by_country) if by_country else uk
    elif not isinstance(total, int) or isinstance(total, bool) or total < 0:
        raise _RecordError("signature_count is not a non-negative integer")
    if total > _MAX_COUNT:
        raise _RecordError("signature_count exceeds 2^53")
    if total < uk:
        raise _RecordError("constituency signatures exceed the petition total")

    # empty or absent optional parts contribute nothing to the text
    text = " ".join(part for part in (action, background, details) if part)
    return state, str(raw_id), text, created, total, codes, counts


# a \u escape into the surrogate range: the only way a parsed record can
# hold a string that UTF-8 cannot encode
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _encodable(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# the fewest archive bytes worth a process of their own: below this the
# fork, the result's trip back and the merge cost more than the parse
# they take off the calling process (see CHANGES.md for the measurement)
_MIN_CHUNK_BYTES = 1 << 20


@dataclass
class _Chunk:
    """One byte range of an archive, read.

    ``report`` counts its lines and holds its rejects, and the other
    fields hold the records it accepted, duplicates included, in line
    order, with line numbers counted from the range's start.  Each
    record's codes are ``sizes`` entries of ``keys``, indices into
    ``code_table``, and of ``counts``.
    """
    lines: int
    report: IngestReport
    line_nos: list[int]
    ids: list[str]
    texts: list[str]
    days: np.ndarray            # int64 ordinals
    totals: np.ndarray          # int64
    sizes: np.ndarray           # int64
    code_table: list[str]
    keys: np.ndarray            # int64
    counts: np.ndarray          # int64


def _read_chunk(path: str, start: int, end: int,
                window: tuple[datetime.date, datetime.date] | None) -> _Chunk:
    """Validate the lines of ``path`` that start in bytes ``start:end``;
    a newline is never part of a multi-byte UTF-8 character."""
    report = IngestReport()
    line_nos, ids, texts, days, totals, sizes = [], [], [], [], [], []
    keys, counts = [], []
    line_no = 0
    with open(path, "rb") as fh:
        if start:
            # the line that holds byte start - 1 starts in an earlier range
            fh.seek(start - 1)
            fh.readline()
        at = fh.tell()
        for raw in fh:
            if at >= end:
                break
            at += len(raw)
            line_no += 1
            # undecodable bytes become lone surrogates, which no UTF-8
            # text holds
            line = raw.decode("utf-8", "surrogateescape").strip()
            if not line:
                continue
            report.total_lines += 1
            if not line.isascii() and not _encodable(line):
                report.rejects.append((line_no, "invalid utf-8"))
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError):
                report.rejects.append((line_no, "invalid json"))
                continue
            try:
                (state, pid, text, created, total, run_codes,
                 run_counts) = _parse_record(obj)
            except _RecordError as exc:
                report.rejects.append((line_no, str(exc)))
                continue
            if _SURROGATE_ESCAPE.search(line) and not _encodable(
                    "".join([pid, text, *run_codes])):
                report.rejects.append((line_no, "invalid utf-8"))
                continue
            if state != _ACCEPTED:
                report.dropped_state += 1
                continue
            if window is not None and not window[0] <= created <= window[1]:
                report.rejects.append(
                    (line_no, "created_at outside configured window"))
                continue
            line_nos.append(line_no)
            ids.append(pid)
            texts.append(text)
            days.append(created.toordinal())
            totals.append(total)
            sizes.append(len(run_codes))
            keys.extend(run_codes)
            counts.extend(run_counts)
    code_table = list(dict.fromkeys(keys))
    index = {code: i for i, code in enumerate(code_table)}
    return _Chunk(
        lines=line_no, report=report, line_nos=line_nos, ids=ids,
        texts=texts, days=np.array(days, dtype=np.int64),
        totals=np.array(totals, dtype=np.int64),
        sizes=np.array(sizes, dtype=np.int64), code_table=code_table,
        keys=np.fromiter(map(index.__getitem__, keys), dtype=np.int64,
                         count=len(keys)),
        counts=np.array(counts, dtype=np.int64))


def load_archive(path: str,
                 window: tuple[datetime.date, datetime.date] | None = None,
                 constituencies: tuple[ConstituencyMeta, ...] = ()) -> Corpus:
    """Load a JSON-lines petitions archive into a validated Corpus.

    Each record is validated straight into flat column buffers, whose rows
    are then sorted by id once.  Lines end at ``\\n`` only: a ``\\r``
    before it is stripped, and one elsewhere stays in the line, where JSON
    reads it as whitespace between tokens.  Record-level problems go to
    ``corpus.ingest_report.rejects`` as ``(line_no, reason)``, lines that
    are not UTF-8 or not JSON included; records whose state is not
    ``accepted`` are dropped and counted.  ``window`` defaults to the span
    of the creation dates.  A record's repeated codes are summed, and so,
    with ``constituencies``, are the codes they do not list, into the
    UNKNOWN column with one warning per code.  Raises EmptyCorpusError
    when nothing survives.

    An archive of twice ``_MIN_CHUNK_BYTES`` or more is cut into byte
    ranges of equal size, one per core, and each range reads the lines
    that start in it (:func:`~petmine.util.fork_map`).  The ranges are
    merged in line order, and a record whose id an earlier line's record
    kept is a duplicate, so the result does not depend on how many
    ranges there were.
    """
    size = os.path.getsize(path)
    n = chunk_count(size, _MIN_CHUNK_BYTES)
    cuts = [size * i // n for i in range(n + 1)]
    log.info("reading %s: %d process(es), chunks of %s bytes", path, n,
             ", ".join(map(str, np.diff(cuts).tolist())))
    chunks = fork_map(lambda span: _read_chunk(path, *span, window),
                      list(zip(cuts, cuts[1:])))

    report = IngestReport()
    seen: set[str] = set()
    offset = 0
    ids, texts, days, totals, sizes, keys, counts = [], [], [], [], [], [], []
    for chunk in chunks:
        report.total_lines += chunk.report.total_lines
        report.dropped_state += chunk.report.dropped_state
        keep = np.ones(len(chunk.ids), dtype=bool)
        rejects = chunk.report.rejects
        for i, (line_no, pid) in enumerate(zip(chunk.line_nos, chunk.ids)):
            if pid in seen:
                keep[i] = False
                rejects.append((line_no, f"duplicate id {pid}"))
            seen.add(pid)
        report.rejects.extend((offset + line_no, reason)
                              for line_no, reason in sorted(rejects))
        offset += chunk.lines
        ids.extend(itertools.compress(chunk.ids, keep))
        texts.extend(itertools.compress(chunk.texts, keep))
        for out, values in ((days, chunk.days), (totals, chunk.totals),
                            (sizes, chunk.sizes)):
            out.append(values[keep])
        key_kept = np.repeat(keep, chunk.sizes)
        keys.append((chunk.code_table, chunk.keys[key_kept]))
        counts.append(chunk.counts[key_kept])
    if not ids:
        raise EmptyCorpusError(f"{path}: no accepted petitions")

    used = set()
    for table, chunk_keys in keys:
        held = np.bincount(chunk_keys, minlength=len(table))
        used.update(table[i] for i in np.flatnonzero(held).tolist())
    if constituencies:
        codes = tuple(m.code for m in constituencies) + (UNKNOWN_CODE,)
        # geo analyses skip the UNKNOWN column, signature totals keep it
        for code in sorted(used.difference(codes[:-1])):
            log.warning("unknown constituency code %s; bucketing as UNKNOWN",
                        code)
    else:
        codes = tuple(sorted(used))
    column = {code: j for j, code in enumerate(codes)}
    # the default is reached only with metadata, where it is UNKNOWN
    indices = [np.array([column.get(code, len(codes) - 1) for code in table],
                        dtype=np.int64)[chunk_keys]
               for table, chunk_keys in keys]
    days, totals, sizes = map(np.concatenate, (days, totals, sizes))
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    signatures = sp.csr_matrix(
        (np.concatenate(counts), np.concatenate(indices), indptr),
        shape=(len(ids), len(codes)))

    order = sorted(range(len(ids)), key=ids.__getitem__)
    signatures = signatures[order]
    signatures.sum_duplicates()    # sorts columns; merges repeated, folded codes
    if window is None:
        window = tuple(map(datetime.date.fromordinal,
                           (int(days.min()), int(days.max()))))
    return Corpus(
        ids=[ids[d] for d in order], texts=[texts[d] for d in order],
        day=days[order] - window[0].toordinal(), total=totals[order],
        signatures=signatures, codes=codes,
        constituencies=tuple(constituencies), window=tuple(window),
        ingest_report=report,
    )


# ---------------------------------------------------------------------------
# Corpus snapshot
# ---------------------------------------------------------------------------

_CORPUS_FORMAT = "petmine-corpus"
_CORPUS_VERSION = 2
# one line per column, in this order, after the _meta line
_COLUMNS = ("ids", "texts", "day", "total", "indptr", "indices", "data")
_STRING_COLUMNS = ("ids", "texts")


def _digits(name: str, values: np.ndarray) -> np.ndarray:
    """The bytes of ``values`` in decimal, joined by commas: ``b"7,0,42"``.

    These are the bytes :func:`canonical_json` writes between the brackets
    of ``values.tolist()``.  Each value gets a row of the widest value's
    digit count plus a comma, filled from the right a digit per pass; the
    leading zeros are then dropped, and with them every row's pad.  A
    negative value, which no snapshot may hold, is a ValidationError
    naming column ``name``.
    """
    values = np.asarray(values, np.int64)
    if values.min(initial=0) < 0:
        raise ValidationError(f"column '{name}' holds a negative value")
    width = len(str(int(values.max(initial=0))))
    digits = np.empty((len(values), width + 1), np.uint8)
    keep = np.empty(digits.shape, bool)
    digits[:, width], keep[:, width] = ord(","), True
    rest = values
    for col in range(width - 1, -1, -1):
        keep[:, col] = rest > 0
        quot = rest // 10
        digits[:, col] = rest - quot * 10 + ord("0")
        rest = quot
    keep[:, width - 1] = True       # zero is one digit
    return digits[keep][:-1]


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write a corpus snapshot: a ``_meta`` line, then one line per column.

    The ``_meta`` line and the string columns are :func:`canonical_json`.
    The integer columns are rendered from their arrays by :func:`_digits`,
    in the bytes ``canonical_json`` writes for their ``tolist()``, so the
    snapshot is byte for byte what the json module alone would write.  The
    lines go to the file a part at a time and are never joined.
    """
    meta = {
        "_meta": {
            "format": _CORPUS_FORMAT,
            "version": _CORPUS_VERSION,
            "window": [corpus.window[0].isoformat(), corpus.window[1].isoformat()],
            "n_petitions": len(corpus.ids),
            "constituencies": [
                {"code": c.code, "name": c.name, "electorate": c.electorate}
                for c in corpus.constituencies
            ],
            "codes": list(corpus.codes),
        }
    }
    sig = corpus.signatures
    columns = {
        "ids": corpus.ids, "texts": corpus.texts,
        "day": corpus.day, "total": corpus.total,
        "indptr": sig.indptr, "indices": sig.indices, "data": sig.data,
    }

    def parts():
        yield canonical_json(meta).encode()
        for name in _COLUMNS:
            yield b"\n"
            if name in _STRING_COLUMNS:
                yield canonical_json({name: columns[name]}).encode()
            else:
                yield from (f'{{"{name}":['.encode(),
                            _digits(name, columns[name]), b"]}")
        yield b"\n"
    write_bytes(path, parts())


def parse_window(value) -> tuple[datetime.date, datetime.date]:
    """``[start, end]`` ISO dates as dates; ValueError unless start <= end."""
    lo, hi = (datetime.date.fromisoformat(d) for d in value)
    if lo > hi:
        raise ValueError("window ends before it starts")
    return lo, hi


def _constituency_list(entries) -> tuple[ConstituencyMeta, ...]:
    if not isinstance(entries, list):
        raise TypeError(f"expected a list, got a {type(entries).__name__}")
    return tuple(from_json(ConstituencyMeta, entry) for entry in entries)


def _string_column(path: str, line_no: int, name: str, line: bytes) -> list[str]:
    """Parse the line ``{"<name>":["...",...]}``."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        obj = None
    values = obj.get(name) if isinstance(obj, dict) and len(obj) == 1 else None
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ArchiveFormatError(
            f"{path}:{line_no}: column '{name}' is not a list of strings")
    return values


def _int_column(path: str, line_no: int, name: str, line: bytes) -> np.ndarray:
    """Parse the line ``{"<name>":[i,j,...]}`` of non-negative integers.

    The canonical JSON of a non-negative integer list is digits and
    commas, which numpy reads far faster than the json module.
    """
    head = b'{"' + name.encode() + b'":['
    body = line[len(head):-2]
    values = None
    if (line.startswith(head) and line.endswith(b"]}")
            and not body.translate(None, b"0123456789,")):
        try:
            values = np.fromstring(body, dtype=np.int64, sep=",")
        except ValueError:
            pass
    # a trailing comma parses short; a value past int64 parses as its max,
    # which the bounds the load puts on every column refuse
    if values is None or len(values) != (body.count(b",") + 1 if body else 0):
        raise ArchiveFormatError(
            f"{path}:{line_no}: column '{name}' is not a list of "
            f"non-negative integers")
    return values


def load_corpus(path: str) -> Corpus:
    """Load a snapshot written by :func:`save_corpus`.

    The records were validated at ingest, so a load parses no record; it
    checks the format and version and that the signature matrix is well
    formed, and the :class:`Corpus` constructor checks the columns' layout.
    Any fault is an ArchiveFormatError naming the file and field.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
    except OSError as exc:
        raise ArchiveFormatError(
            f"{path}: snapshot cannot be read ({exc.strerror})") from None
    try:
        head = json.loads(lines[0])
    except (ValueError, RecursionError):
        head = None
    if not isinstance(head, dict) or not isinstance(head.get("_meta"), dict):
        raise ArchiveFormatError(f"{path}: not a corpus snapshot (missing _meta line)")
    meta = snapshot_meta(path, head["_meta"], _CORPUS_FORMAT, _CORPUS_VERSION)
    window = meta.field("window", parse_window)
    n = meta.count("n_petitions")
    constituencies = meta.field("constituencies", _constituency_list)
    codes = meta.strings("codes")

    columns = Members(path)
    for line_no, name in enumerate(_COLUMNS, start=2):
        line = lines[line_no - 1] if line_no <= len(lines) else b""
        if not line.strip():
            raise ArchiveFormatError(f"{path}:{line_no}: missing column '{name}'")
        read = _string_column if name in _STRING_COLUMNS else _int_column
        columns[name] = read(path, line_no, name, line)
    if any(line.strip() for line in lines[len(_COLUMNS) + 1:]):
        raise ArchiveFormatError(
            f"{path}: unexpected content after column '{_COLUMNS[-1]}'")

    if len(columns["ids"]) != n:
        raise meta.fault("n_petitions", f"is {n}, but column 'ids' has "
                                        f"{len(columns['ids'])} entries")
    counts = (0, _MAX_COUNT + 1)
    indptr = columns.array("indptr", "integer", (n + 1,), counts)
    if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise columns.fault("indptr", "does not rise monotonically from 0")
    nnz = (int(indptr[-1]),)
    try:
        return Corpus(
            ids=columns["ids"], texts=columns["texts"],
            day=columns.array("day", "integer", (n,), counts),
            total=columns.array("total", "integer", (n,), counts),
            signatures=sp.csr_matrix(
                (columns.array("data", "integer", nnz, counts),
                 columns.array("indices", "integer", nnz, (0, len(codes))),
                 indptr),
                shape=(n, len(codes))),
            codes=codes, constituencies=constituencies, window=window,
        )
    except ValidationError as exc:
        raise ArchiveFormatError(f"{path}: {exc}") from None


def write_rejects_report(report: IngestReport, path: str, meta: dict) -> None:
    write_csv(path, meta, ["line_no", "reason"], report.rejects)
