"""Archive ingestion and the normalized corpus model.

The input is a JSON-lines archive, one petition per line, in the shape of
the public petitions API: ``id``, ``state``, and an ``attributes`` object
holding the free-text fields, creation date and signature breakdowns.
Ingestion filters to accepted petitions, validates each record, and
collects per-line problems into a rejects report instead of aborting, so
one malformed line cannot kill a long run.  Only structural problems
(unreadable file, nothing accepted at all) raise.

Determinism: petitions are sorted by id, every collection in the resulting
Corpus is ordered, and re-serializing a loaded corpus reproduces it
byte-for-byte.
"""

from __future__ import annotations

import csv
import datetime
import json
import logging
from dataclasses import dataclass, field

from .errors import ArchiveFormatError, EmptyCorpusError, ValidationError
from .util import canonical_json, write_text

log = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class Petition:
    id: str
    action: str
    background: str
    additional_details: str | None
    created_at: datetime.date
    state: str
    total_signatures: int
    signatures_by_constituency: dict[str, int]
    signatures_by_country: dict[str, int]

    def uk_signatures(self) -> int:
        """Signatures attributed to UK constituencies (overseas excluded)."""
        return sum(self.signatures_by_constituency.values())


def merge_text(p: Petition) -> str:
    """Concatenate action, background and details with single spaces.

    Empty or absent optional parts contribute nothing.
    """
    if not p.action:
        raise ValidationError(f"petition {p.id}: action is empty")
    parts = [p.action, p.background, p.additional_details or ""]
    return " ".join(part for part in parts if part)


@dataclass
class IngestReport:
    total_lines: int = 0
    accepted: int = 0
    dropped_state: int = 0
    rejects: list[tuple[int, str]] = field(default_factory=list)

    @property
    def malformed(self) -> int:
        return len(self.rejects)


@dataclass
class Corpus:
    petitions: tuple[Petition, ...]
    constituencies: tuple[ConstituencyMeta, ...]
    window: tuple[datetime.date, datetime.date]
    ingest_report: IngestReport | None = None


@dataclass(frozen=True)
class IngestConfig:
    window: tuple[datetime.date, datetime.date] | None = None
    accepted_states: frozenset[str] = frozenset({"accepted"})
    constituencies: tuple[ConstituencyMeta, ...] = ()


def uk_signature_total(corpus: Corpus) -> int:
    """Total constituency-attributed signatures across the corpus."""
    if not corpus.petitions:
        raise EmptyCorpusError("corpus has no petitions")
    return sum(p.uk_signatures() for p in corpus.petitions)


def load_constituencies(path: str) -> tuple[ConstituencyMeta, ...]:
    """Read constituency metadata CSV with header ``code,name,electorate``.

    This file is reference data, so any bad row is a hard error rather
    than a record-level reject.
    """
    out = []
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"code", "name", "electorate"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ArchiveFormatError(
                f"{path}: expected CSV header code,name,electorate"
            )
        for i, row in enumerate(reader, start=2):
            code = (row["code"] or "").strip()
            if not code:
                raise ArchiveFormatError(f"{path}:{i}: empty constituency code")
            if code in seen:
                raise ArchiveFormatError(f"{path}:{i}: duplicate code {code}")
            seen.add(code)
            try:
                electorate = int(row["electorate"])
            except (TypeError, ValueError):
                raise ArchiveFormatError(
                    f"{path}:{i}: electorate is not an integer"
                ) from None
            if electorate <= 0:
                raise ArchiveFormatError(f"{path}:{i}: electorate must be positive")
            out.append(ConstituencyMeta(code=code, name=row["name"], electorate=electorate))
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


def _parse_signature_list(value, key_field: str) -> dict[str, int]:
    # absent or null breakdowns are treated as empty
    if value is None:
        return {}
    if not isinstance(value, list):
        raise _RecordError(f"signature breakdown keyed by '{key_field}' is not a list")
    out: dict[str, int] = {}
    for entry in value:
        if not isinstance(entry, dict):
            raise _RecordError(f"signature entry under '{key_field}' is not an object")
        code = entry.get(key_field)
        count = entry.get("signature_count")
        if not isinstance(code, str) or not code:
            raise _RecordError(f"signature entry missing '{key_field}'")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise _RecordError(f"signature entry for {code}: bad signature_count")
        # duplicate codes within one record are summed
        out[code] = out.get(code, 0) + count
    return out


def _parse_record(obj, known_codes: frozenset[str] | None,
                  warned_codes: set[str]) -> Petition:
    if not isinstance(obj, dict):
        raise _RecordError("record is not a JSON object")
    raw_id = obj.get("id")
    if isinstance(raw_id, bool) or not isinstance(raw_id, (str, int)):
        raise _RecordError("missing id")
    pid = str(raw_id)
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
    by_const = _parse_signature_list(
        attrs.get("signatures_by_constituency"), "ons_code"
    )
    by_country = _parse_signature_list(attrs.get("signatures_by_country"), "code")

    if known_codes is not None:
        # fold codes absent from the metadata into an UNKNOWN bucket; geo
        # analyses skip it, signature totals keep it
        folded: dict[str, int] = {}
        for code, count in by_const.items():
            if code in known_codes:
                folded[code] = folded.get(code, 0) + count
            else:
                if code not in warned_codes:
                    warned_codes.add(code)
                    log.warning("unknown constituency code %s; bucketing as UNKNOWN", code)
                folded["UNKNOWN"] = folded.get("UNKNOWN", 0) + count
        by_const = folded

    total = attrs.get("signature_count")
    if total is None:
        # no explicit total in the record: country sums include overseas
        # signers, so prefer them over the constituency sum
        total = sum(by_country.values()) if by_country else sum(by_const.values())
    elif not isinstance(total, int) or isinstance(total, bool) or total < 0:
        raise _RecordError("signature_count is not a non-negative integer")
    if total < sum(by_const.values()):
        raise _RecordError("constituency signatures exceed the petition total")

    return Petition(
        id=pid, action=action, background=background,
        additional_details=details, created_at=created, state=state,
        total_signatures=total,
        signatures_by_constituency=by_const,
        signatures_by_country=by_country,
    )


def load_archive(path: str, config: IngestConfig = IngestConfig()) -> Corpus:
    """Load a JSON-lines petitions archive into a validated Corpus.

    Record-level problems go to ``corpus.ingest_report.rejects`` as
    ``(line_no, reason)``; records whose state is not in
    ``config.accepted_states`` are dropped and counted.  Raises
    EmptyCorpusError when nothing survives.
    """
    report = IngestReport()
    known = (
        frozenset(c.code for c in config.constituencies)
        if config.constituencies else None
    )
    warned: set[str] = set()
    petitions: dict[str, Petition] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line_no == 1 and '"_meta"' in line:
                try:
                    head = json.loads(line)
                except json.JSONDecodeError:
                    head = None
                if isinstance(head, dict) and "_meta" in head:
                    continue
            report.total_lines += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                report.rejects.append((line_no, "invalid json"))
                continue
            try:
                p = _parse_record(obj, known, warned)
            except _RecordError as exc:
                report.rejects.append((line_no, str(exc)))
                continue
            if p.state not in config.accepted_states:
                report.dropped_state += 1
                continue
            if config.window is not None:
                lo, hi = config.window
                if not lo <= p.created_at <= hi:
                    report.rejects.append(
                        (line_no, "created_at outside configured window")
                    )
                    continue
            if p.id in petitions:
                report.rejects.append((line_no, f"duplicate id {p.id}"))
                continue
            petitions[p.id] = p
            report.accepted += 1

    if not petitions:
        raise EmptyCorpusError(f"{path}: no accepted petitions")
    ordered = tuple(petitions[k] for k in sorted(petitions))
    if config.window is not None:
        window = config.window
    else:
        dates = [p.created_at for p in ordered]
        window = (min(dates), max(dates))
    return Corpus(
        petitions=ordered, constituencies=config.constituencies,
        window=window, ingest_report=report,
    )


# ---------------------------------------------------------------------------
# Corpus snapshot
# ---------------------------------------------------------------------------

_CORPUS_FORMAT = "petmine-corpus"
_CORPUS_VERSION = 1


def _petition_record(p: Petition) -> dict:
    return {
        "id": p.id,
        "state": p.state,
        "attributes": {
            "action": p.action,
            "background": p.background,
            "additional_details": p.additional_details,
            "created_at": p.created_at.isoformat(),
            "signature_count": p.total_signatures,
            "signatures_by_constituency": [
                {"ons_code": c, "signature_count": n}
                for c, n in sorted(p.signatures_by_constituency.items())
            ],
            "signatures_by_country": [
                {"code": c, "signature_count": n}
                for c, n in sorted(p.signatures_by_country.items())
            ],
        },
    }


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write a corpus snapshot: a ``_meta`` line, then one petition per line."""
    meta = {
        "_meta": {
            "format": _CORPUS_FORMAT,
            "version": _CORPUS_VERSION,
            "window": [corpus.window[0].isoformat(), corpus.window[1].isoformat()],
            "n_petitions": len(corpus.petitions),
            "constituencies": [
                {"code": c.code, "name": c.name, "electorate": c.electorate}
                for c in corpus.constituencies
            ],
        }
    }
    lines = [canonical_json(meta)]
    lines.extend(canonical_json(_petition_record(p)) for p in corpus.petitions)
    write_text(path, "\n".join(lines) + "\n")


def load_corpus(path: str) -> Corpus:
    """Load a snapshot written by :func:`save_corpus`.

    Snapshots are expected to be clean: any record-level reject here means
    the file was not produced by this package and is a hard error.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    try:
        head = json.loads(first) if first else None
    except json.JSONDecodeError:
        head = None
    if not isinstance(head, dict) or "_meta" not in head:
        raise ArchiveFormatError(f"{path}: not a corpus snapshot (missing _meta line)")
    meta = head["_meta"]
    if meta.get("format") != _CORPUS_FORMAT:
        raise ArchiveFormatError(f"{path}: unrecognized snapshot format")
    if meta.get("version") != _CORPUS_VERSION:
        raise ArchiveFormatError(
            f"{path}: corpus snapshot version {meta.get('version')!r} is not "
            f"supported (expected {_CORPUS_VERSION})")
    constituencies = tuple(
        ConstituencyMeta(code=c["code"], name=c["name"], electorate=c["electorate"])
        for c in meta.get("constituencies", [])
    )
    window = (
        datetime.date.fromisoformat(meta["window"][0]),
        datetime.date.fromisoformat(meta["window"][1]),
    )
    corpus = load_archive(
        path,
        IngestConfig(window=window, constituencies=constituencies),
    )
    if corpus.ingest_report and corpus.ingest_report.rejects:
        line, reason = corpus.ingest_report.rejects[0]
        raise ArchiveFormatError(f"{path}:{line}: corrupt snapshot record ({reason})")
    return corpus


def write_rejects_report(report: IngestReport, path: str, meta: dict) -> None:
    from .util import write_csv

    write_csv(path, meta, ["line_no", "reason"], report.rejects)
