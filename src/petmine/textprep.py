"""Text cleaning and document-term matrix construction.

The cleaning pipeline, applied in this order: lowercase, replace every
Unicode punctuation or symbol character with a space, split on whitespace,
drop tokens containing digits, drop stopwords, Porter-stem, drop stems
shorter than 2 characters.  Punctuation becomes spaces rather than being
deleted so "re-elect" splits into two tokens instead of fusing.

Vocabulary pruning keeps terms whose document frequency is at least
``ceil(min_doc_fraction * n_docs)``.  All-zero rows are retained so DTM
rows stay aligned with corpus petitions.

The matrix is assembled from integers.  Each distinct raw token is judged
and stemmed once per chunk of documents and coded as the id of its kept
stem, or -1 when a rule drops it; the chunks' codes are renumbered to one
stem table and gathered into one array.  The chunks follow the package's
one split rule (:func:`~petmine.util.split_map`): one per core on a large
corpus, contiguous runs of documents of about equal characters, each
document in the run that holds the larger part of its characters.  The
unpruned matrix has one column per stem id; document frequency is its
nonzeros per column, and pruning maps the surviving ids onto columns in
the terms' lexicographic order.
"""

from __future__ import annotations

import itertools
import logging
import math
import unicodedata
from dataclasses import dataclass
from importlib import resources

import numpy as np
import scipy.sparse as sp

from . import porter
from .errors import ArchiveFormatError, ConfigError, EmptyCorpusError
from .util import load_arrays, save_arrays, split_map

log = logging.getLogger(__name__)


class _StripMap(dict):
    """Ordinal translation map: punctuation and symbols to space, lazily."""

    def __missing__(self, cp):
        cat = unicodedata.category(chr(cp))[0]
        out = 0x20 if cat in ("P", "S") else cp
        self[cp] = out
        return out


_STRIP = _StripMap()


def load_stopwords(path: str | None = None) -> frozenset[str]:
    """Load a stopword file: one word per line, ``#`` comments allowed.

    With no path, loads the packaged Snowball English list.  A file that
    cannot be read, is not UTF-8 or lists no word is a ConfigError naming
    ``path``.
    """
    if path is None:
        text = (
            resources.files("petmine").joinpath("data/stopwords_en.txt")
            .read_text(encoding="utf-8")
        )
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(
                f"stopwords file cannot be read: {path} ({exc.strerror})"
            ) from None
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"stopwords file is not UTF-8: {path} (byte {exc.start})"
            ) from None
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            # tokens are matched after lowercasing, so store lowercase
            words.add(line.lower())
    if not words:
        raise ConfigError(f"stopwords file lists no word: {path}")
    return frozenset(words)


class _TokenCoder(dict):
    """Codes raw tokens as stem ids, judging each distinct token once.

    As a dict it is the memo: raw token to the id of its kept stem, or -1
    when the digit, stopword or length rule drops it.  ``stem_ids`` maps
    each kept stem to its id; ids count up from 0 in order of first
    appearance, so ``list(stem_ids)`` is indexed by id.
    """

    def __init__(self, stopwords: frozenset[str]):
        if not stopwords:
            raise ConfigError("stopword set must be non-empty")
        super().__init__()
        self.stopwords = stopwords
        self.stem_ids: dict[str, int] = {}

    def __missing__(self, tok):
        code = -1
        # no letter is a digit, so an all-letter token skips the digit scan
        if ((tok.isalpha() or not any(ch.isdigit() for ch in tok))
                and tok not in self.stopwords):
            stemmed = porter.stem(tok)
            if len(stemmed) >= 2:
                code = self.stem_ids.setdefault(stemmed, len(self.stem_ids))
        self[tok] = code
        return code

    def __call__(self, text: str) -> list[int]:
        """The codes of ``text``'s raw tokens, in order, dropped ones included."""
        return list(map(self.__getitem__, text.lower().translate(_STRIP).split()))


def clean_tokens(text: str, stopwords: frozenset[str]) -> list[str]:
    """Clean one document into its list of stems (order preserved)."""
    coder = _TokenCoder(stopwords)
    codes = coder(text)
    stems = list(coder.stem_ids)
    return [stems[c] for c in codes if c >= 0]


@dataclass
class Vocabulary:
    terms: tuple[str, ...]          # unique, sorted lexicographically
    doc_frequency: np.ndarray       # int64, aligned with terms


@dataclass
class PruneReport:
    raw_vocab_size: int
    pruned_vocab_size: int
    df_threshold: int
    mean_tokens_before: float
    mean_tokens_after: float


@dataclass
class DocumentTermMatrix:
    n_docs: int
    vocabulary: Vocabulary
    counts: sp.csr_matrix           # doc x term, int32
    doc_ids: tuple[str, ...]
    prune_report: PruneReport | None = None


def _kept_indptr(keep: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Row pointer of the entries ``keep`` selects from rows bounded by ``indptr``."""
    kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    return kept_before[indptr]


# the fewest text characters worth a process of their own: below this the
# fork, the result's trip back and the merge cost more than the coding
# they take off the calling process (see CHANGES.md for the measurement)
_MIN_CHUNK_CHARS = 1 << 18


def _code_texts(texts: list[str], stopwords: frozenset[str]):
    """Code ``texts`` with a coder of their own: its stems in id order,
    every raw token's code end to end (int64, -1 for a dropped one), and
    each text's number of raw tokens."""
    coder = _TokenCoder(stopwords)
    doc_codes = [coder(text) for text in texts]
    lengths = np.fromiter(map(len, doc_codes), dtype=np.int64,
                          count=len(texts))
    codes = np.fromiter(itertools.chain.from_iterable(doc_codes),
                        dtype=np.int64, count=int(lengths.sum()))
    return list(coder.stem_ids), codes, lengths


def build_dtm(corpus, stopwords: frozenset[str],
              min_doc_fraction: float = 0.001) -> DocumentTermMatrix:
    """Clean every petition and assemble the pruned document-term matrix.

    ``corpus`` provides the petitions' ``ids`` and merged ``texts``.
    Raises if no term survives pruning.  A corpus of twice
    ``_MIN_CHUNK_CHARS`` characters of text or more is coded in contiguous
    runs of documents, one per core (:func:`~petmine.util.split_map`); the
    stems are numbered as one coder would number them, so the result does
    not depend on how many runs there were.
    """
    if not 0.0 < min_doc_fraction < 1.0:
        raise ConfigError(f"min_doc_fraction must be in (0,1), got {min_doc_fraction}")
    if not corpus.ids:
        raise EmptyCorpusError("cannot build a DTM from an empty corpus")

    n_docs = len(corpus.ids)
    chunks = split_map(
        lambda lo, hi: _code_texts(corpus.texts[lo:hi], stopwords),
        list(map(len, corpus.texts)),
        _MIN_CHUNK_CHARS, "documents")
    # each chunk's stem ids, renumbered in order of first appearance in
    # the corpus, which is their order in the chunks taken in turn
    stem_ids: dict[str, int] = {}
    codes, lengths = [], []
    for chunk_stems, chunk_codes, chunk_lengths in chunks:
        # a dropped token's -1 indexes the -1 at the end
        to_id = np.array([*(stem_ids.setdefault(stem, len(stem_ids))
                            for stem in chunk_stems), -1], dtype=np.int64)
        codes.append(to_id[chunk_codes])
        lengths.append(chunk_lengths)
    codes = np.concatenate(codes)
    doc_ends = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.concatenate(lengths), out=doc_ends[1:])
    kept = codes >= 0

    # one entry per kept token, column = stem id; sum_duplicates sorts each
    # row's columns and turns repeats into counts
    stems = list(stem_ids)
    total_before = int(kept.sum())
    unpruned = sp.csr_matrix(
        (np.ones(total_before, dtype=np.int32), codes[kept],
         _kept_indptr(kept, doc_ends)),
        shape=(n_docs, len(stems)),
    )
    unpruned.sum_duplicates()
    df = np.bincount(unpruned.indices, minlength=len(stems))

    threshold = math.ceil(min_doc_fraction * n_docs)
    order = sorted(np.flatnonzero(df >= threshold).tolist(),
                   key=stems.__getitem__)
    if not order:
        raise EmptyCorpusError(
            f"no term meets the document-frequency threshold {threshold}"
        )
    # the kept columns, in term order; selection leaves rows unsorted
    counts = unpruned[:, order]
    counts.sort_indices()
    total_after = int(counts.data.sum())

    report = PruneReport(
        raw_vocab_size=len(stems),
        pruned_vocab_size=len(order),
        df_threshold=threshold,
        mean_tokens_before=total_before / n_docs,
        mean_tokens_after=total_after / n_docs,
    )
    log.info(
        "vocabulary %d -> %d terms (df >= %d); mean tokens/doc %.1f -> %.1f",
        report.raw_vocab_size, report.pruned_vocab_size, threshold,
        report.mean_tokens_before, report.mean_tokens_after,
    )
    vocab = Vocabulary(
        terms=tuple(stems[i] for i in order),
        doc_frequency=df[order].astype(np.int64),
    )
    return DocumentTermMatrix(
        n_docs=n_docs, vocabulary=vocab, counts=counts,
        doc_ids=tuple(corpus.ids), prune_report=report,
    )


# ---------------------------------------------------------------------------
# DTM snapshot (sparse triplets + vocabulary sidecar in one archive)
# ---------------------------------------------------------------------------

_DTM_FORMAT = "petmine-dtm"
_DTM_VERSION = 1


def save_dtm(dtm: DocumentTermMatrix, path: str) -> None:
    coo = dtm.counts.tocoo()
    save_arrays(
        path,
        {
            "row": coo.row.astype(np.int64),
            "col": coo.col.astype(np.int64),
            "count": coo.data.astype(np.int64),
            "doc_frequency": dtm.vocabulary.doc_frequency,
        },
        meta={
            "format": _DTM_FORMAT,
            "version": _DTM_VERSION,
            "n_docs": dtm.n_docs,
            "terms": list(dtm.vocabulary.terms),
            "doc_ids": list(dtm.doc_ids),
        },
    )


def load_dtm(path: str) -> DocumentTermMatrix:
    """Read a snapshot written by :func:`save_dtm`.

    A field of the wrong type or shape, or out of step with another, is
    an ArchiveFormatError naming the file and the field.
    """
    arrays, meta = load_arrays(path, _DTM_FORMAT, _DTM_VERSION)
    n_docs = meta.count("n_docs")
    terms = meta.strings("terms")
    doc_ids = meta.strings("doc_ids")
    if n_docs != len(doc_ids):
        raise ArchiveFormatError(
            f"{path}: snapshot field 'n_docs' is {n_docs}, but 'doc_ids' "
            f"has {len(doc_ids)} entries")
    row = arrays.array("row", "integer", (None,), (0, n_docs))
    col = arrays.array("col", "integer", row.shape, (0, len(terms)))
    # counts are held as int32
    count = arrays.array("count", "integer", row.shape, (1, 2**31))
    counts = sp.csr_matrix((count.astype(np.int32), (row, col)),
                           shape=(n_docs, len(terms)))
    vocab = Vocabulary(terms=terms, doc_frequency=arrays.array(
        "doc_frequency", "integer", (len(terms),)))
    return DocumentTermMatrix(n_docs=n_docs, vocabulary=vocab, counts=counts,
                              doc_ids=doc_ids)
