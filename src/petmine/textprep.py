"""Text cleaning and document-term matrix construction.

The cleaning pipeline, applied in this order: lowercase, replace every
Unicode punctuation or symbol character with a space, split on whitespace,
drop tokens containing digits, drop stopwords, Porter-stem, drop stems
shorter than 2 characters.  Punctuation becomes spaces rather than being
deleted so "re-elect" splits into two tokens instead of fusing.

Vocabulary pruning keeps terms whose document frequency is at least
``ceil(min_doc_fraction * n_docs)``.  All-zero rows are retained so DTM
rows stay aligned with corpus petitions.
"""

from __future__ import annotations

import itertools
import logging
import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np
import scipy.sparse as sp

from . import porter
from .errors import ConfigError, EmptyCorpusError
from .util import load_arrays, save_arrays

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

    With no path, loads the packaged Snowball English list.
    """
    if path is None:
        text = (
            resources.files("petmine").joinpath("data/stopwords_en.txt")
            .read_text(encoding="utf-8")
        )
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            # tokens are matched after lowercasing, so store lowercase
            words.add(line.lower())
    return frozenset(words)


class _TokenCleaner(dict):
    """Cleans documents into stems, judging each distinct token once.

    Calling it on a text returns the text's stems in order.  As a dict it
    is the memo: raw token to its kept stem, or "" when the digit,
    stopword or length rule drops it.
    """

    def __init__(self, stopwords: frozenset[str]):
        if not stopwords:
            raise ConfigError("stopword set must be non-empty")
        super().__init__()
        self.stopwords = stopwords

    def __missing__(self, tok):
        stemmed = ""
        if not any(ch.isdigit() for ch in tok) and tok not in self.stopwords:
            stemmed = porter.stem(tok)
            if len(stemmed) < 2:
                stemmed = ""
        self[tok] = stemmed
        return stemmed

    def __call__(self, text: str) -> list[str]:
        tokens = text.lower().translate(_STRIP).split()
        return [s for s in map(self.__getitem__, tokens) if s]


def clean_tokens(text: str, stopwords: frozenset[str]) -> list[str]:
    """Clean one document into its list of stems (order preserved)."""
    return _TokenCleaner(stopwords)(text)


@dataclass
class Vocabulary:
    terms: tuple[str, ...]          # unique, sorted lexicographically
    doc_frequency: np.ndarray       # int64, aligned with terms

    def __len__(self) -> int:
        return len(self.terms)

    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}


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


def build_dtm(corpus, stopwords: frozenset[str],
              min_doc_fraction: float = 0.001) -> DocumentTermMatrix:
    """Clean every petition and assemble the pruned document-term matrix.

    ``corpus`` provides the petitions' ``ids`` and merged ``texts``.
    Raises if no term survives pruning.
    """
    if not 0.0 < min_doc_fraction < 1.0:
        raise ConfigError(f"min_doc_fraction must be in (0,1), got {min_doc_fraction}")
    if not corpus.ids:
        raise EmptyCorpusError("cannot build a DTM from an empty corpus")

    clean = _TokenCleaner(stopwords)
    token_lists = [clean(text) for text in corpus.texts]
    df: Counter[str] = Counter()
    for toks in token_lists:
        df.update(set(toks))

    n_docs = len(corpus.ids)
    threshold = math.ceil(min_doc_fraction * n_docs)
    kept = sorted(t for t, c in df.items() if c >= threshold)
    if not kept:
        raise EmptyCorpusError(
            f"no term meets the document-frequency threshold {threshold}"
        )
    index = {t: i for i, t in enumerate(kept)}

    # one entry per kept token; sum_duplicates sorts each row's columns
    # and turns repeats into counts
    cols = [[index[t] for t in toks if t in index] for toks in token_lists]
    indptr = np.cumsum([0] + [len(c) for c in cols])
    total_after = int(indptr[-1])
    counts = sp.csr_matrix(
        (np.ones(total_after, dtype=np.int32),
         np.fromiter(itertools.chain.from_iterable(cols), dtype=np.int64,
                     count=total_after),
         indptr),
        shape=(n_docs, len(kept)),
    )
    counts.sum_duplicates()

    report = PruneReport(
        raw_vocab_size=len(df),
        pruned_vocab_size=len(kept),
        df_threshold=threshold,
        mean_tokens_before=sum(len(t) for t in token_lists) / n_docs,
        mean_tokens_after=total_after / n_docs,
    )
    log.info(
        "vocabulary %d -> %d terms (df >= %d); mean tokens/doc %.1f -> %.1f",
        report.raw_vocab_size, report.pruned_vocab_size, threshold,
        report.mean_tokens_before, report.mean_tokens_after,
    )
    vocab = Vocabulary(
        terms=tuple(kept),
        doc_frequency=np.asarray([df[t] for t in kept], dtype=np.int64),
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
    arrays, meta = load_arrays(path, _DTM_FORMAT, _DTM_VERSION)
    n_docs = int(meta["n_docs"])
    terms = tuple(meta["terms"])
    counts = sp.csr_matrix(
        (arrays["count"].astype(np.int32), (arrays["row"], arrays["col"])),
        shape=(n_docs, len(terms)),
    )
    vocab = Vocabulary(terms=terms, doc_frequency=arrays["doc_frequency"])
    return DocumentTermMatrix(
        n_docs=n_docs, vocabulary=vocab, counts=counts,
        doc_ids=tuple(meta["doc_ids"]),
    )
