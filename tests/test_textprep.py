"""Token cleaning and document-term matrix construction."""

import math
import pathlib
import types
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from petmine import porter, textprep, util
from petmine.errors import ArchiveFormatError, ConfigError, EmptyCorpusError
from conftest import make_petition, make_corpus


@pytest.fixture(scope="module")
def stopwords():
    return textprep.load_stopwords()


def test_default_stopwords_look_sane(stopwords):
    assert {"the", "and", "of", "is", "not"} <= stopwords
    assert "government" not in stopwords
    assert len(stopwords) > 100


def test_load_stopwords_custom_file(tmp_path):
    path = tmp_path / "sw.txt"
    path.write_text("# comment\nfoo\nBAR\n\n  baz  \n")
    sw = textprep.load_stopwords(str(path))
    assert sw == frozenset({"foo", "bar", "baz"})


def test_clean_tokens_basic(stopwords):
    assert textprep.clean_tokens("Stop ALL immigration!!", stopwords) == \
        ["stop", "immigr"]
    assert textprep.clean_tokens("2015 2016 2017", stopwords) == []
    assert textprep.clean_tokens("", stopwords) == []


def test_clean_tokens_punctuation_becomes_boundary(stopwords):
    # hyphens and apostrophes split words rather than vanishing; splitting
    # happens before the stopword check, so contraction stopwords in the
    # list ("don't") never match and their long fragment survives
    tokens = textprep.clean_tokens("Re-elect the PM's favourite; don't delay!",
                                   stopwords)
    assert tokens == ["re", "elect", "pm", "favourit", "don", "delai"]


def test_clean_tokens_drops_digit_words_and_short(stopwords):
    assert textprep.clean_tokens("covid19 a2z at x", stopwords) == []


def test_clean_tokens_requires_stopwords():
    with pytest.raises(ConfigError):
        textprep.clean_tokens("hello world", frozenset())


@given(st.text(max_size=200))
def test_clean_tokens_deterministic_and_clean(text):
    sw = frozenset({"the", "and"})
    out = textprep.clean_tokens(text, sw)
    assert out == textprep.clean_tokens(text, sw)
    for token in out:
        assert len(token) >= 2
        assert token == token.lower()
        assert not any(c.isdigit() for c in token)
        assert token not in sw


def _tiny_corpus():
    return make_corpus([
        make_petition(1, {"A": 5}, action="School funding",
                      background="school teacher funding"),
        make_petition(2, {"A": 5}, action="School meals",
                      background="school dinner meals"),
        make_petition(3, {"A": 5}, action="Hospital parking",
                      background="hospital parking charges"),
    ])


def test_build_dtm_counts_and_pruning(stopwords):
    c = _tiny_corpus()
    dtm = textprep.build_dtm(c, stopwords, min_doc_fraction=0.5)
    # threshold = ceil(0.5 * 3) = 2 docs; only "school" appears in two
    assert dtm.vocabulary.terms == ("school",)
    assert dtm.counts.shape == (3, 1)
    # petition 1: "School funding school teacher funding" -> school twice
    assert dtm.counts.toarray().ravel().tolist() == [2, 2, 0]
    assert dtm.prune_report.pruned_vocab_size == 1
    assert dtm.prune_report.raw_vocab_size > 1
    assert dtm.doc_ids == ("1", "2", "3")


def test_build_dtm_keeps_all_above_low_threshold(stopwords):
    c = _tiny_corpus()
    dtm = textprep.build_dtm(c, stopwords, min_doc_fraction=0.01)
    assert "hospit" in dtm.vocabulary.terms
    assert dtm.prune_report.raw_vocab_size == dtm.prune_report.pruned_vocab_size
    # terms are sorted for stable column order
    assert list(dtm.vocabulary.terms) == sorted(dtm.vocabulary.terms)


def test_build_dtm_pruning_monotone(stopwords):
    c = _tiny_corpus()
    # 0.9 would demand presence in all 3 docs and empty the vocabulary
    sizes = [len(textprep.build_dtm(c, stopwords, f).vocabulary.terms)
             for f in (0.01, 0.34, 0.66)]
    assert sizes == sorted(sizes, reverse=True)


def test_build_dtm_empty_raises(stopwords):
    c = make_corpus([make_petition(1, {"A": 1}, action="the of and",
                                   background="")])
    with pytest.raises(EmptyCorpusError):
        textprep.build_dtm(c, stopwords)


def test_doc_frequency_matches_counts(stopwords):
    c = _tiny_corpus()
    dtm = textprep.build_dtm(c, stopwords, min_doc_fraction=0.01)
    df = np.asarray((dtm.counts > 0).sum(axis=0)).ravel()
    np.testing.assert_array_equal(df, dtm.vocabulary.doc_frequency)


def test_save_load_dtm_roundtrip(tmp_path, stopwords):
    c = _tiny_corpus()
    dtm = textprep.build_dtm(c, stopwords, min_doc_fraction=0.01)
    path = str(tmp_path / "dtm.bin")
    textprep.save_dtm(dtm, path)
    loaded = textprep.load_dtm(path)
    assert loaded.vocabulary.terms == dtm.vocabulary.terms
    assert loaded.doc_ids == dtm.doc_ids
    np.testing.assert_array_equal(loaded.counts.toarray(),
                                  dtm.counts.toarray())
    # snapshot bytes are stable
    path2 = tmp_path / "dtm2.bin"
    textprep.save_dtm(dtm, str(path2))
    assert pathlib.Path(path).read_bytes() == path2.read_bytes()


def test_load_dtm_rejects_unknown_version(tmp_path, stopwords):
    path = str(tmp_path / "dtm.bin")
    textprep.save_dtm(textprep.build_dtm(_tiny_corpus(), stopwords, 0.01), path)
    arrays, meta = util.load_arrays(path, "petmine-dtm", 1)
    util.save_arrays(path, arrays, meta=dict(meta, version=2))
    with pytest.raises(ArchiveFormatError) as err:
        textprep.load_dtm(path)
    assert path in str(err.value)
    assert "version 2" in str(err.value) and "expected 1" in str(err.value)


def _write_dtm_snapshot(path, **changes):
    # a 2-document, 2-term dtm.bin, with arrays or meta fields replaced
    fields = {
        "row": np.array([0, 1, 1]), "col": np.array([0, 0, 1]),
        "count": np.array([1, 2, 3]), "doc_frequency": np.array([2, 1]),
        "n_docs": 2, "terms": ["a", "b"], "doc_ids": ["1", "2"],
    }
    fields.update(changes)
    arrays = {k: v for k, v in fields.items() if isinstance(v, np.ndarray)}
    meta = {k: v for k, v in fields.items() if k not in arrays}
    util.save_arrays(path, arrays,
                     meta=dict(meta, format="petmine-dtm", version=1))


def test_load_dtm_reads_the_hand_snapshot(tmp_path):
    path = str(tmp_path / "dtm.bin")
    _write_dtm_snapshot(path)
    dtm = textprep.load_dtm(path)
    assert dtm.counts.toarray().tolist() == [[1, 0], [2, 3]]
    assert dtm.counts.dtype == np.int32
    assert dtm.doc_ids == ("1", "2") and dtm.vocabulary.terms == ("a", "b")


@pytest.mark.parametrize("changes, field", [
    ({"row": np.array([0, 1, 5])}, "row"),
    ({"row": np.array([0, -1, 1])}, "row"),
    ({"row": np.array([[0, 1, 1]])}, "row"),
    ({"row": np.array([0.0, 1.0, 1.0])}, "row"),
    ({"col": np.array([0, 0, 2])}, "col"),
    ({"col": np.array([0, 0])}, "col"),
    ({"count": np.array([1, 0, 3])}, "count"),
    ({"count": np.array([1, 2**31, 3])}, "count"),
    ({"count": np.array([1, 2])}, "count"),
    ({"doc_frequency": np.array([2])}, "doc_frequency"),
    ({"n_docs": "two"}, "n_docs"),
    ({"n_docs": -1}, "n_docs"),
    ({"n_docs": True}, "n_docs"),
    ({"n_docs": 3}, "n_docs"),
    ({"doc_ids": ["1"]}, "doc_ids"),
    ({"doc_ids": ["1", 2]}, "doc_ids"),
    ({"terms": "ab"}, "terms"),
], ids=["row-past-n_docs", "row-negative", "row-2d", "row-float",
        "col-past-terms", "col-short", "count-zero", "count-past-int32",
        "count-short", "doc_frequency-short", "n_docs-string",
        "n_docs-negative", "n_docs-bool", "n_docs-past-doc_ids",
        "doc_ids-short", "doc_ids-int", "terms-string"])
def test_load_dtm_names_file_and_field_of_a_fault(tmp_path, changes, field):
    path = str(tmp_path / "dtm.bin")
    _write_dtm_snapshot(path, **changes)
    with pytest.raises(ArchiveFormatError) as err:
        textprep.load_dtm(path)
    assert path in str(err.value) and f"'{field}'" in str(err.value)


def _clean_tokens_loop(text, stopwords):
    # the per-token definition, kept as the reference for the memo
    out = []
    for tok in text.lower().translate(textprep._STRIP).split():
        if any(ch.isdigit() for ch in tok):
            continue
        if tok in stopwords:
            continue
        stemmed = porter.stem(tok)
        if len(stemmed) >= 2:
            out.append(stemmed)
    return out


def _dtm_vocabulary_loop(token_lists, min_doc_fraction):
    # the per-document set/Counter document frequency, kept as the reference
    df = Counter()
    for toks in token_lists:
        df.update(set(toks))
    threshold = math.ceil(min_doc_fraction * len(token_lists))
    kept = sorted(t for t, c in df.items() if c >= threshold)
    return kept, [df[t] for t in kept], len(df)


def _dtm_counts_loop(token_lists, kept):
    # the per-document Counter assembly, kept as the reference
    index = {t: i for i, t in enumerate(kept)}
    rows, cols, vals = [], [], []
    for r, toks in enumerate(token_lists):
        for term, c in sorted(Counter(t for t in toks if t in index).items()):
            rows.append(r)
            cols.append(index[term])
            vals.append(c)
    return sp.csr_matrix(
        (np.asarray(vals, dtype=np.int32), (rows, cols)),
        shape=(len(token_lists), len(kept)))


def _random_texts(rng, n_docs, stopwords):
    words = ["running", "runs", "ran", "Schools", "school", "a", "x",
             "NHS", "nhs-funding", "re-elect", "covid19", "2016", "don't",
             "Généralement", "caf\u00e9s", "happily", "relational",
             "conditional", "\u00bdpint"] + sorted(stopwords)[:20]
    seps = [" ", "  ", ", ", "! ", "\n", "-", "'s "]
    return [
        "".join(str(rng.choice(words)) + str(rng.choice(seps))
                for _ in range(int(rng.integers(0, 40))))
        for _ in range(n_docs)
    ]


def test_clean_tokens_and_build_dtm_match_per_token_loop(stopwords):
    rng = np.random.default_rng(11)
    texts = _random_texts(rng, 60, stopwords)
    # documents that keep no token, first, amid and last: their all-zero
    # rows must stay aligned with the petitions
    texts = ["", *texts[:30], "the of and", "2016 covid19 a", *texts[30:], ""]
    for text in texts:
        assert textprep.clean_tokens(text, stopwords) == \
            _clean_tokens_loop(text, stopwords)
    # zero-padded ids, so that ingest's id order is the order given
    petitions = [make_petition(f"{i:02d}", {"A": 1}, action="x " + text)
                 for i, text in enumerate(texts)]
    dtm = textprep.build_dtm(make_corpus(petitions), stopwords, 0.05)
    token_lists = [_clean_tokens_loop("x " + text, stopwords)
                   for text in texts]
    kept, df, raw_vocab_size = _dtm_vocabulary_loop(token_lists, 0.05)
    assert dtm.vocabulary.terms == tuple(kept)
    assert dtm.vocabulary.doc_frequency.dtype == np.int64
    assert dtm.vocabulary.doc_frequency.tolist() == df
    want = _dtm_counts_loop(token_lists, kept)
    for name in ("data", "indices", "indptr"):
        got_arr, want_arr = getattr(dtm.counts, name), getattr(want, name)
        assert got_arr.dtype == want_arr.dtype
        assert np.array_equal(got_arr, want_arr)
    assert not dtm.counts[0].nnz and not dtm.counts[-1].nnz
    report = dtm.prune_report
    assert report.raw_vocab_size == raw_vocab_size
    assert report.mean_tokens_before == \
        sum(map(len, token_lists)) / len(texts)
    assert report.mean_tokens_after == want.sum() / len(texts)


def test_build_dtm_stems_each_distinct_token_once(stopwords, monkeypatch):
    calls = []
    stem = porter.stem

    def counting_stem(word):
        calls.append(word)
        return stem(word)

    monkeypatch.setattr(porter, "stem", counting_stem)
    c = _tiny_corpus()
    textprep.build_dtm(c, stopwords, min_doc_fraction=0.01)
    assert sorted(calls) == sorted(set(calls))
    assert set(calls) == {"school", "funding", "teacher", "meals", "dinner",
                          "hospital", "parking", "charges"}


def test_chunked_build_dtm_matches_one_chunk(stopwords, tmp_path,
                                             monkeypatch, caplog):
    rng = np.random.default_rng(5)
    texts = _random_texts(rng, 90, stopwords)
    # one stem reached from different raw tokens in different chunks,
    # stems first met in a late chunk, and documents that keep no token
    texts = (["", "running runners"] + texts[:45] + ["", "the of and"]
             + texts[45:] + ["runs zygote", "zygotes", ""])
    c = types.SimpleNamespace(ids=[f"{i:03d}" for i in range(len(texts))],
                              texts=texts)
    monkeypatch.setattr(textprep, "_MIN_CHUNK_CHARS", 1)
    outcomes = []
    for n in (1, 2, 3):
        monkeypatch.setattr(util, "cores", lambda: n)
        caplog.clear()
        with caplog.at_level("INFO", logger="petmine.util"):
            dtm = textprep.build_dtm(c, stopwords, 0.02)
        assert f"{len(texts)} documents: {n} process(es)" in (
            caplog.records[0].getMessage())
        path = tmp_path / f"dtm{n}.bin"
        textprep.save_dtm(dtm, str(path))
        outcomes.append((dtm.prune_report, path.read_bytes()))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    assert "run" in dtm.vocabulary.terms and "zygot" in dtm.vocabulary.terms
