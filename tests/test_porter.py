"""Stemmer checked against hand-traced expectations and a per-character reference."""

import pathlib
import string

import pytest
from hypothesis import given, strategies as st

from petmine import porter

# ---------------------------------------------------------------------------
# Reference: Porter's rules applied one character test and one endswith
# scan at a time.  porter.stem, with its suffix tables and consonant/vowel
# pattern, must return the same stem for every word.
# ---------------------------------------------------------------------------

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a consonant at the start and after a vowel, else a vowel
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: the m in [C](VC)^m[V]."""
    n = len(stem)
    i = 0
    while i < n and _is_consonant(stem, i):
        i += 1
    m = 0
    while True:
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            return m
        m += 1
        while i < n and _is_consonant(stem, i):
            i += 1


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    if len(stem) < 3:
        return False
    return (
        _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


def _replace_longest(word: str, rules, min_measure: int) -> str:
    """Apply the longest-suffix rule whose measure condition holds.

    ``rules`` is (suffix, replacement) pairs ordered longest suffix first.
    Only the longest matching suffix is tried; a failed condition stops the
    whole step, it does not fall through to shorter suffixes.
    """
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > min_measure:
                return stem + replacement
            return word
    return word


_STEP2 = (
    ("ational", "ate"), ("fulness", "ful"), ("iveness", "ive"),
    ("ization", "ize"), ("ousness", "ous"),
    ("biliti", "ble"), ("tional", "tion"),
    ("alism", "al"), ("aliti", "al"), ("ation", "ate"), ("entli", "ent"),
    ("iviti", "ive"), ("ousli", "ous"),
    ("alli", "al"), ("anci", "ance"), ("ator", "ate"), ("enci", "ence"),
    ("izer", "ize"), ("logi", "log"),
    ("bli", "ble"), ("eli", "e"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ness", ""), ("ful", ""),
)

_STEP4 = (
    "ement",
    "able", "ance", "ence", "ible", "ment",
    "ant", "ate", "ent", "ion", "ism", "iti", "ive", "ize", "ous",
    "al", "er", "ic", "ou",
)


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    if word.endswith("ed"):
        stem = word[:-2]
        if not _has_vowel(stem):
            return word
    elif word.endswith("ing"):
        stem = word[:-3]
        if not _has_vowel(stem):
            return word
    else:
        return word
    # an -ed or -ing was removed: tidy up the exposed stem
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_consonant(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    return word
                return stem
            return word
    return word


def _step5(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]
    return word


def reference_stem(word: str) -> str:
    """Stem a single lowercase word, one character test at a time."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_longest(word, _STEP2, 0)
    word = _replace_longest(word, _STEP3, 0)
    word = _step4(word)
    word = _step5(word)
    return word


PAIRS_FILE = pathlib.Path(__file__).parent / "data" / "porter_pairs.txt"


def load_pairs():
    pairs = []
    for line in PAIRS_FILE.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word, expected = line.split()
        pairs.append((word, expected))
    return pairs


@pytest.mark.parametrize("word,expected", load_pairs())
def test_oracle_pair(word, expected):
    assert porter.stem(word) == expected
    assert reference_stem(word) == expected


# word pieces that reach every rule: each step's suffixes, y runs (y's
# class alternates along a run) and non-ASCII letters, all consonants
_SUFFIXES = sorted({
    "sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y",
    "ational", "tional", "enci", "anci", "izer", "bli", "alli", "entli",
    "eli", "ousli", "ization", "ation", "ator", "alism", "iveness",
    "fulness", "ousness", "aliti", "iviti", "biliti", "logi", "icate",
    "ative", "alize", "iciti", "ical", "ful", "ness", "al", "ance", "ence",
    "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ion", "ou",
    "ism", "ate", "iti", "ous", "ive", "ize", "e", "ll",
})
_PIECES = list(string.ascii_lowercase) + _SUFFIXES + [
    "yy", "yyy", "ay", "ey", "oy", "\u00e9", "\u00df", "\u03b1", "\u03bb",
    "\u03c9", "\u00e9y", "y\u00e9",
]


@given(st.lists(st.sampled_from(_PIECES), max_size=8).map("".join))
def test_stem_matches_per_character_reference(word):
    assert porter.stem(word) == reference_stem(word)


@given(st.text(max_size=12))
def test_stem_matches_reference_on_any_text(word):
    assert porter.stem(word) == reference_stem(word)


def test_short_words_unchanged():
    for word in ("a", "is", "by", "ox", "s", ""):
        assert porter.stem(word) == word


def test_plural_family():
    assert porter.stem("churches") == "church"
    assert porter.stem("abilities") == "abil"
    assert porter.stem("crosses") == "cross"


@given(st.text(alphabet=string.ascii_lowercase, max_size=30))
def test_never_longer_and_deterministic(word):
    out = porter.stem(word)
    assert len(out) <= len(word)
    assert porter.stem(word) == out


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=30))
def test_output_is_lowercase_ascii(word):
    out = porter.stem(word)
    assert out == out.lower()
    assert all(c in string.ascii_lowercase for c in out)
