"""Porter stemmer (the 1980 algorithm, as commonly distributed).

Implements the five-step suffix stripper from Porter's "An algorithm for
suffix stripping", with the three departures that Porter's own distributed
reference code makes from the published text and that downstream
implementations inherited:

* words of length 1 or 2 are returned unchanged;
* step 2 includes the rule ``(m>0) logi -> log``;
* step 2 uses ``(m>0) bli -> ble`` in place of the published ``abli -> able``.

Within each step only the longest matching suffix is considered; if its
condition fails, no other rule in that step fires.  Input is assumed to be
a lowercase word; the stemmer neither lowercases nor splits.

Two tables make this fast without changing a stem:

* Steps 2, 3 and 4 keep their rules in suffix tables: for each last
  letter, one dict per suffix length.  A word's ending is looked up at
  each length its last letter has, longest first; only one suffix of a
  given length can match, so the first hit is the longest matching
  suffix, and a word whose last letter ends no suffix costs one lookup.
* The conditions read the word's consonant/vowel pattern: one character
  per letter, ``v`` for a vowel and ``c`` for a consonant.  a, e, i, o and
  u are vowels; y is a consonant at the start of the word and after a
  vowel, else a vowel; every other code point, non-ASCII letters
  included, is a consonant.  The pattern is built once per word with
  ``str.translate``; a class depends only on the letters before it, so a
  stem's pattern is a prefix of its word's, and a rule's replacement,
  which never holds a y, brings its own.
"""

from __future__ import annotations


class _PatternMap(dict):
    """Ordinal translation map: vowels to ``v``, y kept, all else to ``c``."""

    def __missing__(self, cp):
        self[cp] = "c"
        return "c"


_PATTERN = _PatternMap({ord(ch): "v" for ch in "aeiou"})
_PATTERN[ord("y")] = "y"


def _pattern(word: str) -> str:
    """The consonant/vowel pattern of ``word``, one ``c`` or ``v`` per letter."""
    p = word.translate(_PATTERN)
    if "y" in p:
        # y is a consonant at the start and after a vowel, else a vowel
        classes = []
        prev = "v"
        for ch in p:
            if ch == "y":
                ch = "c" if prev == "v" else "v"
            classes.append(ch)
            prev = ch
        p = "".join(classes)
    return p


def _measure(p: str) -> int:
    """Number of vowel-consonant sequences: the m in [C](VC)^m[V]."""
    return p.count("vc")


def _ends_double_consonant(word: str, p: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and p[-1] == "c"


def _ends_cvc(stem: str, p: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    return p.endswith("cvc") and stem[-1] not in "wxy"


def _suffix_tables(rules) -> dict[str, tuple[tuple[int, dict], ...]]:
    """Suffix tables keyed by last letter, each longest first.

    ``{last letter: ((length, {suffix: (replacement, its pattern)}), ...)}``
    """
    tables: dict[str, dict[int, dict[str, tuple[str, str]]]] = {}
    for suffix, replacement in rules:
        tables.setdefault(suffix[-1], {}).setdefault(len(suffix), {})[suffix] = (
            replacement, _pattern(replacement))
    return {last: tuple(sorted(by_len.items(), reverse=True))
            for last, by_len in tables.items()}


def _longest(word: str, tables):
    """The longest suffix of ``word`` in ``tables`` and its entry, or None."""
    for n, table in tables.get(word[-1:], ()):
        entry = table.get(word[-n:])
        if entry is not None:
            return n, entry
    return None


_STEP2 = _suffix_tables((
    ("ational", "ate"), ("fulness", "ful"), ("iveness", "ive"),
    ("ization", "ize"), ("ousness", "ous"),
    ("biliti", "ble"), ("tional", "tion"),
    ("alism", "al"), ("aliti", "al"), ("ation", "ate"), ("entli", "ent"),
    ("iviti", "ive"), ("ousli", "ous"),
    ("alli", "al"), ("anci", "ance"), ("ator", "ate"), ("enci", "ence"),
    ("izer", "ize"), ("logi", "log"),
    ("bli", "ble"), ("eli", "e"),
))

_STEP3 = _suffix_tables((
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ness", ""), ("ful", ""),
))

_STEP4 = _suffix_tables((suffix, "") for suffix in (
    "ement",
    "able", "ance", "ence", "ible", "ment",
    "ant", "ate", "ent", "ion", "ism", "iti", "ive", "ize", "ous",
    "al", "er", "ic", "ou",
))


def _replace_longest(word: str, p: str, tables) -> tuple[str, str]:
    """Apply the longest-suffix rule of ``tables`` if its stem has m > 0.

    A failed condition stops the whole step, it does not fall through to
    shorter suffixes.
    """
    hit = _longest(word, tables)
    if hit is not None:
        n, (replacement, rp) = hit
        stem_p = p[:-n]
        if _measure(stem_p):
            return word[:-n] + replacement, stem_p + rp
    return word, p


def _step1a(word: str, p: str) -> tuple[str, str]:
    if word.endswith(("sses", "ies")):
        return word[:-2], p[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1], p[:-1]
    return word, p


def _step1b(word: str, p: str) -> tuple[str, str]:
    if word.endswith("eed"):
        if _measure(p[:-3]) > 0:
            return word[:-1], p[:-1]
        return word, p
    if word.endswith("ed"):
        n = 2
    elif word.endswith("ing"):
        n = 3
    else:
        return word, p
    stem, stem_p = word[:-n], p[:-n]
    if "v" not in stem_p:
        return word, p
    # an -ed or -ing was removed: tidy up the exposed stem
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e", stem_p + "v"
    if _ends_double_consonant(stem, stem_p) and stem[-1] not in "lsz":
        return stem[:-1], stem_p[:-1]
    if _measure(stem_p) == 1 and _ends_cvc(stem, stem_p):
        return stem + "e", stem_p + "v"
    return stem, stem_p


def _step1c(word: str, p: str) -> tuple[str, str]:
    if word.endswith("y") and "v" in p[:-1]:
        return word[:-1] + "i", p[:-1] + "v"
    return word, p


def _step4(word: str, p: str) -> tuple[str, str]:
    hit = _longest(word, _STEP4)
    if hit is not None:
        n = hit[0]
        stem, stem_p = word[:-n], p[:-n]
        # the -ion rule also needs the stem to end in s or t
        if _measure(stem_p) > 1 and (not word.endswith("ion")
                                     or stem.endswith(("s", "t"))):
            return stem, stem_p
    return word, p


def _step5(word: str, p: str) -> str:
    if word.endswith("e"):
        m = _measure(p[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1], p[:-1])):
            word, p = word[:-1], p[:-1]
    if word.endswith("ll") and _measure(p) > 1:
        word = word[:-1]
    return word


def stem(word: str) -> str:
    """Stem a single lowercase word."""
    if len(word) <= 2:
        return word
    p = _pattern(word)
    word, p = _step1a(word, p)
    word, p = _step1b(word, p)
    word, p = _step1c(word, p)
    word, p = _replace_longest(word, p, _STEP2)
    word, p = _replace_longest(word, p, _STEP3)
    word, p = _step4(word, p)
    return _step5(word, p)
