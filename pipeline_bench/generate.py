"""Seeded synthetic petition archives with planted themes.

Everything the pipeline benchmark feeds to petmine is made here from one
seed, together with the ground truth its checks compare against: which
lines were planted as bad, every petition's planted topic weights, the
signature sums, the burst day and the tail exponent of the signature
totals.  The same seed gives byte-identical files; nothing here calls
into petmine except to write the planted model and document-term matrix
through the package's own snapshot writers.

Make-up of an archive:

* ten themes, each with its own block of pseudo-word roots, plus a
  general vocabulary drawn by a Zipf law; every token gets an inflection
  (``-s``, ``-ing``, ``-ation`` ...) so the Porter stemmer sees many
  distinct surface forms, and stopwords and year tokens are mixed in;
  only the Zipf exponent near 1 has a source (word frequencies in
  English text follow Zipf's law with an exponent close to 1: Zipf,
  "Human Behavior and the Principle of Least Effort", 1949; Piantadosi,
  Psychonomic Bulletin & Review 21, 2014).  The number of roots, the
  suffixes and their weights and the stopword rate are assumptions, not
  fitted to real petition text, so the share of distinct stemmer inputs
  they give is a property of this generator only;
* petition topic weights put most mass on one planted theme;
* UK signature totals follow a discrete power law (exponent
  ``TAIL_EXPONENT`` from ``X_MIN``), drawn with stratified uniforms so the
  shape barely moves between seeds; each petition's signatures are spread
  over constituencies with theme-dependent regional weights;
* one day carries a burst of very large petitions on a single theme;
* a fixed set of bad lines: invalid JSON, a missing action, a date
  outside the window, a duplicate id, a constituency sum above the
  total, and records in non-accepted states.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os

import numpy as np
from scipy.special import zeta

WINDOW = (datetime.date(2015, 5, 7), datetime.date(2017, 5, 3))
N_THEMES = 10
TAIL_EXPONENT = 1.6
X_MIN = 10
ZIPF_EXPONENT = 1.07    # general vocabulary; English word frequencies: ~1

# real 2015-17 constituency names that hold a comma; they sit at fixed
# rows of the paper-scale table whatever the seed
COMMA_NAMES = {
    37: "Ross, Skye and Lochaber",
    101: "Caithness, Sutherland and Easter Ross",
    188: "Berwickshire, Roxburgh and Selkirk",
    263: "Dumfriesshire, Clydesdale and Tweeddale",
    354: "Normanton, Pontefract and Castleford",
    470: "Birmingham, Edgbaston",
    588: "Sheffield, Hallam",
}

# Snowball stopwords, mixed in before 60% of content tokens (an assumed rate)
_STOPWORDS = ("the", "and", "to", "of", "a", "in", "for", "is", "that", "be",
              "we", "on", "with", "this", "are", "as", "it", "by", "our",
              "all", "not", "have", "from", "more", "their", "they", "should")
# inflections and their weights: assumed, not measured on real text
_SUFFIXES = ("", "s", "ing", "ed", "er", "ation", "ness", "ly", "ment",
             "ful", "ize", "ional", "ive", "ance")
_SUFFIX_P = np.array([30, 14, 10, 9, 6, 5, 4, 4, 4, 3, 3, 3, 3, 2], float)
_SUFFIX_P /= _SUFFIX_P.sum()
_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "cl", "dr", "gr", "pl", "st", "tr")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ou", "ea")
_BAD_STATES = ("open", "closed", "rejected", "hidden", "pending")


@dataclasses.dataclass(frozen=True)
class Scale:
    petitions: int          # accepted petitions
    constituencies: int
    theme_roots: int        # root words per theme
    general_roots: int      # Zipfian general vocabulary
    content_tokens: int     # non-stopword tokens per text: mean or exact
    fixed_lengths: bool     # every text exactly content_tokens long
    theme_share: float      # share of content tokens drawn from the themes
    primary_weight: float   # topic weight on a petition's planted theme
    x_cap: int              # largest ordinary UK signature total
    burst: int              # petitions in the planted burst
    burst_signatures: int   # UK signatures of each burst petition
    dropped: int            # records in non-accepted states
    comma_names: bool


PAPER = Scale(petitions=10_950, constituencies=650, theme_roots=40,
              general_roots=30_000, content_tokens=75, fixed_lengths=False,
              theme_share=0.5, primary_weight=0.4, x_cap=500_000, burst=20,
              burst_signatures=400_000, dropped=60, comma_names=True)
SMALL = Scale(petitions=80, constituencies=120, theme_roots=10,
              general_roots=200, content_tokens=12, fixed_lengths=True,
              theme_share=0.9, primary_weight=0.9, x_cap=100_000, burst=3,
              burst_signatures=40_000, dropped=5, comma_names=False)


def _pseudo_words(rng: np.random.Generator, n: int, syllables: int,
                  taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        batch = 2 * (n - len(out)) + 16
        onsets = rng.integers(0, len(_ONSETS), size=(batch, syllables))
        nuclei = rng.integers(0, len(_NUCLEI), size=(batch, syllables))
        for o, u in zip(onsets.tolist(), nuclei.tolist()):
            word = "".join(_ONSETS[a] + _NUCLEI[b] for a, b in zip(o, u))
            if word not in taken:
                taken.add(word)
                out.append(word)
                if len(out) == n:
                    break
    return out


def vocabulary(scale: Scale) -> tuple[list[str], list[str]]:
    """(theme roots, theme-major, then general roots); fixed per scale."""
    rng = np.random.Generator(np.random.PCG64(20150507))
    taken = set(_STOPWORDS)
    themes = _pseudo_words(rng, N_THEMES * scale.theme_roots, 3, taken)
    general = _pseudo_words(rng, scale.general_roots, 3, taken)
    return themes, general


def constituency_table(scale: Scale) -> list[tuple[str, str, int]]:
    """(code, name, electorate) rows; fixed per scale, seed-independent."""
    rng = np.random.Generator(np.random.PCG64(650))
    towns = _pseudo_words(rng, scale.constituencies, 2, set())
    sides = ("North", "South", "East", "West", "Central")
    rows = []
    for i in range(scale.constituencies):
        prefix = "E14" if i < 0.82 * scale.constituencies else (
            "W07" if i < 0.87 * scale.constituencies else (
                "S14" if i < 0.96 * scale.constituencies else "N06"))
        name = f"{towns[i].capitalize()} {sides[i % len(sides)]}"
        if scale.comma_names and i in COMMA_NAMES:
            name = COMMA_NAMES[i]
        electorate = int(rng.integers(50_000, 110_000))
        rows.append((f"{prefix}{i:06d}", name, electorate))
    return rows


def _powerlaw_totals(rng: np.random.Generator, n: int, cap: int) -> np.ndarray:
    # inverse-CDF draws of the discrete power law x^-a / zeta(a, X_MIN),
    # stratified: one uniform per 1/n slice, shuffled
    xs = np.arange(X_MIN, cap + 1, dtype=np.float64)
    cdf = np.cumsum(xs ** -TAIL_EXPONENT) / zeta(TAIL_EXPONENT, X_MIN)
    u = (rng.permutation(n) + rng.random(n)) / n
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(xs) - 1)
    return (X_MIN + idx).astype(np.int64)


@dataclasses.dataclass
class Planted:
    """The generator's own record of what it wrote."""
    ids: list[int]                  # accepted ids, ascending
    labels: np.ndarray              # planted theme per accepted petition
    theta: np.ndarray               # (n, K) planted topic weights
    uk: np.ndarray                  # UK signatures per accepted petition
    const_totals: np.ndarray        # signatures per constituency row
    codes: list[str]
    reject_lines: list[int]
    dropped: int
    total_lines: int
    burst_day: str
    token_rows: list[np.ndarray]    # content-root ids per accepted petition
    raw_tokens: int                 # all whitespace tokens, stopwords included
    distinct_tokens: int            # distinct lowercase stemmer inputs
    pairs: int                      # petition x constituency pairs


def draw(scale: Scale, seed: int) -> tuple[Planted, list[str]]:
    """Draw one archive; returns the truth and the archive's JSON lines."""
    rng = np.random.Generator(np.random.PCG64(seed))
    themes, general = vocabulary(scale)
    roots = themes + general
    table = constituency_table(scale)
    codes = [c for c, _, _ in table]
    electorate = np.array([e for _, _, e in table], dtype=np.float64)
    n = scale.petitions
    k = N_THEMES

    # planted topic weights, mostly on one theme, every entry positive;
    # every theme leads equally many petitions, so that no theme of a
    # small archive can fall wholly into a held-out set
    labels = rng.permutation(np.arange(n) % k)
    rest = rng.dirichlet(np.full(k, 0.3), size=n)
    theta = (1.0 - scale.primary_weight) * rest
    theta[np.arange(n), labels] += scale.primary_weight
    theta = 0.999 * theta + 0.001 / k
    theta /= theta.sum(axis=1, keepdims=True)

    # creation days and the burst
    n_days = (WINDOW[1] - WINDOW[0]).days + 1
    days = rng.integers(0, n_days, size=n)
    uk = _powerlaw_totals(rng, n, scale.x_cap)
    burst_day = int(rng.integers(n_days // 5, 4 * n_days // 5))
    burst = rng.choice(n, size=scale.burst, replace=False)
    # the burst goes to the theme quietest in the week before, so that it
    # concentrates attention whatever led that week
    before = (days >= burst_day - 7) & (days < burst_day)
    burst_theme = int(np.argmin((uk[before, None] * theta[before]).sum(axis=0)))
    labels[burst] = burst_theme
    theta[burst] = 0.1 / (k - 1)
    theta[burst, burst_theme] = 0.9
    days[burst] = burst_day
    uk[burst] = scale.burst_signatures
    overseas = (uk * rng.uniform(0.0, 0.08, size=n)).astype(np.int64)

    # signatures spread by electorate and a regional taste per theme
    region = np.arange(scale.constituencies) * 12 // scale.constituencies
    taste = np.exp(rng.normal(0.0, 0.6, size=(12, k)))[region]
    weights = electorate[:, None] * taste
    weights /= weights.sum(axis=0, keepdims=True)
    by_const = [rng.multinomial(uk[d], weights[:, labels[d]])
                for d in range(n)]

    # texts: content roots from the themes or the Zipf vocabulary; small
    # archives give every text one length, so that the sampler's work,
    # held-out rows included, is the same whatever the seed
    if scale.fixed_lengths:
        lengths = np.full(n, scale.content_tokens)
    else:
        lengths = np.maximum(5, rng.poisson(scale.content_tokens, size=n))
    ptr = np.concatenate([[0], np.cumsum(lengths)])
    n_tok = int(ptr[-1])
    doc_of = np.repeat(np.arange(n), lengths)
    from_theme = rng.random(n_tok) < scale.theme_share
    cum = np.cumsum(theta, axis=1)
    topic = (rng.random(n_tok)[:, None] > cum[doc_of]).sum(axis=1)
    topic = np.minimum(topic, k - 1)
    theme_root = topic * scale.theme_roots + rng.integers(
        0, scale.theme_roots, size=n_tok)
    zipf = np.arange(1, scale.general_roots + 1,
                     dtype=np.float64) ** -ZIPF_EXPONENT
    general_root = len(themes) + rng.choice(
        scale.general_roots, size=n_tok, p=zipf / zipf.sum())
    root = np.where(from_theme, theme_root, general_root)
    suffix = rng.choice(len(_SUFFIXES), size=n_tok, p=_SUFFIX_P)
    stop_before = rng.random(n_tok) < 0.6
    stop_word = rng.integers(0, len(_STOPWORDS), size=n_tok)
    year_before = rng.random(n_tok) < 0.01

    surface = [roots[r] + _SUFFIXES[s]
               for r, s in zip(root.tolist(), suffix.tolist())]
    distinct = len(set(surface))
    raw_tokens = n_tok + int(stop_before.sum()) + int(year_before.sum())

    ids = [100_000 + i for i in range(n)]
    start = WINDOW[0]
    lines = []
    for d in range(n):
        words = []
        for j in range(ptr[d], ptr[d + 1]):
            if year_before[j]:
                words.append(str(2015 + j % 3))
            if stop_before[j]:
                words.append(_STOPWORDS[stop_word[j]])
            words.append(surface[j])
        cut1, cut2 = min(8, len(words)), min(8 + len(words) // 3, len(words))
        action = " ".join(words[:cut1]).capitalize()
        background = " ".join(words[cut1:cut2]) + "." if cut2 > cut1 else ""
        details = " ".join(words[cut2:]) + "." if cut2 < len(words) else None
        counts = by_const[d]
        nz = np.nonzero(counts)[0]
        created = start + datetime.timedelta(days=int(days[d]))
        record = {
            "id": ids[d],
            "state": "accepted",
            "attributes": {
                "action": action,
                "background": background,
                "additional_details": details,
                "created_at": f"{created.isoformat()}T09:{d % 60:02d}:00.000Z",
                "signature_count": int(uk[d] + overseas[d]),
                "signatures_by_constituency": [
                    {"ons_code": codes[i], "signature_count": c}
                    for i, c in zip(nz.tolist(), counts[nz].tolist())],
                "signatures_by_country": [
                    {"code": "GB", "signature_count": int(uk[d])},
                    {"code": "FR", "signature_count": int(overseas[d])}],
            },
        }
        lines.append(json.dumps(record, separators=(",", ":")))

    lines, reject_lines, dropped = _plant_bad_lines(rng, lines, scale)
    const_totals = np.sum(by_const, axis=0)
    planted = Planted(
        ids=ids, labels=labels, theta=theta, uk=uk,
        const_totals=const_totals, codes=codes,
        reject_lines=reject_lines, dropped=dropped, total_lines=len(lines),
        burst_day=(start + datetime.timedelta(days=burst_day)).isoformat(),
        token_rows=[root[ptr[d]:ptr[d + 1]] for d in range(n)],
        raw_tokens=raw_tokens, distinct_tokens=distinct,
        pairs=int(sum(np.count_nonzero(c) for c in by_const)))
    return planted, lines


_TRUTH_ARRAYS = ("labels", "theta", "uk", "const_totals")


def save_truth(planted: Planted, path: str, **extra) -> None:
    """Store what the checks need (not the token rows) in one ``.npz``."""
    scalars = {f.name: getattr(planted, f.name)
               for f in dataclasses.fields(Planted)
               if f.name not in _TRUTH_ARRAYS + ("token_rows",)}
    scalars.update(extra)
    np.savez(path, meta=np.array(json.dumps(scalars)),
             **{name: getattr(planted, name) for name in _TRUTH_ARRAYS})


def load_truth(path: str) -> dict:
    with np.load(path) as data:
        truth = json.loads(str(data["meta"]))
        truth.update({name: data[name] for name in _TRUTH_ARRAYS})
    return truth


def _plant_bad_lines(rng, lines, scale):
    """Insert bad and non-accepted records; returns 1-based reject lines."""
    good = json.loads(lines[0])

    def variant(pid, **attrs):
        rec = json.loads(json.dumps(good))
        rec["id"] = pid
        rec["attributes"].update(attrs)
        return rec

    missing_action = variant(900_002)
    del missing_action["attributes"]["action"]
    over = variant(900_005, signature_count=1)
    bad = [
        '{"id": 900001, "state": "accepted", "attributes": {"action": "cut',
        json.dumps(missing_action),
        json.dumps(variant(900_003, created_at="2014-12-01T10:00:00.000Z")),
        None,    # duplicate id: a copy of a line accepted earlier
        json.dumps(over),
    ]
    inserts = [(text, True) for text in bad]
    for i in range(scale.dropped):
        rec = variant(910_000 + i)
        rec["state"] = _BAD_STATES[i % len(_BAD_STATES)]
        inserts.append((json.dumps(rec), False))
    # positions in the good stream, after which each insert lands
    slots = np.sort(rng.choice(np.arange(1, len(lines)), size=len(inserts),
                               replace=False))
    order = rng.permutation(len(inserts))
    out, reject_lines = [], []
    nxt = 0
    for pos, which in zip(slots.tolist(), order.tolist()):
        out.extend(lines[nxt:pos])
        nxt = pos
        text, is_reject = inserts[which]
        if text is None:
            text = lines[int(rng.integers(0, pos))]
        out.append(text)
        if is_reject:
            reject_lines.append(len(out))
    out.extend(lines[nxt:])
    return out, sorted(reject_lines), scale.dropped


def planted_phi(planted: Planted, scale: Scale) -> tuple[np.ndarray, list[str]]:
    """Theme-by-root word distributions estimated from the drawn tokens.

    Terms are the roots, sorted; every entry gets a small pseudo-count so
    rows are positive.  Used as the phi of the planted model.
    """
    themes, general = vocabulary(scale)
    roots = themes + general
    order = np.argsort(roots)
    rank = np.empty(len(roots), dtype=np.int64)
    rank[order] = np.arange(len(roots))
    counts = np.full((N_THEMES, len(roots)), 0.01)
    token_label = np.repeat(planted.labels, [len(r) for r in planted.token_rows])
    np.add.at(counts, (token_label, rank[np.concatenate(planted.token_rows)]), 1.0)
    return counts / counts.sum(axis=1, keepdims=True), [roots[i] for i in order]


def write_archive(directory: str, scale: Scale, seed: int) -> Planted:
    """Write ``archive.jsonl`` and ``constituencies.csv`` into ``directory``."""
    import csv

    planted, lines = draw(scale, seed)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "archive.jsonl"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(directory, "constituencies.csv"), "w",
              encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["code", "name", "electorate"])
        writer.writerows(constituency_table(scale))
    return planted


def write_planted_model(planted: Planted, scale: Scale, seed: int,
                        path: str) -> None:
    """Save the planted phi and theta as a petmine model snapshot."""
    from petmine import lda

    phi, terms = planted_phi(planted, scale)
    model = lda.TopicModel(
        config=lda.LdaConfig(k=N_THEMES, iterations=1, burn_in=0,
                             sample_every=1, seed=seed),
        phi=phi, theta=planted.theta, log_likelihood_trace=[0.0],
        trace_sweeps=[1], terms=tuple(terms),
        doc_ids=tuple(str(i) for i in planted.ids))
    lda.save_model(model, path)


def write_planted_dtm(planted: Planted, scale: Scale, path: str) -> int:
    """Save the drawn content roots as a petmine document-term matrix.

    Terms are the roots that occur, sorted; no stemming or pruning.
    Returns the number of terms.
    """
    import scipy.sparse as sp
    from petmine import textprep

    themes, general = vocabulary(scale)
    roots = np.array(themes + general)
    tokens = np.concatenate(planted.token_rows)
    used = np.unique(tokens)
    order = np.argsort(roots[used])
    column = np.empty(len(roots), dtype=np.int64)
    column[used[order]] = np.arange(len(used))
    rows = np.repeat(np.arange(len(planted.token_rows)),
                     [len(r) for r in planted.token_rows])
    counts = sp.csr_matrix(
        (np.ones(len(tokens), dtype=np.int32), (rows, column[tokens])),
        shape=(len(planted.token_rows), len(used)))
    counts.sum_duplicates()
    dtm = textprep.DocumentTermMatrix(
        n_docs=counts.shape[0],
        vocabulary=textprep.Vocabulary(
            terms=tuple(roots[used[order]].tolist()),
            doc_frequency=np.diff(counts.tocsc().indptr).astype(np.int64)),
        counts=counts, doc_ids=tuple(str(i) for i in planted.ids))
    textprep.save_dtm(dtm, path)
    return len(used)
