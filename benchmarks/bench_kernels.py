"""Time the sampler kernels with and without compilation.

Runs the same seeded fit twice in subprocesses, once with the compiled
kernels and once with the pure-Python kernels (PETMINE_NUMBA=0), checks
that both produce byte-identical model files, and reports the speedup.
Each leg is labelled by the kernel mode its worker saw.  When numba is not
importable only the pure-Python leg runs.  petmine is imported from this
checkout's ``src``.

    python3 benchmarks/bench_kernels.py [--docs 600] [--sweeps 40]

Half the sweeps are burn-in and every fifth sweep after it is kept, so
``--sweeps`` must be at least 10.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))


def lda_config(args):
    from petmine import lda

    return lda.LdaConfig(k=args.k, iterations=args.sweeps,
                         burn_in=args.sweeps // 2, sample_every=5, seed=3)


def worker(args) -> None:
    import numpy as np
    import scipy.sparse as sp

    from petmine import lda, textprep

    rng = np.random.Generator(np.random.PCG64(11))
    vocab = args.vocab
    rows, cols, vals = [], [], []
    for d in range(args.docs):
        words = rng.integers(0, vocab, size=args.tokens_per_doc)
        uniq, counts = np.unique(words, return_counts=True)
        rows.extend([d] * len(uniq))
        cols.extend(uniq.tolist())
        vals.extend(counts.tolist())
    counts = sp.csr_matrix(
        (vals, (rows, cols)), shape=(args.docs, vocab), dtype=np.int32)
    df = np.asarray((counts > 0).sum(axis=0)).ravel().astype(np.int64)
    dtm = textprep.DocumentTermMatrix(
        n_docs=args.docs,
        vocabulary=textprep.Vocabulary(
            terms=tuple(f"w{i}" for i in range(vocab)), doc_frequency=df),
        counts=counts,
        doc_ids=tuple(str(i) for i in range(args.docs)),
        prune_report=None)
    config = lda_config(args)

    from petmine import kernels
    if kernels.NUMBA_ENABLED:
        lda.fit(dtm, config)           # warm-up: compilation cost stays out
    t0 = time.perf_counter()
    model = lda.fit(dtm, config)
    elapsed = time.perf_counter() - t0

    lda.save_model(model, args.out)
    digest = hashlib.sha256(pathlib.Path(args.out).read_bytes()).hexdigest()
    n_tokens = int(counts.sum())
    print(json.dumps({
        "numba_enabled": kernels.NUMBA_ENABLED,
        "elapsed": elapsed,
        "tokens_per_s": n_tokens * args.sweeps / elapsed,
        "digest": digest,
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=int, default=600)
    parser.add_argument("--vocab", type=int, default=2000)
    parser.add_argument("--tokens-per-doc", type=int, default=80)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--sweeps", type=int, default=40)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args)
        return 0

    from petmine.errors import ConfigError

    try:
        retained = lda_config(args).retained_sweeps()
    except ConfigError as exc:
        parser.error(str(exc))
    if not retained:
        parser.error(f"--sweeps {args.sweeps} keeps no samples; use at least 10")

    flags = ["1", "0"]
    if importlib.util.find_spec("numba") is None:
        print("numba is not importable: skipping the compiled leg")
        flags = ["0"]
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for flag in flags:
            env = dict(os.environ, PETMINE_NUMBA=flag)
            out = os.path.join(tmp, f"model_{flag}.bin")
            cmd = [sys.executable, os.path.abspath(__file__), "--worker",
                   "--out", out,
                   "--docs", str(args.docs), "--vocab", str(args.vocab),
                   "--tokens-per-doc", str(args.tokens_per_doc),
                   "--k", str(args.k), "--sweeps", str(args.sweeps)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            label = "compiled" if result["numba_enabled"] else "python"
            if label in results:
                print(f"FAIL: both legs ran the {label} kernels", file=sys.stderr)
                return 1
            results[label] = result
            print(f"{label:9s} {result['elapsed']:8.2f} s "
                  f"({result['tokens_per_s']:12.0f} tokens/s)")

    if len(results) < 2:
        return 0
    if results["compiled"]["digest"] != results["python"]["digest"]:
        print("FAIL: modes disagree", file=sys.stderr)
        return 1
    speedup = results["python"]["elapsed"] / results["compiled"]["elapsed"]
    print(f"models byte-identical; compiled kernels {speedup:.1f}x faster")
    return 0


if __name__ == "__main__":
    sys.exit(main())
