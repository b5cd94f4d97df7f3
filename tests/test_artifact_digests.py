"""Every artifact's bytes, pinned by its sha256.

The six commands run on the fixture archive with short settings, and each
file they write is compared with ``tests/data/artifact_digests.json``.
They run from a fresh working directory with relative input paths,
because the ``# config:`` header digests the configured paths.

A change that moves bytes on purpose regenerates the digest file::

    PYTHONPATH=src:tests python tests/test_artifact_digests.py

and names the files whose digests changed.
"""

import hashlib
import json
import os
import pathlib
import platform
import sys
import tempfile

import numpy as np
import scipy

from petmine import cli, kernels

from conftest import write_fixture_archive

DIGESTS = (pathlib.Path(__file__).resolve().parent / "data"
           / "artifact_digests.json")

# written from BLAS products (matrix-vector and matrix-matrix products,
# np.cov), whose last digits depend on the kernel OpenBLAS picks for the
# CPU; these are pinned once those products are fixed-order reductions
UNPINNED = frozenset({
    "prevalence.csv", "network_nodes.csv",
    "network_cooccurrence_edges.csv", "network_cooccurrence_edges_pruned.csv",
    "network_worddist_edges.csv", "network_worddist_edges_pruned.csv",
    "scaling_raw.json", "scaling_binned.json", "summary.json",
})

COMMANDS = ("ingest", "fit", "report", "grid", "xmin-scan", "intrusion-score")


def artifact_digests() -> dict[str, str]:
    """Run every command in the current directory; the sha256 of each
    file written, by name."""
    write_fixture_archive(pathlib.Path("."))
    config = json.loads(pathlib.Path("config.json").read_text("utf-8"))
    config.update(lda={"k": 3, "iterations": 40, "burn_in": 20,
                       "sample_every": 4},
                  k_values=[2, 3], answers="answers.csv")
    pathlib.Path("config.json").write_text(json.dumps(config), "utf-8")
    # two subjects' picks for each topic
    pathlib.Path("answers.csv").write_text(
        "topic,subject,position\n" + "".join(
            f"{t},{s},{(t + s) % 6}\n" for t in range(3) for s in range(2)),
        "utf-8")
    for command in COMMANDS:
        assert cli.main([command, "--config", "config.json"]) == 0, command
    out = pathlib.Path(config["output_dir"])
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def _versions() -> str:
    mode = "numba" if kernels.NUMBA_ENABLED else "pure-Python"
    return (f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, {mode} kernels")


def test_artifact_bytes_match_the_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = artifact_digests()
    want = json.loads(DIGESTS.read_text("utf-8"))
    assert UNPINNED <= set(got), sorted(UNPINNED - set(got))
    pinned = {name: digest for name, digest in got.items()
              if name not in UNPINNED}
    differ = sorted(name for name in set(pinned) | set(want)
                    if pinned.get(name) != want.get(name))
    assert not differ, (f"artifact bytes differ from {DIGESTS.name}: "
                        f"{', '.join(differ)} ({_versions()})")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        home = os.getcwd()
        os.chdir(directory)
        try:
            digests = {name: digest
                       for name, digest in artifact_digests().items()
                       if name not in UNPINNED}
        finally:
            os.chdir(home)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                       "utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS} ({_versions()})",
          file=sys.stderr)
