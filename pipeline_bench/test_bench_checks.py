"""Tests of the pipeline benchmark's generator and output checks.

The checks must pass on petmine's real outputs and fail on hand-corrupted
ones; the generator must be a pure function of its seed.  Run with

    PYTHONPATH=src python3 -m pytest -q pipeline_bench
"""

import csv
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import generate  # noqa: E402
from petmine import cli, lda  # noqa: E402

SEED = 5


def _bytes(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def test_generator_is_a_function_of_its_seed(tmp_path):
    for name, seed in (("a", SEED), ("b", SEED), ("c", SEED + 1)):
        generate.write_archive(str(tmp_path / name), generate.SMALL, seed)
        planted, _ = generate.draw(generate.SMALL, seed)
        generate.write_planted_dtm(planted, generate.SMALL,
                                   str(tmp_path / name / "dtm.bin"))
    a, b, c = (_bytes(tmp_path / n) for n in "abc")
    assert a == b
    assert a["archive.jsonl"] != c["archive.jsonl"]
    assert a["dtm.bin"] != c["dtm.bin"]


def test_planted_bad_lines_match_the_archive(tmp_path):
    planted = generate.write_archive(str(tmp_path), generate.SMALL, SEED)
    with open(tmp_path / "archive.jsonl", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == planted.total_lines
    assert len(planted.reject_lines) == 5
    assert lines[planted.reject_lines[0] - 1].count('"id"') == 1


@pytest.fixture(scope="module")
def reported(tmp_path_factory):
    """A small archive ingested and reported against its planted model."""
    root = tmp_path_factory.mktemp("reported")
    inputs, out = str(root / "inputs"), str(root / "out")
    planted = generate.write_archive(inputs, generate.SMALL, SEED)
    generate.save_truth(planted, os.path.join(inputs, "truth.npz"),
                        tail_exponent=generate.TAIL_EXPONENT)
    os.makedirs(out)
    generate.write_planted_model(planted, generate.SMALL, SEED,
                                 os.path.join(out, "model.bin"))
    common = ["--output-dir", out,
              "--archive", os.path.join(inputs, "archive.jsonl"),
              "--constituencies", os.path.join(inputs, "constituencies.csv"),
              "--window", "2015-05-07,2017-05-03"]
    assert cli.main(["ingest"] + common) == 0
    assert cli.main(["report"] + common) == 0
    return inputs, out, common


@pytest.fixture
def case(reported, tmp_path):
    """A private copy of the reported outputs and the truth."""
    inputs, out, common = reported
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    truth = generate.load_truth(os.path.join(inputs, "truth.npz"))
    return copy, truth, [a if a != out else copy for a in common]


def _report_checks(out, truth):
    return [
        lambda: checks.ingest_counts(out, truth),
        lambda: checks.signature_totals(out, truth),
        lambda: checks.prevalence(out, truth, truth["theta"]),
        lambda: checks.profile_shares(out, truth),
        lambda: checks.clusters(out, truth, 6),
        lambda: checks.entropy(out, truth, burst=False),
        lambda: checks.profiles_readback(out, truth),
        lambda: checks.model_rows(out, truth),
    ]


def _rewrite_csv(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    edit(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(meta + [",".join(r) for r in rows]) + "\n")


def test_checks_pass_on_real_outputs(case):
    out, truth, _ = case
    for check in _report_checks(out, truth):
        check()


def test_one_constituency_total_off_by_one_fails(case):
    out, truth, _ = case

    def bump(rows):
        col = rows[0].index("total_signatures")
        rows[5][col] = str(int(rows[5][col]) + 1)

    _rewrite_csv(os.path.join(out, "constituency_profiles.csv"), bump)
    with pytest.raises(checks.CheckFailed, match="signatures, planted"):
        checks.signature_totals(out, truth)


def test_swapped_prevalence_columns_fail(case):
    out, truth, _ = case

    def swap(rows):
        i, j = rows[0].index("mass_by_petitions"), rows[0].index("mass_by_signatures")
        for r in rows[1:]:
            r[i], r[j] = r[j], r[i]

    _rewrite_csv(os.path.join(out, "prevalence.csv"), swap)
    with pytest.raises(checks.CheckFailed, match="mass_by_petitions"):
        checks.prevalence(out, truth, truth["theta"])


def test_model_from_another_seed_fails(case):
    out, truth, common = case
    other, _ = generate.draw(generate.SMALL, SEED + 1)
    generate.write_planted_model(other, generate.SMALL, SEED + 1,
                                 os.path.join(out, "model.bin"))
    assert cli.main(["report"] + common) == 0
    with pytest.raises(checks.CheckFailed, match="mass_by"):
        checks.prevalence(out, truth, truth["theta"])
    with pytest.raises(checks.CheckFailed, match="purity"):
        checks.purity(out, truth)


def test_other_corruptions_fail(case):
    out, truth, _ = case
    _rewrite_csv(os.path.join(out, "rejects.csv"),
                 lambda rows: rows[1].__setitem__(0, str(int(rows[1][0]) + 1)))
    _rewrite_csv(os.path.join(out, "clusters.csv"), lambda rows: rows.pop())
    _rewrite_csv(os.path.join(out, "entropy.csv"),
                 lambda rows: rows[40].__setitem__(1, "1.5"))
    _rewrite_csv(os.path.join(out, "constituency_profiles.csv"),
                 lambda rows: rows[3].__setitem__(1, "Ross, Skye and Lochaber"))
    for check in (checks.ingest_counts, checks.profiles_readback,
                  lambda o, t: checks.clusters(o, t, 6),
                  lambda o, t: checks.entropy(o, t, burst=False)):
        with pytest.raises(checks.CheckFailed):
            check(out, truth)


def test_bad_model_rows_and_flat_trace_fail(case):
    out, truth, _ = case
    model = lda.load_model(os.path.join(out, "model.bin"))
    model.phi = model.phi.copy()
    model.phi[0] *= 2.0
    model.log_likelihood_trace = [-1.0, -2.0]
    model.trace_sweeps = [1, 10]
    lda.save_model(model, os.path.join(out, "model.bin"))
    with pytest.raises(checks.CheckFailed, match="phi rows"):
        checks.model_rows(out, truth)
    with pytest.raises(checks.CheckFailed, match="trace"):
        checks.likelihood_rises(out, truth)


def test_heldout_perplexity_above_uniform_fails(tmp_path):
    planted, _ = generate.draw(generate.SMALL, SEED)
    out = str(tmp_path)
    generate.write_planted_dtm(planted, generate.SMALL,
                               os.path.join(out, "dtm.bin"))
    v = len(checks.read_arrays(os.path.join(out, "dtm.bin"))[1]["terms"])
    for per_token, ok in ((-np.log(v) + 0.5, True), (-np.log(v) - 0.5, False)):
        with open(os.path.join(out, "grid.csv"), "w", encoding="utf-8") as fh:
            fh.write("# seed: 0\nk,alpha,beta,train_log_likelihood,"
                     "holdout_log_likelihood,holdout_per_token\n"
                     f"5,0.1,0.1,-1.0,-1.0,{per_token}\n"
                     f"10,0.1,0.1,-1.0,-1.0,{per_token}\n")
        if ok:
            assert checks.heldout_perplexity(out, {}, [5, 10]) < v
        else:
            with pytest.raises(checks.CheckFailed, match="uniform|vocabulary"):
                checks.heldout_perplexity(out, {}, [5, 10])
