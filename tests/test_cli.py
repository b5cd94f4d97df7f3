"""End-to-end pipeline runs, artifact hygiene, and exit codes."""

import argparse
import csv
import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys
import types
import typing

import jsonschema
import numpy as np
import pytest

from petmine import cli, corpus, geo, kernels, lda, util
from petmine.errors import ConfigError, NumericalError

from conftest import write_fixture_archive

EXPECTED_ARTIFACTS = {
    "corpus.jsonl", "rejects.csv",
    "dtm.bin", "model.bin", "ll_trace.csv", "topic_names.csv",
    "top_words.csv", "intrusion_instances.csv",
    "prevalence.csv",
    "network_nodes.csv",
    "network_cooccurrence_edges.csv", "network_cooccurrence_edges_pruned.csv",
    "network_worddist_edges.csv", "network_worddist_edges_pruned.csv",
    "series_raw.csv", "series_smooth_7.csv", "series_smooth_30.csv",
    "entropy.csv",
    "constituency_profiles.csv", "clusters.csv", "cluster_issue_shares.csv",
    "silhouette.csv", "scaling_raw.json", "scaling_binned.json",
    "ccdf.csv", "powerlaw.json",
    "summary.json",
}


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# artifact inventory and hygiene


def test_pipeline_writes_every_artifact(pipeline_out):
    out, _ = pipeline_out
    assert set(os.listdir(out)) == EXPECTED_ARTIFACTS


def test_csv_artifacts_carry_metadata_headers(pipeline_out):
    out, config = pipeline_out
    for name in sorted(EXPECTED_ARTIFACTS):
        if not name.endswith(".csv"):
            continue
        text = pathlib.Path(out, name).read_text(encoding="utf-8")
        head = text.splitlines()[:3]
        assert head[0].startswith("# tool: petmine "), name
        assert head[1].startswith("# config: "), name
        assert head[2] == f"# seed: {config['seed']}", name


def test_json_artifacts_lead_with_meta(pipeline_out):
    out, config = pipeline_out
    for name in sorted(EXPECTED_ARTIFACTS):
        if not name.endswith(".json"):
            continue
        obj = json.loads(pathlib.Path(out, name).read_text(encoding="utf-8"))
        assert next(iter(obj)) == "_meta", name
        assert obj["_meta"]["seed"] == config["seed"]
        assert obj["_meta"]["tool"].startswith("petmine ")


def test_summary_validates_against_schema(pipeline_out):
    out, _ = pipeline_out
    schema = json.loads(pathlib.Path("docs/summary.schema.json")
                        .read_text(encoding="utf-8"))
    summary = json.loads(pathlib.Path(out, "summary.json")
                         .read_text(encoding="utf-8"))
    jsonschema.validate(summary, schema)


def test_summary_substance(pipeline_out):
    out, config = pipeline_out
    summary = json.loads(pathlib.Path(out, "summary.json")
                         .read_text(encoding="utf-8"))
    assert summary["corpus"]["accepted"] == 60
    assert summary["corpus"]["uk_signature_total"] > 0
    assert summary["lda"]["k"] == 3
    assert 1 / 3 <= summary["lda"]["mean_max_theta"] <= 1.0
    assert summary["geo"]["clusters"]["k"] == config["pam_k"]
    assert sum(summary["geo"]["clusters"]["sizes"]) == 5
    assert summary["powerlaw"]["x_min"] == config["powerlaw_x_min"]
    assert summary["powerlaw"]["n_tail"] > 0


def test_top_words_recover_fixture_themes(pipeline_out):
    out, _ = pipeline_out
    header, rows = _read_csv(os.path.join(out, "top_words.csv"))
    assert header == ["topic", "name", "word1", "word2", "word3",
                      "word4", "word5", "word6"]
    assert len(rows) == 3
    # each planted theme dominates exactly one topic
    themes = {"school": 0, "hospit": 0, "railwai": 0}
    for row in rows:
        for stem in themes:
            if stem in row[2:]:
                themes[stem] += 1
    assert all(v == 1 for v in themes.values()), themes


def test_ll_trace_reads_back_as_the_models_trace(pipeline_out):
    out, _ = pipeline_out
    header, rows = _read_csv(os.path.join(out, "ll_trace.csv"))
    model = lda.load_model(os.path.join(out, "model.bin"))
    assert header == ["sweep", "log_likelihood"]
    assert [int(sweep) for sweep, _ in rows] == model.trace_sweeps
    assert [float(ll) for _, ll in rows] == model.log_likelihood_trace
    assert len(rows) > 1


def test_report_rerun_is_byte_stable(pipeline_out, fixture_paths):
    out, _ = pipeline_out
    _, _, config_path, _ = fixture_paths
    watched = ["summary.json", "entropy.csv", "prevalence.csv",
               "clusters.csv", "powerlaw.json"]
    before = {n: pathlib.Path(out, n).read_bytes() for n in watched}
    assert cli.main(["report", "--config", str(config_path)]) == 0
    for n in watched:
        assert pathlib.Path(out, n).read_bytes() == before[n], n


def test_report_digests_its_config_once(pipeline_out, fixture_paths,
                                        monkeypatch):
    out, _ = pipeline_out
    _, _, config_path, _ = fixture_paths
    before = {n: pathlib.Path(out, n).read_bytes()
              for n in sorted(os.listdir(out))}
    calls = []
    digest = cli.config_digest

    def counted(values):
        calls.append(values)
        return digest(values)

    monkeypatch.setattr(cli, "config_digest", counted)
    assert cli.main(["report", "--config", str(config_path)]) == 0
    # one digest stamps every report artifact, headers unchanged
    assert len(calls) == 1
    assert {n: pathlib.Path(out, n).read_bytes()
            for n in sorted(os.listdir(out))} == before


def test_rejects_csv_lists_bad_record(pipeline_out):
    out, _ = pipeline_out
    header, rows = _read_csv(os.path.join(out, "rejects.csv"))
    assert header == ["line_no", "reason"]
    assert len(rows) == 1
    assert "action" in rows[0][1]


def test_intrusion_instances_export(pipeline_out):
    out, _ = pipeline_out
    header, rows = _read_csv(os.path.join(out, "intrusion_instances.csv"))
    assert header == ["topic", "word1", "word2", "word3", "word4", "word5",
                      "word6"]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    for row in rows:
        assert len(set(row[1:])) == 6


# ---------------------------------------------------------------------------
# auxiliary subcommands


def test_intrusion_score_roundtrip(pipeline_out, fixture_paths, tmp_path):
    out, config = pipeline_out
    _, _, config_path, _ = fixture_paths
    cfg = cli.load_config(str(config_path), {})
    model = lda.load_model(os.path.join(out, "model.bin"))
    instances = lda.make_intrusion_instances(model,
                                             cfg.stage_seed("intrusion"))
    answers = tmp_path / "answers.csv"
    lines = ["topic,subject,position"]
    for inst in instances:
        lines.append(f"{inst.topic_index},s1,{inst.intruder_position}")
        # second subject misses every intruder
        wrong = (inst.intruder_position + 1) % 6
        lines.append(f"{inst.topic_index},s2,{wrong}")
    answers.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = cli.main(["intrusion-score", "--config", str(config_path),
                   "--answers", str(answers)])
    assert rc == 0
    header, rows = _read_csv(os.path.join(out, "intrusion_score.csv"))
    assert header == ["topic", "n_answers", "accuracy", "flagged"]
    by_topic = {r[0]: r for r in rows}
    for t in ("0", "1", "2"):
        assert by_topic[t][1] == "2"
        assert float(by_topic[t][2]) == 0.5
        assert by_topic[t][3] == "1"
    assert by_topic["overall"][1] == "6"
    assert float(by_topic["overall"][2]) == 0.5


def test_byte_order_mark_opens_the_answers_and_the_config(
        pipeline_out, fixture_paths, tmp_path):
    out, _ = pipeline_out
    _, _, config_path, _ = fixture_paths
    text = config_path.read_text("utf-8")
    marked = tmp_path / "config.json"
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert cli.load_config(str(marked), {}) == cli.load_config(
        str(config_path), {})
    # one answers path for both runs, as the header digests the path
    answers = tmp_path / "answers.csv"
    scores = []
    for name, mark in (("plain", ""), ("marked", "\ufeff")):
        answers.write_text(mark + "topic,subject,position\n0,s1,2\n1,s1,3\n",
                           encoding="utf-8")
        run = tmp_path / name
        run.mkdir()
        shutil.copy(os.path.join(out, "model.bin"), run)
        assert cli.main(["intrusion-score", "--config", str(config_path),
                         "--answers", str(answers),
                         "--output-dir", str(run)]) == 0
        scores.append((run / "intrusion_score.csv").read_bytes())
    assert scores[1] == scores[0]


def test_ingest_logs_the_records_dropped_for_state(fixture_paths, tmp_path,
                                                   caplog):
    # the fixture plants one rejected-state record and one malformed one
    _, _, config_path, _ = fixture_paths
    with caplog.at_level("INFO", logger="petmine.cli"):
        assert cli.main(["ingest", "--config", str(config_path),
                         "--output-dir", str(tmp_path)]) == 0
    total = corpus.uk_signature_total(
        corpus.load_corpus(str(tmp_path / "corpus.jsonl")))
    assert [m for m in caplog.messages if m.startswith("ingest:")] == [
        f"ingest: 60 accepted, 1 rejected, 1 dropped for state, "
        f"{total} UK signatures"]


def test_intrusion_score_rejects_malformed_answers(pipeline_out,
                                                   fixture_paths, tmp_path):
    _, _, config_path, _ = fixture_paths
    bad = tmp_path / "bad.csv"
    bad.write_text("topic,who,pick\n0,s1,2\n", encoding="utf-8")
    rc = cli.main(["intrusion-score", "--config", str(config_path),
                   "--answers", str(bad)])
    assert rc == 2
    worse = tmp_path / "worse.csv"
    worse.write_text("topic,subject,position\n9,s1,2\n", encoding="utf-8")
    rc = cli.main(["intrusion-score", "--config", str(config_path),
                   "--answers", str(worse)])
    assert rc == 2


def test_grid_sweeps_settings(pipeline_out, fixture_paths):
    out, _ = pipeline_out
    _, _, config_path, _ = fixture_paths
    rc = cli.main(["grid", "--config", str(config_path),
                   "--k-values", "2,3", "--iterations", "40",
                   "--burn-in", "10", "--sample-every", "5",
                   "--holdout", "0.2"])
    assert rc == 0
    header, rows = _read_csv(os.path.join(out, "grid.csv"))
    assert header == ["k", "alpha", "beta", "train_log_likelihood",
                      "holdout_log_likelihood", "holdout_per_token"]
    assert [r[0] for r in rows] == ["2", "3"]
    for row in rows:
        assert float(row[5]) < 0


@pytest.mark.parametrize("row, fault", [
    ("0,s1", "answers row has 2 fields"),
    ("0,s1,x", "answers row is not numeric"),
    ("99,s1,1", "answers reference unknown topic 99")])
def test_answer_row_faults_name_the_file_and_line(
        pipeline_out, fixture_paths, tmp_path, capsys, row, fault):
    # a comment, a blank line and a quoted line break come before the
    # bad row, which sits on line 7
    _, _, config_path, _ = fixture_paths
    answers = tmp_path / "answers.csv"
    answers.write_text("topic,subject,position\n# first\n\n"
                       '0,"two\nlines",1\n# second\n' + row + "\n",
                       encoding="utf-8")
    assert cli.main(["intrusion-score", "--config", str(config_path),
                     "--answers", str(answers)]) == 2
    assert capsys.readouterr().err == (
        f"petmine: config error: {answers}:7: {fault}\n")


@pytest.mark.parametrize("position", [9, -4, 6])
def test_answer_position_outside_the_shown_words_exits_two(
        pipeline_out, fixture_paths, tmp_path, capsys, position):
    # 0 and 5, the ends of the six shown words, pass; the row after them
    # is refused before anything is written
    out, _ = pipeline_out
    _, _, config_path, _ = fixture_paths
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(os.path.join(out, "model.bin"), run)
    answers = tmp_path / "answers.csv"
    answers.write_text("topic,subject,position\n0,s1,0\n1,s1,5\n"
                       f"2,s1,{position}\n", encoding="utf-8")
    assert cli.main(["intrusion-score", "--config", str(config_path),
                     "--answers", str(answers),
                     "--output-dir", str(run)]) == 2
    assert capsys.readouterr().err == (
        f"petmine: config error: {answers}:4: answer position {position} "
        "is outside 0..5\n")
    assert [p.name for p in run.iterdir()] == ["model.bin"]


# four settings whose estimated costs are in the ratio 12:12:13:13
_GRID_FLAGS = ["--k-values", "2,3", "--alpha-values", "0.1,0.5",
               "--iterations", "20", "--burn-in", "10", "--sample-every", "5",
               "--holdout", "0.2"]
_GRID_SPLITS = {1: "4", 2: "2, 2", 3: "1, 2, 1"}


def _grid_dir(pipeline_out, tmp_path, name):
    out = tmp_path / name
    out.mkdir()
    shutil.copy(os.path.join(pipeline_out[0], "dtm.bin"), out / "dtm.bin")
    return out


def test_chunked_grid_matches_one_chunk(pipeline_out, fixture_paths,
                                        tmp_path, monkeypatch, caplog):
    _, _, config_path, _ = fixture_paths
    monkeypatch.setattr(lda, "_MIN_GRID_COST", 1)
    outcomes = []
    for n in (1, 2, 3):
        monkeypatch.setattr(util, "cores", lambda: n)
        out = _grid_dir(pipeline_out, tmp_path, f"out{n}")
        caplog.clear()
        with caplog.at_level("INFO", logger="petmine.cli"), \
                caplog.at_level("INFO", logger="petmine.util"):
            assert cli.main(["grid", "--config", str(config_path),
                             "--output-dir", str(out), *_GRID_FLAGS]) == 0
        messages = [r.getMessage() for r in caplog.records
                    if r.name in ("petmine.cli", "petmine.util")]
        assert messages[0] == (f"4 grid settings: {n} process(es), "
                               f"chunks of {_GRID_SPLITS[n]}")
        outcomes.append(((out / "grid.csv").read_bytes(), messages[1:]))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]

    lines = outcomes[0][1]
    assert [line.split(" per-token")[0] for line in lines] == [
        f"grid: k={k} alpha={alpha} beta=0.1"
        for k in (2, 3) for alpha in (0.1, 0.5)]
    header, rows = _read_csv(tmp_path / "out1" / "grid.csv")
    assert [row[:3] for row in rows] == [
        [str(k), str(alpha), "0.1"] for k in (2, 3) for alpha in (0.1, 0.5)]


@pytest.mark.skipif(kernels.NUMBA_ENABLED,
                    reason="only the pure-Python kernels are generated per K")
def test_grid_chunks_inherit_the_generated_kernels(
        pipeline_out, fixture_paths, tmp_path, monkeypatch):
    # the first chunk, K=2 only, runs in the calling process, so only a
    # generation before the fork leaves K=3's kernels in its cache
    _, _, config_path, _ = fixture_paths
    monkeypatch.setattr(lda, "_MIN_GRID_COST", 1)
    grids = []
    for n in (1, 2):
        monkeypatch.setattr(util, "cores", lambda: n)
        kernels._specialised.cache_clear()
        out = _grid_dir(pipeline_out, tmp_path, f"out{n}")
        assert cli.main(["grid", "--config", str(config_path),
                         "--output-dir", str(out), *_GRID_FLAGS]) == 0
        assert kernels._specialised.cache_info().currsize == 2
        grids.append((out / "grid.csv").read_bytes())
    assert grids[1] == grids[0]


def test_grid_reports_the_first_failing_setting(
        pipeline_out, fixture_paths, tmp_path, monkeypatch, capsys):
    # the second and fourth settings fail at once, in different chunks at
    # 2 and 3 chunks; the first setting's chunk runs in the calling
    # process, so a later chunk's failure may come first in time
    _, _, config_path, _ = fixture_paths
    fit = lda.fit

    def failing_fit(dtm, config):
        if config.alpha == 0.5:
            raise NumericalError(f"planted failure at k={config.k}")
        return fit(dtm, config)

    monkeypatch.setattr(lda, "fit", failing_fit)
    monkeypatch.setattr(lda, "_MIN_GRID_COST", 1)
    for n in (1, 2, 3):
        monkeypatch.setattr(util, "cores", lambda: n)
        out = _grid_dir(pipeline_out, tmp_path, f"out{n}")
        assert cli.main(["grid", "--config", str(config_path),
                         "--output-dir", str(out), *_GRID_FLAGS]) == 1
        assert capsys.readouterr().err == (
            "petmine: error: planted failure at k=2\n")
        assert sorted(os.listdir(out)) == ["dtm.bin"]


def test_xmin_scan(pipeline_out, fixture_paths):
    out, _ = pipeline_out
    _, _, config_path, _ = fixture_paths
    rc = cli.main(["xmin-scan", "--config", str(config_path),
                   "--x-mins", "5,10,50"])
    assert rc == 0
    header, rows = _read_csv(os.path.join(out, "xmin_scan.csv"))
    assert header == ["x_min", "exponent", "n_tail", "ks_distance", "best"]
    assert [r[0] for r in rows] == ["5", "10", "50"]
    assert sum(int(r[4]) for r in rows) == 1


def test_xmin_scan_without_a_feasible_candidate_exits_one(
        pipeline_out, tmp_path, capsys):
    # no fixture petition reaches 500,000 signatures, so no candidate is
    # left to fit
    out, _ = pipeline_out
    shutil.copy(os.path.join(out, "corpus.jsonl"), tmp_path)
    assert cli.main(["xmin-scan", "--output-dir", str(tmp_path),
                     "--x-mins", "500000"]) == 1
    assert capsys.readouterr().err == (
        "petmine: error: no feasible x_min candidate\n")
    assert os.listdir(tmp_path) == ["corpus.jsonl"]


def test_xmin_scan_passes_over_a_one_value_tail(tmp_path, monkeypatch,
                                                caplog):
    # 16 petitions at one cap above a Pareto body: at x_min = 500,000 the
    # tail holds a single value, whose fit ends at the alpha bound with a
    # KS distance of 0 and would win the scan
    rng = np.random.Generator(np.random.PCG64(1))
    body = np.floor(10 * (rng.pareto(1.5, 10_000) + 1)).astype(np.int64)
    counts = np.concatenate([body, np.full(16, 500_000)])
    monkeypatch.setattr(corpus, "load_corpus",
                        lambda path: types.SimpleNamespace(uk=counts))
    with caplog.at_level("WARNING", logger="petmine.cli"):
        assert cli.main(["xmin-scan", "--output-dir", str(tmp_path)]) == 0
    assert caplog.messages == [
        "xmin-scan: dropped infeasible candidates [500000]"]
    _, rows = _read_csv(tmp_path / "xmin_scan.csv")
    assert "500000" not in [row[0] for row in rows]
    [best] = [row for row in rows if row[4] == "1"]
    assert float(best[3]) > 0 and float(best[1]) < 3


# ---------------------------------------------------------------------------
# configuration and exit codes


def test_missing_config_file_is_usage_error(tmp_path):
    rc = cli.main(["ingest", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


def test_unknown_config_key_is_usage_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"archive": "a.jsonl", "colour": "red"}),
                    encoding="utf-8")
    assert cli.main(["ingest", "--config", str(path)]) == 2
    path.write_text(json.dumps({"lda": {"gamma": 2}}), encoding="utf-8")
    assert cli.main(["ingest", "--config", str(path)]) == 2


def test_missing_archive_is_usage_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "archive": str(tmp_path / "absent.jsonl"),
        "output_dir": str(tmp_path / "out"),
    }), encoding="utf-8")
    assert cli.main(["ingest", "--config", str(path)]) == 2


@pytest.mark.parametrize("key", ["archive", "constituencies"])
def test_an_input_that_is_a_directory_exits_two_writing_nothing(
        fixture_paths, tmp_path, capsys, key):
    inputs = {"archive": fixture_paths[0],
              "constituencies": fixture_paths[1], key: tmp_path}
    out = tmp_path / "out"
    assert cli.main(["ingest", "--archive", str(inputs["archive"]),
                     "--constituencies", str(inputs["constituencies"]),
                     "--output-dir", str(out)]) == 2
    assert f"{key} is not a regular file: {tmp_path}" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_missing_snapshot_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out")}),
                    encoding="utf-8")
    assert cli.main(["fit", "--config", str(path)]) == 1
    assert cli.main(["report", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count(str(tmp_path / "out" / "corpus.jsonl")) == 2


@pytest.mark.parametrize("command, name", [
    ("fit", "corpus.jsonl"), ("report", "corpus.jsonl"),
    ("report", "model.bin"), ("xmin-scan", "corpus.jsonl"),
    ("grid", "dtm.bin"), ("intrusion-score", "model.bin")])
def test_a_snapshot_that_is_a_directory_exits_one_naming_it(
        pipeline_out, fixture_paths, tmp_path, capsys, command, name):
    out, _ = pipeline_out
    _, _, config_path, _ = fixture_paths
    for snapshot in ("corpus.jsonl", "model.bin", "dtm.bin"):
        shutil.copy(os.path.join(out, snapshot), tmp_path / snapshot)
    (tmp_path / name).unlink()
    (tmp_path / name).mkdir()
    answers = tmp_path / "answers.csv"
    answers.write_text("topic,subject,position\n", encoding="utf-8")
    assert cli.main([command, "--config", str(config_path),
                     "--output-dir", str(tmp_path),
                     "--answers", str(answers)]) == 1
    err = capsys.readouterr().err
    assert "petmine: error:" in err and str(tmp_path / name) in err
    assert "Is a directory" in err


@pytest.mark.parametrize("key, code, kind", [
    ("constituencies", 1, "error"), ("answers", 2, "config error")])
def test_a_non_utf8_input_exits_naming_the_file_and_byte(
        pipeline_out, fixture_paths, tmp_path, capsys, key, code, kind):
    archive, _, config_path, _ = fixture_paths
    # the bad byte lies past the first 8 KiB, which a text stream decodes
    # on its own
    header = {"constituencies": b"code,name,electorate",
              "answers": b"topic,subject,position"}[key]
    lines = [header] + [b"E%07d,s%d,1" % (i, i) for i in range(1000)]
    data = b"\n".join(lines) + b"\n9,caf\xe9,1\n"
    path = tmp_path / f"{key}.csv"
    path.write_bytes(data)
    argv = {"constituencies": ["ingest", "--archive", str(archive),
                               "--output-dir", str(tmp_path / "out")],
            "answers": ["intrusion-score", "--config", str(config_path)]}[key]
    assert cli.main(argv + [f"--{key}", str(path)]) == code
    err = capsys.readouterr().err
    assert f"petmine: {kind}:" in err and str(path) in err
    assert "byte %d" % data.index(b"\xe9") in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    # the sampler has one chain; there is no partition count to choose
    for command in ("fit", "grid"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--threads", "2"])
        assert exc.value.code == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--holdout", "0", "holdout must be in (0, 1)"),
    ("--k-values", "5,0", "k must be at least 1"),
    ("--k-values", "", "k_values lists no values"),
])
def test_bad_grid_settings_exit_two_before_snapshot_read(
        tmp_path, capsys, flag, value, message):
    # no dtm.bin exists, so a check that ran after the load would exit 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out")}),
                    encoding="utf-8")
    assert cli.main(["grid", "--config", str(path), flag, value]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ("", "x_mins lists no values"),
    ("0", "x_mins must be at least 1, got [0]"),
    ("0,5", "x_mins must be at least 1, got [0, 5]"),
], ids=["empty", "zero", "zero-and-five"])
def test_bad_x_mins_exit_two_before_snapshot_read(
        tmp_path, capsys, value, message):
    # no corpus.jsonl exists, so a check that ran after the load would
    # exit 1
    out = tmp_path / "out"
    assert cli.main(["xmin-scan", "--output-dir", str(out),
                     "--x-mins", value]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, message", [
    ("grid", "k_values", [5, 10, 5], "k_values repeats 5, got [5, 10, 5]"),
    ("grid", "alpha_values", [0.1, 0.1],
     "alpha_values repeats 0.1, got [0.1, 0.1]"),
    ("grid", "beta_values", [0.5, 0.01, 0.5],
     "beta_values repeats 0.5, got [0.5, 0.01, 0.5]"),
    ("xmin-scan", "x_mins", [10, 10], "x_mins repeats 10, got [10, 10]"),
])
@pytest.mark.parametrize("route", ["file", "flag"])
def test_repeated_list_values_exit_two_before_writing(
        tmp_path, capsys, command, key, value, message, route):
    # no snapshot exists, so a check that ran after the load would exit 1
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    flag = ["--" + key.replace("_", "-"), ",".join(map(str, value))]
    path.write_text(json.dumps({"output_dir": str(out),
                                **({key: value} if route == "file" else {})}),
                    encoding="utf-8")
    assert cli.main([command, "--config", str(path),
                     *(flag if route == "flag" else [])]) == 2
    assert f"petmine: config error: {message}\n" in capsys.readouterr().err
    assert not out.exists()
    # the order of the values is free
    descending = sorted(set(value), reverse=True)
    assert getattr(cli.PipelineConfig(**{key: descending}), key) == descending


def test_bad_sampler_settings_caught_at_load(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lda": {"k": 0}}), encoding="utf-8")
    assert cli.main(["report", "--config", str(path)]) == 2


@pytest.mark.parametrize("values, flags, key", [
    ({"pam_k": "2"}, [], "pam_k"),
    ({"entropy_window_days": "7"}, [], "entropy_window_days"),
    ({"min_doc_fraction": "0.1"}, [], "min_doc_fraction"),
    ({"seed": "1"}, [], "seed"),
    ({"lda": {"k": "3"}}, [], "lda.k"),
    ({"lda": {"alpha": "x"}}, [], "lda.alpha"),
    ({"window": "2015-01-01,2015-12-31"}, [], "window"),
    ({}, ["--window", "2015-01-01,bad"], "window"),
    ({}, ["--window", "2015-12-31,2015-01-01"], "window"),
    ({"topic_names": "abc"}, [], "topic_names"),
    ({"thresholds": [True, 5]}, [], "thresholds"),
    ({"colour": "red"}, [], "colour"),
])
def test_config_values_of_the_wrong_type_exit_two(
        fixture_paths, tmp_path, capsys, values, flags, key):
    # the archive is there, so only the bad value can stop the ingest
    archive = str(fixture_paths[0])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(values, archive=archive,
                                    output_dir=str(tmp_path / "out"))),
                    encoding="utf-8")
    assert cli.main(["ingest", "--config", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: config key '{key}'" in err or (
        key == "window" and "config error: window" in err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, reason", [
    ("[1]", "config file must hold a JSON object"),
    ('{"pam_k": ', "config file is not valid JSON"),
    (b"{\"archive\": \"\xff\"}", "config file is not UTF-8 (byte 13)"),
    (None, "config file cannot be read"),
], ids=["not-object", "not-json", "not-utf8", "missing"])
def test_config_file_faults_name_the_file(tmp_path, capsys, text, reason):
    path = tmp_path / "c.json"
    if isinstance(text, str):
        path.write_text(text, encoding="utf-8")
    elif text is not None:
        path.write_bytes(text)
    assert cli.main(["ingest", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 2
    assert f"config error: {path}: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_equal_settings_share_one_config_digest(tmp_path):
    # the lda section is resolved over the sampler's defaults, so the
    # default k given as a flag, or the default alpha given in the file,
    # digests as if it were not given at all
    archive, _, _, _ = write_fixture_archive(tmp_path)
    out = tmp_path / "digest-out"

    def digest(values, flags):
        path = tmp_path / "digest.json"
        path.write_text(json.dumps(dict(values, archive=str(archive),
                                        output_dir=str(out))),
                        encoding="utf-8")
        assert cli.main(["ingest", "--config", str(path), *flags]) == 0
        head = (out / "rejects.csv").read_text(encoding="utf-8").splitlines()
        assert head[1].startswith("# config: ")
        return head[1]

    same = {digest({}, []), digest({}, ["--k", "10"]),
            digest({"lda": {"alpha": 0.1}}, [])}
    assert len(same) == 1
    assert digest({}, ["--k", "11"]) not in same


@pytest.mark.parametrize("fields, message", [
    ({"pam_k": 0}, "pam_k must be at least 1"),
    ({"thresholds": [5, 5]}, "thresholds must be positive and strictly"),
    ({"pam_metric": "cosine"}, "pam_metric must be one of"),
    ({"lda": {"k": 0}}, "k must be at least 1"),
])
def test_pipeline_config_is_checked_wherever_it_is_built(fields, message):
    with pytest.raises(ConfigError, match=message):
        cli.PipelineConfig(**fields)
    # a copy with a changed field is built, and checked, too
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(cli.PipelineConfig(), **fields)


# a flag's text and the value it sets, by setting type; each value is in
# range for every setting of its type
_FLAG_SAMPLES = {
    str: ("manhattan", "manhattan"),
    int: ("300", 300),
    float: ("0.5", 0.5),
    list[int]: ("3,4", [3, 4]),
    list[float]: ("0.2,0.3", [0.2, 0.3]),
    list[str]: ("2015-01-01,2015-02-01", ["2015-01-01", "2015-02-01"]),
}


def test_every_setting_has_exactly_one_flag(tmp_path, monkeypatch):
    # each top-level field but the lda section, then each sampler field,
    # with the key it has in the lda section
    settings = [(name, hint, None) for name, hint in
                typing.get_type_hints(cli.PipelineConfig).items()
                if name != "lda"]
    settings += [(name, hint, name) for name, hint in
                 typing.get_type_hints(lda.LdaConfig).items()]
    # the sampler's seed is --lda-seed; --seed is the top-level one
    flags = {(name, key): "--lda-seed" if key == "seed"
             else "--" + name.replace("_", "-")
             for name, _, key in settings}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert len(subparsers.choices) == 6
    for command, parser in subparsers.choices.items():
        options = [o for a in parser._actions for o in a.option_strings]
        for name, _, key in settings:
            assert options.count(flags[name, key]) == 1, (command, name)

    built = []
    monkeypatch.setattr(cli, "cmd_ingest",
                        lambda cfg: built.append(cfg) or 0)
    monkeypatch.chdir(tmp_path)
    for name, hint, key in settings:
        if typing.get_origin(hint) not in (list, None):     # X | None
            hint = typing.get_args(hint)[0]
        text, value = _FLAG_SAMPLES[hint]
        assert cli.main(["ingest", flags[name, key], text]) == 0, name
        cfg = built.pop()
        assert (cfg.lda[key] if key else getattr(cfg, name)) == value, name
        if key == "seed":
            assert cfg.seed == 0 and cfg.lda_config().seed == value


def test_config_types_accept_an_int_for_a_float(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lda": {"alpha": 1, "seed": None}}),
                    encoding="utf-8")
    assert cli.load_config(str(path), {}).lda_config().alpha == 1
    # an int passes the float type check and meets the range check
    path.write_text(json.dumps({"min_doc_fraction": 1}), encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=r"min_doc_fraction must be in \(0, 1\), got 1$"):
        cli.load_config(str(path), {})


@pytest.mark.parametrize("flag, value", [
    ("--holdout", "1"), ("--min-doc-fraction", "2")])
def test_fractions_out_of_range_exit_two_writing_nothing(
        fixture_paths, tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert cli.main(["ingest", "--archive", str(fixture_paths[0]),
                     "--output-dir", str(out), flag, value]) == 2
    assert f"{flag[2:].replace('-', '_')} must be in (0, 1)" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_intrusion_score_without_answers_names_the_setting(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["intrusion-score", "--output-dir", str(out)]) == 2
    assert "no answers path configured: set 'answers' (--answers)" in (
        capsys.readouterr().err)


def _stage_header(pipeline_out, config_path, tmp_path, command, name, flags):
    # the command's artifact, run on copies of the pipeline's snapshots;
    # returns its config digest line and its rows
    out = tmp_path / "stage-out"
    out.mkdir(exist_ok=True)
    for snapshot in ("corpus.jsonl", "dtm.bin"):
        shutil.copy(os.path.join(pipeline_out[0], snapshot), out / snapshot)
    assert cli.main([command, "--config", str(config_path),
                     "--output-dir", str(out), *flags]) == 0
    lines = (out / name).read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("# config: ")
    return lines[1], _read_csv(out / name)[1]


_SHORT_FIT = ["--iterations", "4", "--burn-in", "1", "--sample-every", "1"]


@pytest.mark.parametrize("command, name, flags, a, b", [
    ("grid", "grid.csv", _SHORT_FIT + ["--k-values", "2"],
     ["--holdout", "0.1"], ["--holdout", "0.2"]),
    ("grid", "grid.csv", _SHORT_FIT,
     ["--k-values", "2"], ["--k-values", "2,3"]),
    ("xmin-scan", "xmin_scan.csv", [], ["--x-mins", "5"],
     ["--x-mins", "5,10"]),
], ids=["holdout", "k_values", "x_mins"])
def test_grid_and_xmin_settings_are_digested(
        pipeline_out, fixture_paths, tmp_path, command, name, flags, a, b):
    digests = {_stage_header(pipeline_out, fixture_paths[2], tmp_path,
                             command, name, flags + given)[0]
               for given in (a, b)}
    assert len(digests) == 2


def test_config_file_drives_grid(pipeline_out, fixture_paths, tmp_path):
    # the file's k_values and holdout run the grid the flags would
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(dict(
        json.loads(fixture_paths[2].read_text(encoding="utf-8")),
        k_values=[2], holdout=0.2)), encoding="utf-8")
    by_file = _stage_header(pipeline_out, path, tmp_path, "grid", "grid.csv",
                            _SHORT_FIT)
    by_flags = _stage_header(pipeline_out, fixture_paths[2], tmp_path, "grid",
                             "grid.csv", _SHORT_FIT + ["--k-values", "2",
                                                       "--holdout", "0.2"])
    assert by_file == by_flags
    assert [row[0] for row in by_file[1]] == ["2"]


def test_fit_checks_topic_names_before_any_work(fixture_paths, tmp_path,
                                                capsys):
    _, _, config_path, _ = fixture_paths
    out = tmp_path / "out"
    assert cli.main(["ingest", "--config", str(config_path),
                     "--output-dir", str(out)]) == 0
    assert cli.main(["fit", "--config", str(config_path),
                     "--output-dir", str(out), "--topic-names", "a,b"]) == 2
    assert "2 topic names for 3 topics" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["corpus.jsonl",
                                                     "rejects.csv"]


@pytest.mark.parametrize("name, cut", [
    ("model.bin", 0), ("model.bin", 2), ("dtm.bin", 0), ("dtm.bin", 2)])
def test_damaged_snapshots_exit_one_naming_the_file(
        pipeline_out, fixture_paths, tmp_path, capsys, name, cut):
    out, _ = pipeline_out
    _, _, config_path, _ = fixture_paths
    for snapshot in ("corpus.jsonl", "model.bin", "dtm.bin"):
        shutil.copy(os.path.join(out, snapshot), tmp_path / snapshot)
    # emptied (cut 0) or cut off halfway (cut 2)
    data = (tmp_path / name).read_bytes()
    (tmp_path / name).write_bytes(data[:len(data) // cut] if cut else b"")
    command = {"model.bin": ["report"], "dtm.bin": ["grid", "--k-values", "2"]}
    assert cli.main([*command[name], "--config", str(config_path),
                     "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "petmine: error:" in err and str(tmp_path / name) in err


def test_grid_on_an_inconsistent_dtm_exits_one_naming_the_field(
        tmp_path, capsys):
    # a count row past n_docs: scipy would raise a bare ValueError
    out = tmp_path / "out"
    util.save_arrays(
        str(out / "dtm.bin"),
        {"row": np.array([0, 5]), "col": np.array([0, 1]),
         "count": np.array([1, 1]), "doc_frequency": np.array([1, 1])},
        meta={"format": "petmine-dtm", "version": 1, "n_docs": 2,
              "terms": ["a", "b"], "doc_ids": ["1", "2"]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"output_dir": str(out)}), encoding="utf-8")
    assert cli.main(["grid", "--config", str(path), "--k-values", "2"]) == 1
    err = capsys.readouterr().err
    assert "petmine: error:" in err
    assert str(out / "dtm.bin") in err and "'row'" in err


def test_unknown_model_config_key_exits_one_naming_the_file(
        pipeline_out, fixture_paths, tmp_path, capsys):
    out, _ = pipeline_out
    _, _, config_path, _ = fixture_paths
    shutil.copy(os.path.join(out, "corpus.jsonl"), tmp_path / "corpus.jsonl")
    path = str(tmp_path / "model.bin")
    arrays, meta = util.load_arrays(os.path.join(out, "model.bin"),
                                    "petmine-lda", 1)
    util.save_arrays(path, arrays,
                     meta=dict(meta, config=dict(meta["config"], bogus=1)))
    assert cli.main(["report", "--config", str(config_path),
                     "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "petmine: error:" in err and path in err and "'bogus'" in err


@pytest.mark.parametrize("content, reason", [
    (None, "cannot be read"),
    (b"ok\n\xff\xfe stop\n", "not UTF-8"),
    (b"# comments only\n\n", "lists no word"),
], ids=["missing", "not-utf8", "no-word"])
def test_unreadable_stopwords_exit_two_before_snapshot_read(
        tmp_path, capsys, content, reason):
    # no corpus.jsonl exists, so a check that ran after the load would exit 1
    stopwords = tmp_path / "stopwords.txt"
    if content is not None:
        stopwords.write_bytes(content)
    assert cli.main(["fit", "--output-dir", str(tmp_path / "out"),
                     "--stopwords", str(stopwords)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and reason in err and str(stopwords) in err


# each input file: the exit code of a fault in it, and what its messages
# call it
_INPUTS = {
    "archive": (1, "archive"),
    "constituencies": (1, "constituency file"),
    "stopwords": (2, "stopwords file"),
    "answers": (2, "answers file"),
    "config": (2, "config file"),
}


def _read_input(name, path, pipeline_out, fixture_paths, tmp_path) -> int:
    """Run the command that reads input ``name`` first, given as ``path``."""
    archive, _, config_path, _ = fixture_paths
    out = tmp_path / "out"
    if name == "answers":
        # intrusion-score reads the model before the answers
        out.mkdir()
        shutil.copy(os.path.join(pipeline_out[0], "model.bin"), out)
        argv = ["intrusion-score", "--config", str(config_path),
                "--answers", path]
    elif name == "stopwords":
        argv = ["fit", "--stopwords", path]
    elif name == "config":
        argv = ["ingest", "--config", path]
    elif name == "archive":
        argv = ["ingest", "--archive", path]
    else:
        argv = ["ingest", "--archive", str(archive), f"--{name}", path]
    return cli.main([*argv, "--output-dir", str(out)])


@pytest.mark.skipif(not os.path.isfile("/proc/self/mem"),
                    reason="no /proc/self/mem")
@pytest.mark.parametrize("name", list(_INPUTS))
def test_unreadable_input_is_a_named_error(
        pipeline_out, fixture_paths, tmp_path, capsys, name):
    # /proc/self/mem is a regular file whose read at offset 0 fails (EIO)
    path = "/proc/self/mem"
    code, _ = _INPUTS[name]
    assert _read_input(name, path, pipeline_out, fixture_paths,
                       tmp_path) == code
    err = capsys.readouterr().err
    assert f"{path}: " in err and "cannot be read" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["constituencies", "stopwords", "answers",
                                  "config"])
def test_not_utf8_offset_counts_the_byte_order_mark(
        pipeline_out, fixture_paths, tmp_path, capsys, name):
    # the bad byte sits at offset 10 of the file, after a 3-byte mark
    path = tmp_path / "input"
    path.write_bytes(b"\xef\xbb\xbfabc\ndef\xff\n")
    code, what = _INPUTS[name]
    assert _read_input(name, str(path), pipeline_out, fixture_paths,
                       tmp_path) == code
    assert f"{path}: {what} is not UTF-8 (byte 10)" in capsys.readouterr().err


def test_flag_overrides_win_over_file(tmp_path):
    archive, cons, config_path, config = write_fixture_archive(tmp_path)
    other_out = tmp_path / "elsewhere"
    rc = cli.main(["ingest", "--config", str(config_path),
                   "--output-dir", str(other_out)])
    assert rc == 0
    assert (other_out / "corpus.jsonl").exists()
    assert not pathlib.Path(config["output_dir"], "corpus.jsonl").exists()


def test_report_without_constituency_metadata_exits_two_writing_nothing(
        tmp_path, capsys):
    archive, cons, config_path, config = write_fixture_archive(tmp_path)
    del config["constituencies"]
    config_path.write_text(json.dumps(config), encoding="utf-8")
    for command in ("ingest", "fit"):
        assert cli.main([command, "--config", str(config_path),
                         "--iterations", "20", "--burn-in", "10",
                         "--sample-every", "5"]) == 0, command
    out = pathlib.Path(config["output_dir"])
    before = sorted(p.name for p in out.iterdir())
    assert cli.main(["report", "--config", str(config_path)]) == 2
    assert "'constituencies'" in capsys.readouterr().err
    # not one report artifact, not even the ones before the geo stage
    assert sorted(p.name for p in out.iterdir()) == before
    assert not set(before) & {"prevalence.csv", "summary.json",
                              "powerlaw.json", "scaling_raw.json"}


def test_seed_changes_config_digest(tmp_path):
    archive, cons, config_path, config = write_fixture_archive(tmp_path)
    assert cli.main(["ingest", "--config", str(config_path)]) == 0
    rejects = pathlib.Path(config["output_dir"], "rejects.csv")
    first = rejects.read_text(encoding="utf-8")
    assert cli.main(["ingest", "--config", str(config_path),
                     "--seed", "43"]) == 0
    second = rejects.read_text(encoding="utf-8")
    digest1 = [l for l in first.splitlines() if l.startswith("# config")]
    digest2 = [l for l in second.splitlines() if l.startswith("# config")]
    assert digest1 != digest2
    assert "# seed: 43" in second.splitlines()[2]


def test_output_dir_changes_no_byte(tmp_path):
    archive, cons, config_path, config = write_fixture_archive(tmp_path)
    outs = [tmp_path / "one", tmp_path / "elsewhere" / "two"]
    for out in outs:
        for command in ("ingest", "fit", "report"):
            assert cli.main([command, "--config", str(config_path),
                             "--output-dir", str(out), "--iterations", "20",
                             "--burn-in", "10", "--sample-every", "5"]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "summary.json" in names and "model.bin" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_window_filter_flag(tmp_path):
    archive, cons, config_path, config = write_fixture_archive(tmp_path)
    rc = cli.main(["ingest", "--config", str(config_path),
                   "--window", "2015-06-01,2015-06-30"])
    assert rc == 0
    corpus_path = pathlib.Path(config["output_dir"], "corpus.jsonl")
    head = json.loads(corpus_path.read_text(encoding="utf-8").splitlines()[0])
    assert head["_meta"]["window"] == ["2015-06-01", "2015-06-30"]


def test_report_on_a_two_day_window_leaves_undefined_stats_null(tmp_path):
    # one petition: one day-to-day entropy change at most, so no standard
    # deviation and no volatility detection, and too few for a power law
    _, _, config_path, config = write_fixture_archive(tmp_path)
    for command in ("ingest", "fit", "report"):
        assert cli.main([command, "--config", str(config_path),
                         "--window", "2015-06-01,2015-06-02"]) == 0, command
    schema = json.loads(pathlib.Path("docs/summary.schema.json")
                        .read_text(encoding="utf-8"))
    summary = json.loads(pathlib.Path(config["output_dir"], "summary.json")
                         .read_text(encoding="utf-8"))
    jsonschema.validate(summary, schema)
    stats = summary["entropy"]
    assert stats["pct_change_n"] < 2 and stats["pct_change_std"] is None
    assert stats["flagged_dates"] == {}
    fit = summary["powerlaw"]
    assert fit["n_tail"] < 2 and fit["exponent"] is None


def test_csv_fields_with_commas_quotes_and_newlines_round_trip(tmp_path):
    archive, cons, config_path, config = write_fixture_archive(tmp_path)
    lines = cons.read_text(encoding="utf-8").splitlines()
    code = lines[1].split(",")[0]
    lines[1] = f'{code},"Ross, Skye and Lochaber",{lines[1].split(",")[-1]}'
    cons.write_text("\n".join(lines) + "\n", encoding="utf-8")
    names = ["schools", 'the "NHS"', "rail\nfares"]
    config["topic_names"] = names
    config_path.write_text(json.dumps(config), encoding="utf-8")
    for command in ("ingest", "fit", "report"):
        assert cli.main([command, "--config", str(config_path),
                         "--iterations", "20", "--burn-in", "10",
                         "--sample-every", "5"]) == 0, command
    out = config["output_dir"]
    header, rows = _read_csv(os.path.join(out, "constituency_profiles.csv"))
    assert all(len(row) == len(header) for row in rows)
    assert rows[0][:2] == [code, "Ross, Skye and Lochaber"]
    for name, column in [("topic_names.csv", 1), ("top_words.csv", 1),
                         ("prevalence.csv", 1), ("network_nodes.csv", 1)]:
        header, rows = _read_csv(os.path.join(out, name))
        assert all(len(row) == len(header) for row in rows), name
        assert [row[column] for row in rows] == names, name


@pytest.mark.parametrize("thresholds", ["0", "100000,10000", "10000,10000"])
def test_bad_thresholds_are_usage_errors(tmp_path, capsys, thresholds):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out")}),
                    encoding="utf-8")
    assert cli.main(["report", "--config", str(path),
                     "--thresholds", thresholds]) == 2
    assert "thresholds" in capsys.readouterr().err


def test_bad_smoothing_windows_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"smoothing_windows": [30, 7]}),
                    encoding="utf-8")
    assert cli.main(["report", "--config", str(path)]) == 2
    assert "smoothing_windows" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["pam_k", "pam_metric", "pam_metric_flag",
                                  "one_topic"])
def test_report_stage_config_error_exits_two(pipeline_out, fixture_paths,
                                             tmp_path, capsys, monkeypatch,
                                             case):
    out, _ = pipeline_out
    _, _, config_path, config = fixture_paths
    target = tmp_path / "out"
    target.mkdir()
    for name in ("corpus.jsonl", "model.bin"):
        shutil.copy(os.path.join(out, name), target / name)
    flags = []
    if case == "pam_k":
        # the fixture clusters 5 constituencies
        flags = ["--pam-k", "5"]
        message = "config error: geo: k must satisfy 0 < k < 5, got 5"
        # refused before any k is solved
        monkeypatch.setattr(geo, "_pam_exact", None)
    elif case == "pam_metric":
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(dict(config, pam_metric="cosine")),
                               encoding="utf-8")
        message = "config error: pam_metric must be one of"
    elif case == "pam_metric_flag":
        flags = ["--pam-metric", "cosine"]
        message = "config error: pam_metric must be one of"
    else:
        # the issues stage runs before the temporal stage refuses the model
        fit_dir = tmp_path / "fit"
        fit_dir.mkdir()
        shutil.copy(target / "corpus.jsonl", fit_dir / "corpus.jsonl")
        assert cli.main(["fit", "--config", str(config_path),
                         "--output-dir", str(fit_dir), "--k", "1",
                         "--iterations", "20", "--burn-in", "10",
                         "--sample-every", "5"]) == 0
        shutil.copy(fit_dir / "model.bin", target / "model.bin")
        message = "config error: temporal: entropy needs at least 2 issues"
    before = {p.name: p.read_bytes() for p in target.iterdir()}
    assert cli.main(["report", "--config", str(config_path),
                     "--output-dir", str(target), *flags]) == 2
    assert message in capsys.readouterr().err
    # the two snapshots, unchanged, and nothing beside them
    assert sorted(before) == ["corpus.jsonl", "model.bin"]
    assert {p.name: p.read_bytes() for p in target.iterdir()} == before


def test_report_builds_one_distance_matrix_and_solves_each_k_once(
        pipeline_out, fixture_paths, tmp_path, monkeypatch):
    out, _ = pipeline_out
    _, _, config_path, _ = fixture_paths
    for name in ("corpus.jsonl", "model.bin"):
        shutil.copy(os.path.join(out, name), tmp_path / name)
    real = {name: getattr(geo, name)
            for name in ("_distances", "_pam_exact", "_pam_swap")}
    calls = []

    def spy(name, k_of):
        def wrapper(*args, **kwargs):
            calls.append((name, k_of(*args)))
            return real[name](*args, **kwargs)
        monkeypatch.setattr(geo, name, wrapper)

    spy("_distances", lambda *args: None)
    spy("_pam_exact", lambda dist, k: k)
    spy("_pam_swap", lambda dist, medoids: len(medoids))
    assert cli.main(["report", "--config", str(config_path),
                     "--output-dir", str(tmp_path), "--pam-k", "3"]) == 0
    # the 5 clustered constituencies give silhouettes at k = 2..4, and the
    # pam_k clustering is the sweep's k = 3, solved first
    assert calls == [("_distances", None), ("_pam_exact", 3),
                     ("_pam_exact", 2), ("_pam_exact", 4)]


# the scipy packages that a command could load on top of numpy and
# scipy.sparse: only the power-law fits need one, scipy.special
_SCIPY_HEAVY = ("scipy.linalg", "scipy.optimize", "scipy.spatial",
                "scipy.special")

# one process runs the given commands in turn and prints, after the
# imports and after each command, which of the heavy scipy packages it
# has loaded; numba, where installed, is imported first and what it loads
# is the floor
_IMPORT_SCRIPT = """
import json, sys
try:
    import numba  # noqa: F401
except ImportError:
    pass
config, out, answers, packages, commands = sys.argv[1:6]
packages = packages.split(",")

def loaded(step):
    print(json.dumps([step, [p for p in packages if p in sys.modules]]))

loaded("numba")
from petmine import cli
loaded("import")
flags = ["--config", config, "--output-dir", out]
extra = {"grid": ["--k-values", "2,3"], "intrusion-score": ["--answers", answers]}
for command in commands.split(","):
    assert cli.main([command, *flags, *extra.get(command, [])]) == 0, command
    loaded(command)
"""


def test_only_the_power_law_commands_load_scipy_special(fixture_paths,
                                                        tmp_path):
    _, _, config_path, _ = fixture_paths
    answers = tmp_path / "answers.csv"
    answers.write_text("topic,subject,position\n0,s1,0\n", encoding="utf-8")
    src = str(pathlib.Path(cli.__file__).parents[1])
    steps = {}
    # xmin-scan in a fresh process, so it is not credited with what
    # report loaded
    for commands in ("ingest,fit,grid,intrusion-score,report", "xmin-scan"):
        run = subprocess.run(
            [sys.executable, "-c", _IMPORT_SCRIPT, str(config_path),
             str(tmp_path / "out"), str(answers), ",".join(_SCIPY_HEAVY),
             commands],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True)
        assert run.returncode == 0, run.stderr
        lines = [json.loads(line) for line in run.stdout.splitlines()]
        assert [step for step, _ in lines] == ["numba", "import",
                                               *commands.split(",")]
        floor = set(lines[0][1])
        for step, packages in lines[1:]:
            steps[step] = set(packages)
    special = floor | {"scipy.special"}
    assert steps == {"import": floor, "ingest": floor, "fit": floor,
                     "grid": floor, "intrusion-score": floor,
                     "report": special, "xmin-scan": special}


@pytest.mark.parametrize("flag", ["--pam-k", "--entropy-window-days",
                                  "--powerlaw-x-min"])
def test_counts_below_one_exit_two_before_report_writes(
        pipeline_out, fixture_paths, tmp_path, capsys, flag):
    out, _ = pipeline_out
    _, _, config_path, _ = fixture_paths
    for name in ("corpus.jsonl", "model.bin"):
        shutil.copy(os.path.join(out, name), tmp_path / name)
    assert cli.main(["report", "--config", str(config_path),
                     "--output-dir", str(tmp_path), flag, "0"]) == 2
    # not one report artifact beside the two snapshots
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl",
                                                          "model.bin"]
    key = flag[2:].replace("-", "_")
    assert f"config error: {key} must be at least 1" in capsys.readouterr().err


def test_report_tables_hold_python_scalars(pipeline_out, fixture_paths,
                                           tmp_path, monkeypatch):
    # str(float) is the artifacts' text and about twice as fast as
    # str(np.float64), so no table hands write_csv a NumPy scalar
    out, _ = pipeline_out
    _, _, config_path, _ = fixture_paths
    for name in ("corpus.jsonl", "model.bin"):
        shutil.copy(os.path.join(out, name), tmp_path / name)
    real = cli.write_csv
    numpy_cells = {}

    def spy(path, meta, fieldnames, rows):
        rows = [list(row) for row in rows]
        found = [v for row in rows for v in row if isinstance(v, np.generic)]
        if found:
            numpy_cells[os.path.basename(path)] = type(found[0]).__name__
        return real(path, meta, fieldnames, rows)

    monkeypatch.setattr(cli, "write_csv", spy)
    assert cli.main(["report", "--config", str(config_path),
                     "--output-dir", str(tmp_path)]) == 0
    assert numpy_cells == {}


def test_windows_longer_than_the_series_are_accepted(pipeline_out,
                                                     fixture_paths, tmp_path):
    out, _ = pipeline_out
    _, _, _, config = fixture_paths
    for name in ("corpus.jsonl", "model.bin"):
        shutil.copy(os.path.join(out, name), tmp_path / name)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(
        config, output_dir=str(tmp_path),
        smoothing_windows=[7, 30, 1000000000],
        entropy_window_days=1000000000)), encoding="utf-8")
    assert cli.main(["report", "--config", str(config_path)]) == 0
    # a window reaching past both ends averages the whole series every day
    _, rows = _read_csv(tmp_path / "series_smooth_1000000000.csv")
    assert len(rows) > 1 and all(row[1:] == rows[0][1:] for row in rows)
    assert (tmp_path / "entropy.csv").exists()
