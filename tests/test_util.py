"""Hashing, seed derivation, the input reader, the deterministic array
container, and chunked work over forked processes."""

import csv
import io
import json
import os
import signal
import time
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from petmine import util
from petmine.errors import ArchiveFormatError, PetmineError


def test_fnv1a64_reference_values():
    # published test vectors for the 64-bit FNV-1a offset/prime
    assert util.fnv1a64(b"") == 0xCBF29CE484222325
    assert util.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert util.fnv1a64(b"foobar") == 0x85944171F73967E8


def test_splitmix64_reference_values():
    # first output of the published reference generator for these seeds
    assert util.splitmix64(0) == 0xE220A8397B1DCDAF
    assert util.splitmix64(1) == 0x910A2DEC89025CC1
    assert util.splitmix64(1234567) == 0x599ED017FB08FC85


def test_derive_seed_depends_on_label_and_seed():
    a = util.derive_seed(1, "stage:lda")
    assert a == util.derive_seed(1, "stage:lda")
    assert a != util.derive_seed(2, "stage:lda")
    assert a != util.derive_seed(1, "stage:pam")
    assert 0 <= a < 2**64


@given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=40))
def test_derive_seed_in_range(seed, label):
    assert 0 <= util.derive_seed(seed, label) < 2**64


def test_canonical_json_is_sorted_and_compact():
    text = util.canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    assert text == '{"a":[1,2],"b":1,"c":{"x":1,"y":0}}'
    assert json.loads(text) == {"a": [1, 2], "b": 1, "c": {"x": 1, "y": 0}}


def test_config_digest_stable():
    d1 = util.config_digest({"a": 1, "b": 2})
    d2 = util.config_digest({"b": 2, "a": 1})
    assert d1 == d2
    assert len(d1) == 12
    assert d1 != util.config_digest({"a": 1, "b": 3})


def test_metadata_lines_and_write_csv(tmp_path):
    path = tmp_path / "x.csv"
    util.write_csv(str(path), {"tool": "t 1", "seed": 5}, ["a", "b"],
                   [[1, 2], [3, 4]])
    text = path.read_text()
    assert text == "# tool: t 1\n# seed: 5\na,b\n1,2\n3,4\n"


def test_write_csv_quotes_commas_quotes_and_newlines(tmp_path):
    path = tmp_path / "x.csv"
    rows = [["E14000905", "Ross, Skye and Lochaber", 1.5],
            [0, 'the "bedroom tax"', None],
            [1, "line one\nline two", ""]]
    util.write_csv(str(path), {"tool": "t 1"}, ["code", "name", "value"], rows)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.readline() == "# tool: t 1\n"
        read = list(csv.reader(fh))
    assert read[0] == ["code", "name", "value"]
    assert read[1:] == [[str(v) for v in row] for row in rows]


_CSV_CHARS = list(',"\r\n a\u00e9\u4e2d\U0001f600')
# each special character alone too, so a row that only it makes special
# comes up often
_CSV_TEXT = st.sampled_from(_CSV_CHARS + [""]) | st.text(
    st.sampled_from(_CSV_CHARS), max_size=6)
_CSV_VALUE = (_CSV_TEXT | st.integers() | st.none() | st.booleans()
              | st.floats(allow_nan=True, allow_infinity=True)
              | st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                 -0.0]))
_CSV_ROW = st.lists(_CSV_VALUE, max_size=5) | st.sampled_from([[""], []])


def _rows_quoting_cr(rows):
    # csv.writer's lines, but with a field holding "\r" quoted too:
    # Python 3.11's writer quotes one only when "\r" is in its line
    # terminator
    out = io.StringIO()
    for row in rows:
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(row)
        out.write(line.getvalue()[:-2] + "\n")
    return out.getvalue()


@given(fieldnames=st.lists(_CSV_TEXT, max_size=5),
       rows=st.lists(_CSV_ROW, max_size=6))
# one row for each reason a row goes through the csv module, and the rows
# of no field and of one field that needs none
@example(fieldnames=["a\rb"], rows=[["x", 'say "hi"'], ["p\nq"], ["E1", "a, b"],
                                     [""], [], [None, True, -0.0]])
def test_write_csv_bytes_match_the_csv_module(tmp_path_factory, fieldnames,
                                              rows):
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    util.write_csv(str(path), {"tool": "t 1"}, fieldnames, rows)
    want = [[str(v) for v in row] for row in [fieldnames, *rows]]
    text = path.read_bytes().decode("utf-8")
    assert text == "# tool: t 1\n" + _rows_quoting_cr(want)
    # so every row, "\r" and all, reads back
    assert list(csv.reader(io.StringIO(text.split("\n", 1)[1]))) == want


def test_save_load_arrays_roundtrip(tmp_path):
    path = str(tmp_path / "arrays.bin")
    arrays = {
        "ints": np.arange(10, dtype=np.int64),
        "floats": np.linspace(0, 1, 7),
        "matrix": np.eye(3),
    }
    util.save_arrays(path, arrays, {"format": "test", "version": 1})
    loaded, meta = util.load_arrays(path, "test", 1)
    assert meta == {"format": "test", "version": 1}
    assert set(loaded) == set(arrays)
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], arrays[name])
        assert loaded[name].dtype == arrays[name].dtype


def test_save_arrays_byte_deterministic(tmp_path):
    a = {"x": np.arange(5.0)}
    p1, p2 = tmp_path / "a1.bin", tmp_path / "a2.bin"
    util.save_arrays(str(p1), a, {"k": 1})
    util.save_arrays(str(p2), a, {"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def _truncated(path):
    path.write_bytes(path.read_bytes()[:-30])


def _without_meta(path):
    # the same arrays in a zip with no meta.json member
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()
                   if name != "meta.json"}
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)


@pytest.mark.parametrize("damage, message", [
    (lambda p: p.write_bytes(b"not a zip at all"), "not a readable test"),
    (lambda p: p.write_bytes(b""), "not a readable test"),
    (_truncated, "not a readable test"),
    (_without_meta, "not a test"),
    (lambda p: util.save_arrays(str(p), {"x": np.arange(3)},
                                {"format": "other", "version": 1}),
     "not a test"),
    (lambda p: util.save_arrays(str(p), {"x": np.arange(3)},
                                {"format": "test", "version": 2}),
     r"version 2 is not supported \(expected 1\)"),
], ids=["junk", "empty", "truncated", "no-meta", "other-format",
        "other-version"])
def test_load_arrays_rejects_junk(tmp_path, damage, message):
    path = tmp_path / "junk.bin"
    util.save_arrays(str(path), {"x": np.arange(3)},
                     {"format": "test", "version": 1})
    damage(path)
    with pytest.raises(ArchiveFormatError, match=message) as err:
        util.load_arrays(str(path), "test", 1)
    assert str(path) in str(err.value)


def test_load_arrays_names_a_missing_member(tmp_path):
    path = str(tmp_path / "a.bin")
    util.save_arrays(path, {"x": np.arange(3)}, {"format": "test", "version": 1})
    arrays, meta = util.load_arrays(path, "test", 1)
    with pytest.raises(ArchiveFormatError, match="has no 'y'") as err:
        arrays["y"]
    assert path in str(err.value)
    with pytest.raises(ArchiveFormatError, match="has no 'n_docs'"):
        meta["n_docs"]


def test_failed_writes_keep_the_old_file(tmp_path, monkeypatch):
    text_path = tmp_path / "out.csv"
    util.write_text(str(text_path), "old\n")
    with pytest.raises(RuntimeError):
        with util._replacing(str(text_path)) as fh:
            fh.write(b"half a")
            raise RuntimeError("killed mid-write")
    assert text_path.read_text(encoding="utf-8") == "old\n"

    arrays_path = tmp_path / "model.bin"
    util.save_arrays(str(arrays_path), {"x": np.arange(3)}, {"k": 1})
    before = arrays_path.read_bytes()
    write_array = np.lib.format.write_array
    calls = []

    def fail_on_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("killed mid-write")
        return write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", fail_on_second)
    with pytest.raises(RuntimeError):
        util.save_arrays(str(arrays_path),
                         {"a": np.arange(5), "b": np.arange(7)}, {"k": 2})
    assert len(calls) == 2
    assert arrays_path.read_bytes() == before
    # no temporary file is left beside the targets
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin", "out.csv"]


def test_write_text_replaces_and_creates_directories(tmp_path):
    path = tmp_path / "sub" / "dir" / "out.txt"
    util.write_text(str(path), "first\n")
    util.write_text(str(path), "zweite Zeile é\n")
    assert path.read_bytes() == "zweite Zeile é\n".encode("utf-8")
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]


def test_read_text_skips_one_opening_mark_and_keeps_line_ends(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xef\xbb\xbfa\r\nb\rc\xef\xbb\xbf\n")
    assert util.read_text(str(path), "input", ArchiveFormatError) == \
        "a\r\nb\rc\ufeff\n"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa\n")
    assert util.read_text(str(path), "input", ArchiveFormatError) == \
        "\ufeffa\n"


@pytest.mark.parametrize("content, offset", [
    (b"ab\xffc", 2), (b"\xef\xbb\xbfab\xffc", 5), (b"\xef\xbbab", 0),
])
def test_read_text_names_a_byte_that_is_not_utf8(tmp_path, content, offset):
    path = tmp_path / "in.txt"
    path.write_bytes(content)
    with pytest.raises(PetmineError) as err:
        util.read_text(str(path), "input", PetmineError)
    assert str(err.value) == f"{path}: input is not UTF-8 (byte {offset})"


def test_read_text_names_a_file_that_cannot_be_read(tmp_path):
    path = tmp_path / "missing.txt"
    with pytest.raises(ArchiveFormatError) as err:
        util.read_text(str(path), "input", ArchiveFormatError)
    assert str(err.value) == (
        f"{path}: input cannot be read (No such file or directory)")
    with pytest.raises(ArchiveFormatError, match="input cannot be read"):
        util.read_text(str(tmp_path), "input", ArchiveFormatError)


# ---------------------------------------------------------------------------
# fork_map


def _reaped(pid: int) -> bool:
    """Whether ``pid`` is no longer a child of this process, alive or not."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fork_map_returns_results_in_chunk_order(n):
    chunks = [list(range(10 * i, 10 * i + i + 1)) for i in range(n)]
    results = util.fork_map(lambda chunk: (os.getpid(), sum(chunk)), chunks)
    assert [total for _, total in results] == [sum(c) for c in chunks]
    pids = [pid for pid, _ in results]
    # the first chunk runs here, each further chunk in a child of its own
    assert pids[0] == os.getpid()
    assert len(set(pids)) == n
    assert all(_reaped(pid) for pid in pids[1:])


def test_fork_map_sends_numpy_arrays_back():
    results = util.fork_map(lambda n: np.arange(n, dtype=np.int64),
                            [3, 100_000])
    assert [r.tolist() for r in results] == [[0, 1, 2],
                                            list(range(100_000))]


def test_fork_map_raises_a_childs_exception_by_type_and_message():
    def fn(i):
        if i == 2:
            raise KeyError(f"chunk {i} has no key")
        return (os.getpid(), i)

    with pytest.raises(KeyError, match="chunk 2 has no key"):
        util.fork_map(fn, [0, 1, 2])


def test_fork_map_names_an_exception_that_cannot_be_pickled():
    class Local(Exception):
        pass

    def fn(i):
        if i:
            raise Local("not importable")
        return i

    with pytest.raises(PetmineError, match="Local: not importable"):
        util.fork_map(fn, [0, 1])


def test_fork_map_names_the_signal_that_killed_a_child():
    def fn(i):
        if i:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(PetmineError, match="killed by SIGKILL"):
        util.fork_map(fn, [0, 1])


def _write_pid(directory, i):
    """Record this process's pid in ``<i>.pid``, which appears whole: the
    calling process may kill this one as soon as it sees the file."""
    tmp = directory / f"{i}.tmp"
    tmp.write_text(str(os.getpid()))
    os.replace(tmp, directory / f"{i}.pid")


def test_fork_map_leaves_no_child_when_the_calling_process_fails(tmp_path):
    # the children record their pids and then wait far longer than the
    # test; the first chunk fails once they have all started
    def fn(i):
        if i:
            _write_pid(tmp_path, i)
            time.sleep(60)
            return i
        while len(list(tmp_path.glob("*.pid"))) < 2:
            time.sleep(0.01)
        raise RuntimeError("the first chunk failed")

    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="the first chunk failed"):
        util.fork_map(fn, [0, 1, 2])
    assert time.perf_counter() - t0 < 30
    pids = [int(p.read_text()) for p in tmp_path.glob("*.pid")]
    assert len(pids) == 2 and all(_reaped(pid) for pid in pids)


def test_fork_map_leaves_no_child_when_a_child_fails(tmp_path):
    # the second chunk fails; the first returns once every child started
    def fn(i):
        if not i:
            while len(list(tmp_path.glob("*.pid"))) < 3:
                time.sleep(0.01)
            return i
        _write_pid(tmp_path, i)
        if i == 1:
            raise ValueError("the second chunk failed")
        time.sleep(60 if i == 3 else 0)
        return i

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="the second chunk failed"):
        util.fork_map(fn, [0, 1, 2, 3])
    assert time.perf_counter() - t0 < 30
    pids = [int(p.read_text()) for p in tmp_path.glob("*.pid")]
    assert len(pids) == 3 and all(_reaped(pid) for pid in pids)


def test_chunk_count_follows_cores_size_and_fork(monkeypatch):
    monkeypatch.setattr(util, "cores", lambda: 4)
    assert util.chunk_count(0, 100) == 1
    assert util.chunk_count(199, 100) == 1
    assert util.chunk_count(300, 100) == 3
    assert util.chunk_count(10**9, 100) == 4
    monkeypatch.delattr(os, "fork")
    assert util.chunk_count(10**9, 100) == 1


# ---------------------------------------------------------------------------
# split_map


@pytest.mark.parametrize("cores, min_weight, weights, runs", [
    (4, 1, [5], [(0, 1)]),
    # never more runs than items
    (4, 1, [1, 1], [(0, 1), (1, 2)]),
    # each run at least the minimum weight
    (4, 5, [1] * 10, [(0, 5), (5, 10)]),
    (3, 1, [1] * 6, [(0, 2), (2, 4), (4, 6)]),
    # an item that outweighs the rest: two cuts meet, and no run is empty
    (4, 1, [100, 0, 0, 0], [(0, 1), (1, 4)]),
    # the first item holds the larger part of its weight before the half
    # way mark, so it runs alone; cut on the cumulative weight, both
    # items would run in one process
    (2, 1, [3, 1], [(0, 1), (1, 2)]),
    (2, 1, [1, 3], [(0, 1), (1, 2)]),
    (2, 1, [1, 2, 2, 1], [(0, 2), (2, 4)]),
])
def test_split_map_runs_contiguous_items_of_about_equal_weight(
        monkeypatch, caplog, cores, min_weight, weights, runs):
    monkeypatch.setattr(util, "cores", lambda: cores)
    with caplog.at_level("INFO", logger="petmine.util"):
        results = util.split_map(lambda lo, hi: (os.getpid(), lo, hi),
                                 weights, min_weight, "things")
    assert [(lo, hi) for _, lo, hi in results] == runs
    # the first run here, each further one in a child of its own
    assert results[0][0] == os.getpid()
    assert len({pid for pid, _, _ in results}) == len(runs)
    assert [r.getMessage() for r in caplog.records] == [
        f"{len(weights)} things: {len(runs)} process(es), chunks of "
        + ", ".join(str(hi - lo) for lo, hi in runs)]


def test_split_map_forks_for_no_single_item_nor_without_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(util, "cores", lambda: 4)
    monkeypatch.setattr(os, "fork", fork)
    assert util.split_map(lambda lo, hi: (os.getpid(), lo, hi), [10**9], 1,
                          "things") == [(os.getpid(), 0, 1)]
    monkeypatch.delattr(os, "fork")
    assert util.split_map(lambda lo, hi: (os.getpid(), lo, hi), [10**9] * 8,
                          1, "things") == [(os.getpid(), 0, 8)]
