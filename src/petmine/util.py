"""Deterministic plumbing: seed derivation, canonical serialization,
input and artifact I/O and chunked work over forked processes.

Every random procedure in the package draws its seed through
:func:`derive_seed`, so one master seed fans out into stable, documented
per-stage seeds.  Every file artifact is written through helpers here that
never embed timestamps or machine-local state, so re-running a pipeline
with the same inputs and seed produces byte-identical outputs.  A loop
over independent records may run its chunks in parallel through
:func:`fork_map`, whose results come back in chunk order, so how many
processes ran never shows in an output; :func:`split_map` cuts the chunks.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import logging
import os
import pickle
import signal
import typing
import zipfile

import numpy as np

from .errors import ArchiveFormatError, ConfigError, PetmineError, ValidationError

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1

# fnv-1a 64-bit offset basis / prime
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of ``data``, as a non-negative int below 2**64."""
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def splitmix64(x: int) -> int:
    """One splitmix64 step: advance by the golden gamma, then finalize.

    Used as the package-wide bit mixer.  Pure-int implementation so the
    result is exact on any platform; kernels reimplement the same mixer
    on uint64 arrays.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from ``seed`` and a textual ``label``.

    The derivation is ``splitmix64(splitmix64(seed ^ fnv1a64(label)))``:
    stable across runs, platforms and process boundaries, and documented so
    external tooling can reproduce any stage's stream.  Labels in use
    include stage names (``"lda"``, ``"powerlaw"``) and per-item keys such
    as petition ids.
    """
    h = fnv1a64(label.encode("utf-8"))
    return splitmix64(splitmix64((seed & _MASK64) ^ h))


def canonical_json(obj) -> str:
    """Serialize ``obj`` to JSON with sorted keys and no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def config_digest(obj) -> str:
    """Short hex digest of a JSON-serializable config, for output headers."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:12]


def metadata_lines(meta: dict) -> list[str]:
    """Render a metadata mapping as ``# key: value`` comment lines.

    Keys are emitted in insertion order; values are rendered with ``str``.
    Callers must not put timestamps here: output files are meant to be
    byte-identical across re-runs.
    """
    return [f"# {key}: {value}" for key, value in meta.items()]


@contextlib.contextmanager
def _replacing(path: str):
    """Binary file handle whose contents replace ``path`` when the block ends.

    The bytes go to a temporary file beside ``path``, which ``os.replace``
    moves onto it only after the block succeeds, so a run killed or
    failing mid-write leaves the previous file whole.  On an error the
    temporary file is removed.
    """
    path = os.path.abspath(path)
    directory, name = os.path.split(path)
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def reading(path: str, what: str, error: type[PetmineError]):
    """Raise an OSError from the block as ``error``, naming ``path``,
    ``what`` it is and the operating system's reason."""
    try:
        yield
    except OSError as exc:
        raise error(f"{path}: {what} cannot be read ({exc.strerror})") from None


def read_text(path: str, what: str, error: type[PetmineError]) -> str:
    """The text of UTF-8 input file ``path``, ``\\r`` kept and an opening
    byte-order mark skipped; ``error`` names ``path`` and ``what`` it is if
    it cannot be read or a byte, counted from its first, is not UTF-8."""
    with reading(path, what, error), open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec counts from after the mark it skips
        mark = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
        raise error(f"{path}: {what} is not UTF-8 "
                    f"(byte {exc.start + mark})") from None


def write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8, replacing ``path`` atomically."""
    write_bytes(path, [text.encode("utf-8")])


def write_bytes(path: str, parts) -> None:
    """Write the bytes-like ``parts`` in turn, replacing ``path`` atomically.

    ``parts`` may be a generator, so no part need be built before the one
    ahead of it is written.
    """
    with _replacing(path) as fh:
        fh.writelines(parts)


def write_csv(path: str, meta: dict, fieldnames: list[str], rows) -> None:
    """Write a CSV file with a ``#``-comment metadata header.

    ``rows`` is an iterable of sequences aligned with ``fieldnames``.
    Values are formatted with ``str``; callers pass Python scalars (take
    rows from ``ndarray.tolist()``), whose ``str`` is about twice as fast
    as a NumPy scalar's, and format floats beforehand when a fixed
    precision is wanted.  A float64 table whose values repeat reads faster
    from :func:`float_rows`, which formats each distinct value once and
    gives the same text.  A value holding a comma, a quote or a line break
    (``\r`` or ``\n``) is quoted, so every row reads back with the csv
    module.

    A row is written as its fields joined with commas, unless the line
    holds a quote, ``\r`` or ``\n``, or more commas than separators, or
    the row is one empty field.  Only such a row can have a field that the
    csv module quotes, and it goes through ``csv.writer``, whose rule
    stays the only quoting rule.  That writer ends its rows with ``\r\n``,
    which makes it quote a lone ``\r`` on every Python version, and the
    row's ``\r\n`` becomes ``\n``.
    """
    out = io.StringIO()
    out.writelines(line + "\n" for line in metadata_lines(meta))
    quoted = io.StringIO()
    writer = csv.writer(quoted, lineterminator="\r\n")
    for row in itertools.chain([fieldnames], rows):
        fields = list(map(str, row))
        line = ",".join(fields)
        if ('"' in line or "\r" in line or "\n" in line
                or line.count(",") > len(fields) - 1 or fields == [""]):
            quoted.seek(0)
            quoted.truncate()
            writer.writerow(fields)
            line = quoted.getvalue()[:-2]
        out.write(line + "\n")
    write_text(path, out.getvalue())


def float_rows(values: np.ndarray) -> list:
    """``[[str(v) for v in row] for row in values.tolist()]`` for a float64
    array ``values`` (a flat list if it is 1-D), with ``str`` taken once per
    distinct value.

    Values are told apart by their bits, not compared as floats: ``0.0``
    and ``-0.0`` are equal but print differently, and NaNs of any payload
    all print ``nan``, so equal bits always give the same text.
    """
    keys, inverse = np.unique(values.ravel().view(np.int64),
                              return_inverse=True)
    text = np.array([str(v) for v in keys.view(np.float64).tolist()],
                    dtype=object)
    return text[inverse].reshape(values.shape).tolist()


# ---------------------------------------------------------------------------
# Deterministic array archives
# ---------------------------------------------------------------------------
#
# np.savez is almost what we need, but zipfile stamps member headers with the
# current time, so two identical saves differ.  These helpers write the same
# .npy-members-in-a-zip layout with a fixed 1980-01-01 timestamp and STORED
# compression, giving byte-identical archives for identical arrays.

_EPOCH = (1980, 1, 1, 0, 0, 0)


def save_arrays(path: str, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write ``arrays`` and the ``meta`` JSON to a deterministic zip.

    Like :func:`write_text`, the archive replaces ``path`` atomically.
    """
    with _replacing(path) as fh, \
            zipfile.ZipFile(fh, "w", compression=zipfile.ZIP_STORED) as zf:
        info = zipfile.ZipInfo("meta.json", date_time=_EPOCH)
        zf.writestr(info, canonical_json(meta))
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(
                buf, np.ascontiguousarray(arrays[name]), version=(1, 0)
            )
            info = zipfile.ZipInfo(name + ".npy", date_time=_EPOCH)
            zf.writestr(info, buf.getvalue())


def _fits(value, hint) -> bool:
    """An int is not a bool, a float may be an int, list items are typed."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if args:     # a union
        return any(_fits(value, h) for h in args)
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and not isinstance(value, bool)


def check_types(values, hints: dict, prefix: str = "") -> dict:
    """``values``, a JSON object whose every key is in ``hints`` and holds
    a value of that key's type; otherwise a TypeError naming the key, with
    ``prefix`` before it."""
    if not isinstance(values, dict):
        raise TypeError(
            f"expected an object, got a {type(values).__name__}")
    for key, value in values.items():
        if key not in hints:
            raise TypeError(f"key '{prefix}{key}' is unknown")
        hint = hints[key]
        if type(value) is not hint and not _fits(value, hint):
            name = hint.__name__ if isinstance(hint, type) else str(hint)
            raise TypeError(
                f"key '{prefix}{key}' must be {name}, got {value!r}")
    return values


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def from_json(cls, values):
    """The dataclass ``cls`` built from the JSON object ``values``, whose
    keys and types :func:`check_types` checks against ``cls``'s fields."""
    return cls(**check_types(values, _field_types(cls)))


class Members(dict):
    """A snapshot's arrays or meta fields; an absent or ill-typed one is a
    format error naming the file and the field."""

    def __init__(self, path: str, items=()):
        super().__init__(items)
        self.path = path

    def __missing__(self, key):
        raise ArchiveFormatError(f"{self.path}: snapshot has no '{key}'")

    def fault(self, key, problem) -> ArchiveFormatError:
        """The format error saying that the field ``key`` ``problem``,
        a phrase such as "is not a list of strings"."""
        return ArchiveFormatError(
            f"{self.path}: snapshot field '{key}' {problem}")

    def field(self, key: str, convert):
        """``convert`` of the field ``key``; a TypeError, ValueError or
        domain error it raises is a fault naming the field."""
        value = self[key]
        try:
            return convert(value)
        except (TypeError, ValueError, ConfigError, ValidationError) as exc:
            raise self.fault(key, f"is invalid: {exc}") from None

    def count(self, key: str) -> int:
        """The field ``key``, a non-negative integer."""
        value = self[key]
        if type(value) is not int or value < 0:
            raise self.fault(key, "is not a non-negative integer")
        return value

    def strings(self, key: str) -> tuple[str, ...]:
        """The field ``key``, a list of strings, as a tuple."""
        value = self[key]
        if type(value) is not list or not set(map(type, value)) <= {str}:
            raise self.fault(key, "is not a list of strings")
        return tuple(value)

    def array(self, key: str, kind: str, shape: tuple,
              bounds: tuple[int, int] | None = None) -> np.ndarray:
        """The ``kind`` ("integer" or "float") array ``key`` of ``shape``,
        where a ``None`` extent matches any length; with ``bounds``, every
        value ``v`` must satisfy ``bounds[0] <= v < bounds[1]``."""
        value = self[key]
        if (value.dtype.kind not in _DTYPE_KINDS[kind]
                or len(value.shape) != len(shape)
                or any(want not in (None, got)
                       for got, want in zip(value.shape, shape))):
            expected = tuple("n" if n is None else n for n in shape)
            raise self.fault(
                key, f"is a {value.dtype} array of shape {value.shape}, "
                     f"expected a {kind} array of shape {expected}")
        if bounds is not None and value.size and (
                value.min() < bounds[0] or value.max() >= bounds[1]):
            raise self.fault(
                key, f"holds a value outside {bounds[0]}..{bounds[1] - 1}")
        return value


# numpy dtype kind codes of the array kinds a snapshot holds
_DTYPE_KINDS = {"integer": "iu", "float": "f"}


def snapshot_meta(path: str, meta, format: str, version: int) -> Members:
    """``meta``, the meta fields of a ``format`` ``version`` snapshot at
    ``path``, as :class:`Members`; any other format or version is an
    ArchiveFormatError naming ``path``."""
    if not isinstance(meta, dict) or meta.get("format") != format:
        raise ArchiveFormatError(f"{path} is not a {format} snapshot")
    if meta.get("version") != version:
        raise ArchiveFormatError(
            f"{path}: {format} snapshot version {meta.get('version')!r} is "
            f"not supported (expected {version})")
    return Members(path, meta)


def load_arrays(path: str, format: str,
                version: int) -> tuple[dict[str, np.ndarray], dict]:
    """Read back a ``format`` ``version`` archive written by :func:`save_arrays`.

    Any fault in it is an ArchiveFormatError naming ``path``.
    """
    arrays = Members(path)
    meta = None
    try:
        with (reading(path, "snapshot", ArchiveFormatError),
              zipfile.ZipFile(path, "r") as zf):
            for name in zf.namelist():
                data = zf.read(name)
                if name == "meta.json":
                    meta = json.loads(data)
                elif name.endswith(".npy"):
                    arrays[name[:-4]] = np.lib.format.read_array(
                        io.BytesIO(data))
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise ArchiveFormatError(
            f"{path}: not a readable {format} snapshot ({exc})") from None
    return arrays, snapshot_meta(path, meta, format, version)


# ---------------------------------------------------------------------------
# Chunked work over forked processes


def cores() -> int:
    """The number of processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:       # no affinity call on this platform
        return os.cpu_count() or 1


def chunk_count(size: int, min_chunk: int) -> int:
    """How many chunks to split work of ``size`` units into: one per core
    this process may use, each of at least ``min_chunk`` units, and one
    where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(cores(), size // min_chunk))


def split_map(fn, weights, min_weight: int, what: str) -> list:
    """``fn(lo, hi)`` for each run ``lo:hi`` of the items whose weights
    are ``weights``, in run order, computed in parallel by :func:`fork_map`.

    The runs are contiguous and of about equal weight, as many as
    :func:`chunk_count` gives but no more than the items: each item joins
    the run that holds the larger part of its weight, so none is empty.
    An INFO line names ``what`` the items are, the process count and each
    run's number of items.
    """
    weights = np.asarray(weights)
    total = int(weights.sum())
    n = min(chunk_count(total, min_weight), len(weights))
    cuts = np.searchsorted(np.cumsum(weights) - weights / 2,
                           total * np.arange(1, n) / n).tolist()
    bounds = sorted({0, *cuts, len(weights)})
    log.info("%d %s: %d process(es), chunks of %s", len(weights), what,
             len(bounds) - 1, ", ".join(map(str, np.diff(bounds).tolist())))
    return fork_map(lambda span: fn(*span), list(zip(bounds, bounds[1:])))


def fork_map(fn, chunks: list) -> list:
    """``[fn(chunk) for chunk in chunks]``, computed in parallel.

    The calling process runs the first chunk itself and forks one child
    per further chunk, so a single chunk runs in-process and no process
    sits idle.  A child inherits ``fn`` and its chunk through the fork,
    so nothing is pickled on the way in; it pickles its result, or the
    exception it raised, back through a pipe.  A child's exception is
    raised here with its type and message, and a child that dies without
    a result is a PetmineError naming the signal or exit status.  Every
    child is reaped before this returns or raises.

    A fork copies only the calling thread, so ``fn`` must not need
    another one; the per-record Python and element-wise NumPy work
    chunked here does not.
    """
    children: dict[int, int] = {}        # pid -> read end of its pipe
    try:
        for chunk in chunks[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child(fn, chunk, read, write)
            os.close(write)
            children[pid] = read
        results = [fn(chunks[0])]
        for pid in list(children):
            results.append(_child_result(pid, children.pop(pid)))
        return results
    finally:
        for pid, read in children.items():
            os.close(read)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(fn, chunk, read: int, write: int) -> None:
    """Run ``fn(chunk)`` in a forked child, send the outcome through
    ``write``, and exit without running anything the parent would:
    cleanups, atexit hooks, buffered output."""
    status = 1
    try:
        os.close(read)
        try:
            payload = pickle.dumps((True, fn(chunk)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            try:
                payload = pickle.dumps((False, exc))
            except Exception:        # an exception that cannot be pickled
                payload = pickle.dumps(
                    (False, PetmineError(f"{type(exc).__name__}: {exc}")))
        with open(write, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def _child_result(pid: int, read: int):
    """The result child ``pid`` sent through ``read``, once it has exited;
    the child is reaped however the read ends."""
    try:
        with open(read, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        raise PetmineError(
            f"worker process {pid} was killed by "
            f"{signal.Signals(os.WTERMSIG(status)).name}")
    if status or not payload:
        raise PetmineError(f"worker process {pid} exited with status "
                           f"{os.waitstatus_to_exitcode(status)}")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value
