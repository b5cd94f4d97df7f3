"""The host's pace, sampled while the program runs.

On a shared virtual machine the same work can take 1.5-1.8 times longer
for spells of seconds to minutes, so two runs of one program can differ
by a third in wall time.  ``Pace`` times a fixed probe -- pure-Python
work of the kinds petmine does: dict counting and suffix edits (porter,
textprep), element-wise numpy indexing with float arithmetic (the
pure-Python kernels) and JSON parsing (corpus) -- from a ``SIGALRM``
handler every ``INTERVAL_S`` while a timed region runs, on the thread
that runs the program.  ``factor`` is the probe's mean time over its
reference time, so dividing a wall time measured over the same regions
by it gives the time at the reference pace: about what the host gives
in its fast spells.

The probe is fixed code of the benchmark's own, so a change to petmine
moves the program's time but not the factor.  It takes about 2 ms per
sample, which adds about 2% to every timed region.
"""

from __future__ import annotations

import contextlib
import json
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 0.002     # the probe's time in the tuning host's fast spells

_COUNTS = np.arange(200, dtype=np.int64).reshape(10, 20)
_WORDS = ("nationalisation", "petitioning", "hopefulness", "generalize",
          "sensibly", "running")
_RECORD = json.dumps({"id": 1, "attributes": {
    "action": "ban the thing", "signature_count": 12345,
    "signatures_by_constituency": [
        {"ons_code": f"E{i:08d}", "signature_count": i} for i in range(30)]}})


def probe() -> float:
    """Run the fixed probe once; returns a checksum so no work is skipped."""
    counts: dict[int, int] = {}
    text = ""
    for i in range(3200):
        key = i % 97
        counts[key] = counts.get(key, 0) + i * 3
        if i % 50 == 0:
            text = (text + str(key))[-20:]
    total = float(len(text))
    for i in range(20):
        w = i % 20
        for t in range(10):
            total += (_COUNTS[t, w] + 0.1) / (_COUNTS[t, 0] + 20.0)
    for _ in range(180):
        for word in _WORDS:
            if word.endswith("ation"):
                word = word[:-5] + "ate"
            elif word.endswith("ness"):
                word = word[:-4]
            elif word.endswith("ing"):
                word = word[:-3]
            total += len(word.lower())
    for _ in range(28):
        record = json.loads(_RECORD)
        total += sum(c["signature_count"]
                     for c in record["attributes"]["signatures_by_constituency"])
    return total


class Pace:
    """Samples the probe's time during ``timed()`` regions.

    The timer ticks from construction to ``stop()``, so regions shorter
    than an interval still get their share of samples.  The handler does
    nothing outside a timed region.  Stop the timer before the process
    ends: Python puts back the default ``SIGALRM`` action, which kills,
    while it shuts down.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._active = False
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, signum, frame) -> None:
        if self._active:
            t0 = time.perf_counter()
            probe()
            self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def timed(self):
        """Sample while the block runs; yields nothing."""
        self._active = True
        try:
            yield
        finally:
            self._active = False

    def factor(self, samples: list[float] | None = None) -> float:
        """Mean probe time over its reference: 1.0 at the reference pace."""
        samples = self.samples if samples is None else samples
        if not samples:     # a region shorter than one interval
            t0 = time.perf_counter()
            probe()
            samples = [time.perf_counter() - t0]
        return statistics.fmean(samples) / REFERENCE_S
