"""Host-drift normalisation: a fixed pure-Python reference loop.

The speed of a shared host drifts over seconds to minutes, by more
than the differences a benchmark has to resolve.  Every run therefore
times this loop, interleaved with its work but outside every timed
operation, and scales its timed metrics by ``NOMINAL_S / mean(loop
time)``: a run on a momentarily slow host is scaled down by as much as
the loop slowed.  The loop touches no code of the program under test,
so a change to the program cannot move it.

One sample is two loops: dictionary updates on a small table, whose
speed follows the core's clock and whatever shares the core, and
scattered reads from a 4 MB table, whose speed follows the caches and
memory that other tenants share.  The program's work depends on both.
Measured over ~18 s blocks of fixed verifier, simulator and translator
work on the reference host, scaling by the two together cut the
blocks' spread (coefficient of variation) from 0.061-0.066 to
0.014-0.023, where the dictionary loop alone cut it only to
0.025-0.034; in a sample an hour earlier, the dictionary loop alone
widened it (0.055-0.058 to 0.064-0.074).
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from array import array

#: Iterations of the dictionary loop of one sample.
ITERATIONS = 40_000
#: Reads from the memory table of one sample.
READS = 60_000
#: Words of the memory table (4 MB).
TABLE_WORDS = 1 << 20
#: The duration every timed metric is scaled to: about the mean time of
#: one sample on the reference host (a 2-core x86-64 VM, Python 3.11).
NOMINAL_S = 0.033
#: The loops' results, fixed by the constants above; checked so the
#: work can never be optimised away or silently changed.
EXPECTED = (2762129056, 31487714832)


def _kernel(n: int) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + table[key]) & 0xFFFFFFFF
    return acc


def _memory_kernel(table: array, n: int) -> int:
    acc = 0
    j = 12345
    mask = len(table) - 1
    for _ in range(n):
        j = (j * 1103515245 + 12345) & mask
        acc += table[j]
    return acc


def _timed_sample(table: array) -> float:
    started = time.perf_counter()
    result = (_kernel(ITERATIONS), _memory_kernel(table, READS))
    elapsed = time.perf_counter() - started
    if result != EXPECTED:
        raise RuntimeError(f"reference loop returned {result}, expected "
                           f"{EXPECTED}")
    return elapsed


def _helper(conn) -> None:
    """Helper process: time ``count`` samples on request, until None."""
    table = array("I", range(TABLE_WORDS))
    while True:
        count = conn.recv()
        if count is None:
            return
        conn.send([_timed_sample(table) for _ in range(count)])


class RefClock:
    """Collects reference-loop samples, paced to a fixed share of the
    work they are interleaved with, and turns raw seconds into seconds
    at the nominal host speed."""

    #: Reference time kept at this share of the work time, so samples
    #: cover the run evenly whatever the length of one operation.
    DUTY = 0.1

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Built at the first sample, so set-up does not pay for it.
        self._table: array | None = None
        self._sampled = 0.0
        self._work = 0.0
        self._helper = None

    def add_core(self) -> None:
        """Also time the loop in a helper process, side by side with
        this one, for work that runs on a second core as well."""
        context = multiprocessing.get_context("spawn")
        self._conn, child = context.Pipe()
        self._helper = context.Process(target=_helper, args=(child,),
                                       name="refclock-helper")
        self._helper.start()

    def close(self) -> None:
        """Stop the helper process, if any, and wait for it."""
        if self._helper is not None:
            self._conn.send(None)
            self._helper.join(timeout=30)
            self._conn.close()
            self._helper = None

    def sample(self, count: int = 1) -> None:
        if self._table is None:
            self._table = array("I", range(TABLE_WORDS))
        if self._helper is not None:
            self._conn.send(count)
        for _ in range(count):
            self.samples.append(_timed_sample(self._table))
            self._sampled += self.samples[-1]
        if self._helper is not None:
            self.samples += self._conn.recv()

    def pace(self, work_seconds: float) -> None:
        """Account ``work_seconds`` of timed work, then sample until
        the reference time is back at DUTY of the work time."""
        self._work += work_seconds
        missing = self.DUTY * self._work - self._sampled
        if missing > 0:
            # In batches, so a helper process runs alongside.
            self.sample(max(1, round(missing / NOMINAL_S)))

    def factor(self, since: int = 0) -> float:
        """Multiply raw seconds by this to get nominal seconds, from the
        samples taken since sample number ``since``.  The mean, not the
        median: a slow spell slows the work in proportion to its
        length, and so it slows the evenly spread samples."""
        samples = self.samples[since:]
        if not samples:
            raise RuntimeError("no reference samples taken")
        return NOMINAL_S / statistics.fmean(samples)
