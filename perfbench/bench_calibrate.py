"""Machine-speed calibration for the end-to-end timings.

The machine the benchmark runs on may change speed by up to 2x for
minutes at a time, which moves every timing of a run with it.  A fixed
pure-Python reference task, which does not touch the program, is timed
at intervals through the run, between timed operations; the end-to-end
timings are then scaled by ``REFERENCE_TASK_S / mean task time``, so
they read as if the machine ran the reference task in
:data:`REFERENCE_TASK_S`.  A change to the program cannot move the
reference task: it does not call the program and runs with the garbage
collector off, so the program's heap does not slow it.  Its memory is
under 2 MiB.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: The reference task's time at the reference speed.  It sets only the
#: scale of the calibrated timings (about the task's median on the
#: machine described in README.md).
REFERENCE_TASK_S = 0.030

#: Least time between two calibration samples taken on the way.
SAMPLE_INTERVAL_S = 0.5

#: Samples taken at the start and the end of a run, and after each
#: serve-mixed loop segment.
EDGE_SAMPLES = 3


def reference_task() -> float:
    """Seconds one run of the fixed task took, with the collector off.

    Interpreter work of the kind the program does: string keys into a
    dict, a keyed sort, tuples and lists built, shuffled and scanned.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        checksum = 0
        for _ in range(5):   # small rounds keep the task's memory small
            table = {}
            for i in range(3000):
                table[f"k{i % 600}:{i}"] = i
            keys = sorted(table, key=lambda k: (len(k), k))
            objs = [(i, str(i), [i]) for i in range(5000)]
            random.Random(1).shuffle(objs)
            checksum += len("".join(keys[:100])) + sum(
                o[0] for o in objs[::7])
            del table, keys, objs
        took = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if checksum <= 0:
        raise AssertionError("reference task computed nothing")
    return took


class Calibrator:
    """Samples :func:`reference_task` through a run.

    :meth:`maybe_sample` takes a sample when :data:`SAMPLE_INTERVAL_S`
    has passed since the last one; call it only between timed
    operations, never while they run.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self, repeats: int = 1) -> None:
        self.samples.extend(reference_task() for _ in range(repeats))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()

    @property
    def task_s(self) -> float:
        """Mean reference-task time over the samples so far, the
        slowest and fastest tenth left out.

        A mean, not a median: the machine switches between a fast and
        a slow speed several times a second, and the median of such
        samples jumps from one speed to the other, while the mean
        follows the share of time spent at each.
        """
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    @property
    def factor(self) -> float:
        """What a measured time is multiplied by to read at the
        reference speed (below 1 on a machine slower than it)."""
        return REFERENCE_TASK_S / self.task_s


def maybe_sample(calibrator: Calibrator | None) -> None:
    """:meth:`Calibrator.maybe_sample` when there is a calibrator."""
    if calibrator is not None:
        calibrator.maybe_sample()
