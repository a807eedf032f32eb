"""Summary statistics and failure accounting for the benchmark.

The percentile rule: a timing is reported as its median plus the
highest percentile, at most the one asked for, that still leaves at
least :data:`MIN_BEYOND` samples above it.  Every summary carries its
sample count, so a reader can judge how much a number rests on.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(n: int, want: float = 0.95) -> float | None:
    """The highest quantile <= ``want`` leaving ``MIN_BEYOND`` samples
    above it among ``n``, or ``None`` when ``n`` is too small to report
    any tail (fewer than ``2 * MIN_BEYOND`` samples: the median is the
    best a run can say)."""
    if n < 2 * MIN_BEYOND:
        return None
    return min(want, 1.0 - MIN_BEYOND / n)


@dataclass(frozen=True)
class Summary:
    """One timing metric: value, the quantile it is, and its count."""

    value: float
    quantile: float
    n: int

    def as_dict(self, unit: str) -> dict:
        return {"value": self.value, "unit": unit,
                "quantile": round(self.quantile, 4), "n": self.n}


def median_of(samples) -> Summary:
    """The median, always reportable when there is any sample."""
    samples = list(samples)
    return Summary(statistics.median(samples), 0.5, len(samples))


def tail_of(samples, want: float = 0.95) -> Summary:
    """The tail by the percentile rule; the median when no tail fits."""
    samples = list(samples)
    q = tail_quantile(len(samples), want)
    if q is None:
        return median_of(samples)
    return Summary(percentile(samples, q), q, len(samples))


def busy_union(intervals) -> float:
    """Seconds covered by at least one ``(start, end)`` interval."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


@dataclass
class Tally:
    """Operations attempted and failed, with the reason of each failure.

    Every operation the benchmark issues is counted once in
    :attr:`attempted`; an operation that errors, answers non-200,
    returns a wrong body or serves a stale page is counted once in
    :attr:`failed`, however many of its checks went wrong.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, *problems: str) -> bool:
        """Count one operation; ``problems`` lists what went wrong.

        Returns whether the operation succeeded.  Empty strings are
        ignored, so callers can pass conditional reasons inline.
        """
        self.attempted += 1
        problems = tuple(p for p in problems if p)
        if problems:
            self.failed += 1
            self.reasons.update(problems)
        return not problems

    def fail_last(self, problem: str) -> None:
        """Mark an already counted, so far successful operation failed
        (a check that runs after the operation, e.g. at run end)."""
        if self.attempted <= self.failed:
            raise ValueError("no successful operation left to fail")
        self.failed += 1
        self.reasons[problem] += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.update(other.reasons)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
