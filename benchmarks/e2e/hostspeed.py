"""How fast is the host right now?  A calibration kernel beside every timing.

The shared host this benchmark is sized on changes speed by itself, in steps:
a fixed pure-Python loop in a busy process takes 1.45, 1.85 or 2.3 ms for
seconds to minutes at a time (no steal time, process CPU time equal to wall
time: a neighbour on the core, not the scheduler), and over tens of minutes
every rate of every workload drifts together by 15-30 %.  A 22 s run sees two
or three of those steps, so no statistic of its raw timings repeats better
than 10-30 % (README.md, "Host and measured spread").

So every timed call runs between two runs of a fixed kernel, and its seconds
are scaled to what they would have been on a host that runs the kernel in its
reference time: ``seconds * reference / kernel seconds around the call``.
The kernel never changes and touches nothing of ``repro``, so a change to the
program moves the scaled figure exactly as it moves the raw one; the raw
figures stay in the result beside the scaled ones.

How much a slow spell costs depends on the kind of code: many tiny NumPy
calls from Python (the scalar API) lose the most, an interpreter loop less,
big-array NumPy the least.  A kernel of the wrong kind under-corrects: scaled
by a sort of 30 000 keys, the scalar workload's rates still moved 2.3 % for
every 1 % the kernel moved between runs, and their quartile distance over
ten seeds stayed at 12-18 %; scaled by ``calls`` it is 1.0 % per 1 % and
2-6 %.  So the kernel has three parts and a workload names the ones that are
of its route's kind (``Workload.host_mix``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

__all__ = ["REFERENCE_S", "HostClock"]

#: Seconds each part takes on the reference host (this host's usual state).
REFERENCE_S = {"interp": 0.0012, "calls": 0.0011, "arrays": 0.0030}
#: A sample this fresh stands in for the one before a timed call.
FRESH_S = 0.005

_CENTRE = np.array([0.3, 0.7])
_SORTED = np.sort(np.random.default_rng(3).random(20_000))
_BIG = _PICK = None


def interp() -> None:
    """An interpreter loop: integers only, no calls."""
    s = 0
    for i in range(20_000):
        s += i * i % 7


def calls() -> None:
    """Many tiny NumPy calls from Python, as one scalar query makes them."""
    acc = 0.0
    for i in range(120):
        a = np.array([i * 0.001, 1.0 - i * 0.001])
        d = a - _CENTRE
        r = float(d @ d)
        j = int(np.searchsorted(_SORTED, r))
        inside = np.all((a >= 0.0) & (a <= 1.0))
        acc += r + j + bool(inside)


def arrays() -> None:
    """One big-array NumPy call: 150 000 random reads of a 32 MB column."""
    global _BIG, _PICK
    if _BIG is None:
        _BIG = np.random.default_rng(1).random(4_000_000)
        _PICK = np.random.default_rng(2).integers(0, len(_BIG), 150_000)
    _BIG[_PICK].sum()


PARTS = {"interp": interp, "calls": calls, "arrays": arrays}


class HostClock:
    """Times calls in seconds at the reference host speed, as the kernel
    parts named in ``mix`` measure it."""

    def __init__(self, mix: tuple[str, ...]) -> None:
        self.mix = mix
        self.parts = [PARTS[name] for name in mix]
        self.reference_s = sum(REFERENCE_S[name] for name in mix)
        self.samples: list[float] = []  # every kernel run of this process
        self._at = float("-inf")
        self.sample()  # the arrays are made, the code is warm: not a sample
        self.samples.clear()
        self._at = float("-inf")

    def sample(self, reuse: bool = False) -> float:
        if reuse and perf_counter() - self._at < FRESH_S:
            return self.samples[-1]
        started = perf_counter()
        for part in self.parts:
            part()
        self._at = perf_counter()
        self.samples.append(self._at - started)
        return self.samples[-1]

    def timed(self, fn):
        """``fn()`` between two kernel samples: (its result, its seconds,
        its seconds at the reference host speed)."""
        before = self.sample(reuse=True)
        started = perf_counter()
        out = fn()
        seconds = perf_counter() - started
        after = self.sample()
        return out, seconds, seconds * self.reference_s * 2.0 / (before + after)
