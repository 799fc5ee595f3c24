"""Paced time: wall time corrected for the speed the CPU ran at.

On a shared host a vCPU's speed changes under the benchmark: on the 2-vCPU
VM this benchmark was built on it switches between a fast state and states
1.5-3x slower, every second or so, and slow periods last from seconds to
minutes.  Process CPU time moves with it, so neither wall nor CPU time
repeats from run to run, and the fastest of a run's passes only repeats
when the run happens to meet a fast period.

:func:`probe` times about 2.5 ms of fixed reference work: Python float
formatting and parsing, as in a CSV round trip, then one small
least-squares solve.  Of the probes tried, this mix slowed down the most
like zoneval's passes did; a probe of dict arithmetic and solves alone
slowed less, so that paced time still grew with wall time.

A :class:`Pace` samples the CPU's speed with the probe between the steps
of a pass, and every ``TICK_S`` within a step from a SIGALRM handler.  The
handler runs between two Python bytecodes of the work, or while this
process waits for a CLI command, which is stopped meanwhile.  Probe time
is kept out of the step's time.  Each step's wall time is multiplied by
the mean of the speeds sampled in it and at its two ends, where a speed is
``PROBE_NOMINAL_S`` over a probe's time.  The result, paced seconds, is
the time the step would have taken at the speed where the probe takes
``PROBE_NOMINAL_S``.  The probe touches no zoneval code, so any change to
zoneval's cost shows in full.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import time
from typing import Callable

import numpy as np

# about the probe's time in the fast state of the 2-vCPU Xeon VM the
# benchmark was built on (2.4-2.5 ms there, 4-5 ms in its slow states)
PROBE_NOMINAL_S = 0.0025
PROBE_ROWS = 2_000
_PROBE_X = np.random.default_rng(0).standard_normal((3000, 20))
# interval of the speed samples within a step, about 3% of the step's time
TICK_S = 0.1
# processes that run the timed work for this one (the CLI commands); they
# are stopped while a probe runs, so that the probe has the CPU to itself
WORK_PIDS: set[int] = set()


def probe() -> float:
    """Run the reference work once; returns its wall time.

    The work is a small CSV round trip, then one least-squares solve.  It
    keeps no container objects alive and runs with the garbage collector
    off, so that its time does not depend on how many objects the work
    around it holds, and it does not bring the work's collections forward.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        cells = [repr(i * 0.37) for i in range(PROBE_ROWS)]
        text = "\n".join(f"{i},{cell}" for i, cell in enumerate(cells))
        total = 0.0
        for line in text.split("\n"):
            _key, cell = line.split(",")
            total += float(cell)
        np.linalg.lstsq(_PROBE_X, _PROBE_X[:, 0], rcond=None)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


probe()  # the first call pays numpy's lazy set-up; no measurement does


class Pace:
    """Wall and paced seconds of the steps of one pass, by request.

    Creating it takes a speed sample and starts the first step.
    ``lap(name)`` ends the current step, adds it to request ``name``, takes
    a sample that closes this step and opens the next, and starts the next.
    An in-process pass is one request ("pass"); in ``cli_paper`` each
    command is one.  With ``tick_s`` set, a SIGALRM timer also samples
    every ``tick_s`` within a step, with the processes in ``WORK_PIDS``
    stopped; use it as a context manager, so that the timer and the
    handler are gone when the pass ends.  :meth:`work_clock` is a clock
    that stands still during the probes, for spans timed inside the steps.
    """

    def __init__(
        self,
        probe: Callable[[], float] = probe,
        clock: Callable[[], float] = time.perf_counter,
        tick_s: float | None = None,
    ):
        self._probe, self._clock, self._tick_s = probe, clock, tick_s
        self.walls: dict[str, float] = {}
        self.paced: dict[str, float] = {}
        self.probes_s: list[float] = []
        self._speeds: list[float] = []
        self._in_probes = 0.0
        self._previous_handler = None
        if tick_s is not None:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_tick)
        self._sample()
        self._start_step()

    def _sample(self) -> None:
        start = self._clock()
        took = self._probe()
        self._in_probes += self._clock() - start
        self.probes_s.append(took)
        self._speeds.append(PROBE_NOMINAL_S / took)

    def _on_tick(self, signum, frame) -> None:
        _signal_work(signal.SIGSTOP)
        try:
            self._sample()
        finally:
            _signal_work(signal.SIGCONT)
        signal.setitimer(signal.ITIMER_REAL, self._tick_s)

    def work_clock(self) -> float:
        return self._clock() - self._in_probes

    def _arm(self, seconds: float) -> None:
        if self._tick_s is not None:
            signal.setitimer(signal.ITIMER_REAL, seconds)

    def _start_step(self) -> None:
        self._start = self.work_clock()
        self._arm(self._tick_s)

    def lap(self, name: str = "pass") -> None:
        self._arm(0.0)
        wall = self.work_clock() - self._start
        self._sample()
        speed = sum(self._speeds) / len(self._speeds)
        self.walls[name] = self.walls.get(name, 0.0) + wall
        self.paced[name] = self.paced.get(name, 0.0) + wall * speed
        self._speeds = self._speeds[-1:]
        self._start_step()

    def close(self) -> None:
        """Stop the timer and restore the SIGALRM handler."""
        if self._tick_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._tick_s = None

    def __enter__(self) -> Pace:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def wall_s(self) -> float:
        return sum(self.walls.values())

    def paced_s(self) -> float:
        return sum(self.paced.values())


def _signal_work(signum: int) -> None:
    for pid in list(WORK_PIDS):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signum)


def no_lap(name: str = "pass") -> None:
    """The ``lap`` of an unmeasured run: warm-ups and tests."""
