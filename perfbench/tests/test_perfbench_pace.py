import signal
import time

import pytest

from perfbench import pace
from perfbench.workloads import analyse


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_each_step_is_scaled_by_the_probes_on_either_side_and_excludes_them():
    clock = FakeClock()
    nominal = pace.PROBE_NOMINAL_S
    probes = iter([nominal, 3 * nominal, nominal, nominal])

    def probe():  # takes the time it reports, which no step may count
        took = next(probes)
        clock.now += took
        return took

    p = pace.Pace(probe=probe, clock=clock)
    clock.now += 1.0
    p.lap("fit")  # probes nominal and 3x nominal: speeds 1 and 1/3
    clock.now += 1.0
    p.lap("fit")
    clock.now += 0.25
    p.lap("describe")  # both probes nominal: paced equals wall
    assert p.walls == pytest.approx({"fit": 2.0, "describe": 0.25})
    assert p.paced == pytest.approx({"fit": 4 / 3, "describe": 0.25})
    assert p.wall_s() == pytest.approx(2.25) and p.paced_s() == pytest.approx(4 / 3 + 0.25)
    assert p.probes_s == [nominal, 3 * nominal, nominal, nominal]


def test_probe_does_its_work():
    assert pace.probe() > 0.0


def test_the_paper_analysis_laps_between_its_steps(small_market):
    laps = []
    analyse(small_market, lap=lambda name="pass": laps.append(name))
    assert laps == ["pass"] * 4


def test_ticks_sample_within_a_step_and_stay_out_of_its_time():
    with pace.Pace(tick_s=0.01) as p:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        p.lap()
        handler = signal.getsignal(signal.SIGALRM)
    assert len(p.probes_s) > 3
    assert p.walls["pass"] < time.perf_counter() - start - sum(p.probes_s[1:-1])
    assert signal.getsignal(signal.SIGALRM) is not handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_work_clock_stands_still_while_a_probe_runs():
    clock = FakeClock()
    p = pace.Pace(probe=lambda: (setattr(clock, "now", clock.now + 5.0), 5.0)[1], clock=clock)
    assert clock.now == 5.0 and p.work_clock() == 0.0
    clock.now += 1.0
    p.lap()
    assert clock.now == 11.0 and p.work_clock() == 1.0
