"""The reference-second arithmetic, checked against a scripted clock.

Run with ``python3 -m pytest perfbench -q``.
"""

import time

import pytest

from refclock import MIN_SAMPLES, NOMINAL_S, Sampler, phase_time


class ScriptedClock:
    """A clock that moves only when the test (or the fake kernel) says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def scripted_sampler(clock, durations):
    """A sampler whose kernel takes the given scripted durations in turn."""
    pending = iter(durations)
    return Sampler(clock, kernel=lambda: clock.advance(next(pending)))


def test_samples_inside_a_phase_are_subtracted():
    clock = ScriptedClock()
    sampler = scripted_sampler(clock, [2 * NOMINAL_S] * 3)
    start = clock()
    for _ in range(3):
        clock.advance(0.1)
        sampler.sample()
    clock.advance(0.1)
    timed = phase_time([(start, clock())], sampler.samples)
    assert timed.wall_s == pytest.approx(0.4 + 6 * NOMINAL_S)
    assert timed.work_s == pytest.approx(0.4)
    # Every sample ran at half speed, so 0.4 s of work is 0.2 reference s.
    assert timed.speed_factor() == pytest.approx(2.0)
    assert timed.reference_s == pytest.approx(0.2)


def test_the_median_sample_sets_the_speed():
    clock = ScriptedClock()
    durations = [NOMINAL_S, 1.25 * NOMINAL_S, 1.25 * NOMINAL_S, 1.5 * NOMINAL_S, 40 * NOMINAL_S]
    sampler = scripted_sampler(clock, durations)
    start = clock()
    for _ in durations:
        clock.advance(0.1)
        sampler.sample()
    timed = phase_time([(start, clock())], sampler.samples)
    # The one 40x outlier moves the median no further than its neighbours.
    assert timed.median_sample_s == pytest.approx(1.25 * NOMINAL_S)
    assert timed.reference_s == pytest.approx(0.5 / 1.25)


def test_a_phase_without_enough_samples_borrows_the_nearest():
    clock = ScriptedClock()
    sampler = scripted_sampler(
        clock, [10 * NOMINAL_S, NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S, 10 * NOMINAL_S]
    )
    sampler.sample()  # far before the phase, and slow: must not count
    clock.advance(5.0)
    sampler.sample()
    clock.advance(0.02)
    start = clock()
    clock.advance(0.05)  # shorter than the timer period: no sample inside
    end = clock()
    clock.advance(0.03)
    sampler.sample()
    clock.advance(0.1)
    sampler.sample()
    clock.advance(5.0)
    sampler.sample()  # far after the phase, and slow: must not count
    timed = phase_time([(start, end)], sampler.samples)
    assert MIN_SAMPLES == 3
    assert timed.median_sample_s == pytest.approx(2 * NOMINAL_S)
    assert timed.work_s == pytest.approx(0.05)
    assert timed.reference_s == pytest.approx(0.025)


def test_each_stretch_of_a_phase_is_corrected_by_its_own_samples():
    clock = ScriptedClock()
    sampler = scripted_sampler(clock, [NOMINAL_S] * 3 + [2 * NOMINAL_S] * 3)
    first = clock()
    for _ in range(3):
        clock.advance(0.1)
        sampler.sample()
    first_end = clock()
    clock.advance(1.0)
    second = clock()
    for _ in range(3):
        clock.advance(0.1)
        sampler.sample()
    second_end = clock()
    timed = phase_time([(first, first_end), (second, second_end)], sampler.samples)
    assert timed.work_s == pytest.approx(0.6)
    # 0.3 s at full speed plus 0.3 s at half speed.
    assert timed.reference_s == pytest.approx(0.3 + 0.15)


def test_a_sample_never_runs_reentrantly():
    clock = ScriptedClock()
    sampler = None

    def kernel():
        clock.advance(NOMINAL_S)
        sampler.sample()  # the timer firing while the kernel still runs

    sampler = Sampler(clock, kernel=kernel)
    sampler.sample()
    assert len(sampler.samples) == 1
    assert sampler.skipped == 1
    sampler.sample()
    assert len(sampler.samples) == 2


def test_the_timer_samples_while_work_runs():
    runs = []
    sampler = Sampler(time.perf_counter, kernel=lambda: runs.append(1), period=0.01)
    with sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(sampler.samples) >= 5
    assert len(runs) == len(sampler.samples)
