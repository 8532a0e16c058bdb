"""Unit tests for the benchmark's own helpers: percentiles, span self times,
the calibration scale and the oracle's model check."""

import itertools

import pytest

from perfbench import calibrate, oracle, stats
from perfbench.tracing import Tracer, caller_layers, self_times


def test_percentile_interpolates_between_ranks():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 90) == pytest.approx(90.1)
    assert stats.percentile(values, 100) == 100
    assert stats.percentile(values, 0) == 1
    assert stats.percentile([7.5], 90) == 7.5
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    # two clusters: the median sits halfway between them
    assert stats.percentile([1, 1, 1, 3, 3, 3], 50) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 101)


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.supported(100, 90)
    assert not stats.supported(90, 90)
    assert stats.samples_beyond(24, 90) == 3
    assert stats.supported(20, 50)
    assert not stats.supported(19, 50)
    assert not stats.supported(0, 50)


def test_self_time_subtracts_children():
    # A [0,10] has children B [1,4] and C [5,9]; C has child D [6,7].
    start, end = [0, 1, 5, 6], [10, 4, 9, 7]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, [0] * 4, parent) == [3, 3, 3, 1]


def test_self_time_of_a_generator_excludes_its_consumer():
    # P [0,10] consumes generator G [0,10], which waits 4 units on P between
    # yields; G calls H [1,2]; in one gap P calls S [5,8].
    start, end, paused = [0, 0, 1, 5], [10, 10, 2, 8], [0, 4, 0, 0]
    parent = [-1, 0, 1, 0]
    selfs = self_times(start, end, paused, parent)
    assert selfs == [1, 5, 1, 3]
    assert sum(selfs) == 10


def test_tracer_times_generators_across_consumption():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def numbers(n):
        yield from range(n)

    def total(n):
        return sum(x for x in gen(n))

    gen = tracer.wrap("hom.numbers", numbers)
    outer = tracer.wrap("finitemodels.is_model", total)
    assert outer(3) == 3
    names = [tracer.names[k] for k in tracer.name]
    assert names == ["finitemodels.is_model", "hom.numbers"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.items[1] == 3
    assert tracer.paused[1] > 0
    assert tracer.stack == []
    selfs = self_times(tracer.start, tracer.end, tracer.paused, tracer.parent)
    assert sum(selfs) == pytest.approx(tracer.end[0] - tracer.start[0])
    assert caller_layers(["finitemodels", "hom"], tracer.parent) == ["top", "finitemodels"]


def test_tracer_closes_an_abandoned_generator():
    tracer = Tracer()

    def numbers():
        yield from range(10)

    gen = tracer.wrap("hom.numbers", numbers)
    first = next(iter(gen()))
    assert first == 0
    assert tracer.stack == []
    assert tracer.items[0] == 1
    assert tracer.end[0] >= tracer.start[0]


def test_oracle_model_check():
    c1, c2, n1 = ("c", "c1"), ("c", "c2"), ("n", 1)
    X, Y = ("v", "X"), ("v", "Y")
    rules = [((("p", None, (X,)),), ("f", None, (Y, X)))]  # p(X) -> exists Y. f(Y,X)
    db = {("p", None, (c1,))}
    assert not oracle.is_model(db, db, rules)
    model = db | {("f", None, (n1, c1))}
    assert oracle.is_model(model, db, rules)
    assert not oracle.is_model({("f", None, (n1, c1))}, db, rules)
    assert oracle.satisfies(model, [(("f", None, (X, c1)),)])
    assert not oracle.satisfies(model, [(("f", None, (X, c2)),)])


def test_calibration_kernel_is_the_path_closure():
    n = calibrate.KERNEL_NODES
    assert calibrate.kernel() == n + n * (n + 1) // 2


def test_calibration_scale_uses_the_kernel_runs_around_a_task():
    cal = calibrate.Calibrator()
    cal.stamps = [1.0, 2.0, 3.0]
    cal.seconds = [0.01, 0.02, 0.04]
    ref = calibrate.REFERENCE_S
    # a task from 1.5 to 1.8 lies between the runs that ended at 1.0 and 2.0
    assert cal.scale(1.5, 1.8) == pytest.approx(ref / 0.015)
    # one ending exactly at a kernel run's end still counts that run as after it
    assert cal.scale(2.0, 3.0) == pytest.approx(ref / 0.03)
    # past the last run only the one before counts
    assert cal.scale(3.5, 3.9) == pytest.approx(ref / 0.04)
