"""Rescaling by machine speed: what settle() does with pending times."""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import calibrate  # noqa: E402
import workloads  # noqa: E402


class FixedSpeed(calibrate.Speed):
    """A machine at half the reference speed, each sample taking 1 s."""

    def mark(self):
        self.samples.append(2 * calibrate.REFERENCE_S)
        self.stolen += 1.0
        return len(self.samples) - 1


def test_finish_scales_each_segment_and_keeps_it_raw():
    rec = workloads.Record(speed=FixedSpeed())
    rec.settle()
    rec.stop(rec.start())
    rec.setup(2.0)
    rec.trained(100, 4.0)
    rec.predicted(0.25)
    rec.verdict(0.5, nodes=10, ok=True)
    rec.raised(RecursionError(), 1.5)
    rec.settle()
    assert rec.pending == {} and rec.segments[0][1:] == (1, 2)
    rec.finish()
    assert rec.factors == [0.5]
    assert rec.scaled.setup_s == [1.0] and rec.raw.setup_s == [2.0]
    assert rec.scaled.train_rates == [50.0] and rec.raw.train_rates == [25.0]
    assert rec.scaled.latencies == [0.25, math.inf] and rec.raw.latencies == [0.5, math.inf]
    assert rec.scaled.loop_s == 1.0 and rec.raw.loop_s == 2.0
    assert rec.scaled.predict_s == 0.125
    assert (rec.attempted, rec.failed, rec.ok_nodes, rec.predict_calls) == (2, 1, 10, 1)


def test_stop_leaves_out_sampling_inside_the_call():
    rec = workloads.Record(speed=FixedSpeed())
    token = rec.start()
    rec.settle()  # a sample taken inside the call: 1 s stolen
    rec.settle()
    inner = rec.start()
    rec.trained(1, rec.stop(inner))
    raw = rec.stop(token)
    assert raw < 0.5  # the call itself did nothing
    rec.setup(raw)
    rec.settle()
    # Each call is scaled by the samples from the last one before it started
    # to the first one after it stopped.
    assert [(t.setup_s != [], t.train_rates != [], first, last) for t, first, last in rec.segments] == [
        (False, True, 2, 3),
        (True, False, 0, 3),
    ]


def test_factor_is_reference_times_mean_speed():
    speed = calibrate.Speed()
    speed.samples = [1.0, 2.0, 4.0]
    ref = calibrate.REFERENCE_S
    assert math.isclose(speed.factor(0, 1), ref * 0.75)
    assert math.isclose(speed.factor(0, 2), ref * 1.75 / 3)
    assert calibrate.kernel() == calibrate.kernel()


def test_smoothed_percentile_averages_the_neighbourhood_and_keeps_the_top_out():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert workloads.smoothed_percentile(values, 50) == sum(range(46, 56)) / 10  # p45..p55
    assert workloads.smoothed_percentile(values, 95) == sum(range(93, 99)) / 6  # p92.5..p97.5
    assert workloads.smoothed_percentile(values[:40] + [math.inf] * 4, 50) < math.inf
