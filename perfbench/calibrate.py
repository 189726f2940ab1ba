"""Machine speed, from a fixed reference kernel timed between pieces of measured work.

The benchmark's host is shared: its speed drifts by tens of percent for
seconds to minutes at a time, and CPU time drifts with wall time, so neither
clock alone separates a slower program from a slower machine. The reference
kernel touches nothing of ``defreach``. It mixes the three kinds of work the
program does: interpreted set and dict manipulation (the parser and the
dataflow solver), many small numpy calls (the taped tensor ops), and a
projection-sized matmul (the k=1000 features). A piece of work timed between
kernel samples is rescaled by the machine's speed then:

    normalised = raw * REFERENCE_S * mean(1 / kernel time of those samples)

so a normalised time reads in seconds on a machine where the kernel takes
``REFERENCE_S``. A change to the program moves it in full; a change of the
machine's speed mostly cancels out. Samples are taken at least every
INTERVAL_S, between graphs, functions and set-ups and, through a hook on
the optimiser step, inside training, because the speed changes within a
second.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Median kernel time on an idle 2-vCPU Xeon with one BLAS thread. Only the
# ratio to it matters; it fixes the scale in which normalised times read.
REFERENCE_S = 0.0085
REPEATS = 3  # kernel runs per sample; the sample is their median
INTERVAL_S = 0.2  # measured work between samples, where the work lets one be taken

clock = time.perf_counter

_rng = np.random.default_rng(0)
_WIDE = _rng.standard_normal((512, 1000))
_PROJ = _rng.standard_normal((1000, 32))
_SMALL = _rng.standard_normal((64, 32))
_INDEX = _rng.integers(0, 64, size=256)
_GRAPH = {i: frozenset(((i * 7 + j) % 400) for j in range(1, 4)) for i in range(400)}


def kernel() -> float:
    """One fixed unit of reference work; returns a checksum so nothing is skipped."""
    # Interpreted: a few rounds of a reaching-definitions-like fixpoint.
    out: dict[int, set] = {i: {i} for i in _GRAPH}
    for _ in range(2):
        for node, succs in _GRAPH.items():
            acc = out[node]
            for s in succs:
                acc |= out[s]
            acc.discard(node + 1)
    total = float(sum(len(v) for v in out.values()))
    # Many small numpy calls.
    h = _SMALL
    for _ in range(40):
        agg = np.zeros_like(h)
        np.add.at(agg, _INDEX % len(h), h[_INDEX % len(h)])
        h = np.tanh(agg * 0.01 + h)
    total += float(h.sum())
    # One wide projection.
    total += float((_WIDE @ _PROJ).sum())
    return total


def sample() -> float:
    """Seconds one kernel run takes now: the median of REPEATS runs.

    The collector is paused, so that a collection the program's heap is due
    for is not charged to the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = clock()
            kernel()
            times.append(clock() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Speed:
    """Kernel samples taken between, and during, stretches of measured work.

    ``stolen`` is the time spent sampling; a measured stretch during which
    samples were taken subtracts it (see workloads.Record.stop).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self.last = clock()
        self.mark()

    def mark(self) -> int:
        """Takes a sample; returns its index."""
        start = clock()
        self.samples.append(sample())
        self.last = clock()
        self.stolen += self.last - start
        return len(self.samples) - 1

    def due(self) -> bool:
        return clock() - self.last >= INTERVAL_S

    def factor(self, first: int, last: int) -> float:
        """The factor that turns a raw time measured between samples
        ``first`` and ``last`` into reference seconds: REFERENCE_S times
        the mean speed (1 / kernel time) of the samples from first to last."""
        speeds = [1.0 / k for k in self.samples[first : last + 1]]
        return REFERENCE_S * sum(speeds) / len(speeds)
